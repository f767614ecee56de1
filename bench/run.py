"""feaskit benchmark.

Usage:
    python3 bench/run.py --workload {catalog,sphere-basin,all}
                         --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it alternates untraced and
traced passes over the same inputs and reports the per-layer metrics.
Every operation's outcome is checked against the pinned tables in
``bench/reference``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat every metric by name with its unit, the sample
counts, ``fail_frac`` and the machine.  ``--workload all`` runs both
workloads one after another, each in its own process.

See bench/README.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("catalog", "sphere-basin")
SETUP_SAMPLES = 15  # fresh interpreters per run; setup_s is their median
STARTUP_SAMPLES = 5  # fresh interpreters per start-up figure (cli.*_ms)
MIN_TRACED_PASSES = 2  # counts must repeat between at least two
TRACED_SETUPS = 3
WARM_UP_S = 1.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "sets.graph_project.calls": "count",
    "sets.graph_project.us": "us",
    "sets.graph_project.share": "ratio",
    "sets.f_calls": "count",
    "sets.f_points": "count",
    "sets.df_calls": "count",
    "sets.f_calls_per_project": "ratio",
    "sets.graph_project_per_step": "ratio",
    "sets.closed_project.calls": "count",
    "sets.closed_project.us": "us",
    "geometry.circumcenter.calls": "count",
    "geometry.circumcenter.us": "us",
    "geometry.classify_triple.calls": "count",
    "geometry.classify_triple.us": "us",
    "geometry.as_point.calls": "count",
    "geometry.circumcenter_ratio": "ratio",
    "solvers.run.calls": "count",
    "solvers.steps": "count",
    "solvers.step.us": "us",
    "solvers.run.self_share": "ratio",
    "analysis.classify_rate.calls": "count",
    "analysis.classify_rate.us": "us",
    "analysis.compare.self_share": "ratio",
    "problems.builtin.us": "us",
    "cli.interp_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.feaskit_import_ms": "ms",
    "cli.main.ms": "ms",
    "cli.trace_write.us": "us",
    "cli.read_trace.us": "us",
    "cli.trace_bytes": "bytes",
    "plotting.render_svg.ms": "ms",
    "plotting.svg_bytes": "bytes",
    "bench.trace_overhead_ms": "ms",
}


class Checker:
    """Runs operations and checks each outcome against the pinned table."""

    MAX_MESSAGES = 20

    def __init__(self, reference: dict, same):
        self.reference = reference
        self.same = same
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []  # the first failures, for the report

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    def run(self, op) -> float:
        """Run ``op`` once; return its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raised is a failure
            self.fail(f"{op.key}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        want = self.reference.get(op.key)
        try:
            got = op.outcome(result)
        except Exception as exc:
            self.fail(f"{op.key}: unreadable result: {type(exc).__name__}: {exc}")
            return dt
        if want is None or not self.same(got, want):
            self.fail(f"{op.key}: got {got!r}, pinned {want!r}")
        return dt


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being ready in it."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return dt


_IMPORT_TIMES = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import feaskit; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def startup_ms() -> dict:
    """Interpreter start, numpy import and feaskit import, each the median
    over STARTUP_SAMPLES fresh processes, in ms."""
    interp, numpy_s, feaskit_s = [], [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMES], cwd=ROOT, env=child_env(),
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout.split()
        numpy_s.append(float(out[0]))
        feaskit_s.append(float(out[1]))
    return {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy_s) * 1e3,
        "cli.feaskit_import_ms": statistics.median(feaskit_s) * 1e3,
    }


def warm_up(ops, checker: Checker) -> None:
    """Run operations in order for up to WARM_UP_S or one pass, untimed."""
    t_end = time.perf_counter() + WARM_UP_S
    for op in ops:
        checker.run(op)
        if time.perf_counter() >= t_end:
            break


def run_pass(ops, checker: Checker) -> float:
    """Run every operation once; return the pass's wall time in seconds."""
    t0 = time.perf_counter()
    for op in ops:
        checker.run(op)
    return time.perf_counter() - t0


def measure(args, workdir: Path) -> tuple[dict, Checker, list[str], list[str]]:
    """End-to-end metrics with tracing off."""
    import workloads

    setup_probe(args.workload, args.seed, workdir)  # warm-up: byte-compiles
    ops = workloads.build(args.workload, args.seed, workdir)
    checker = Checker(workloads.load_reference(args.workload), workloads.same)
    warm_up(ops, checker)

    # Other tenants of a small shared box slow whole stretches of seconds
    # by up to 2x, so a median over repeats moves with how much of a run
    # they covered.  Each input's fastest repeat (best of k) does not; the
    # percentiles are then taken over inputs, so they cannot land in the
    # gap between two inputs' latency clusters either.
    latencies = {op.key: [] for op in ops}
    setups = []
    timed = 0
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    # Set-up probes are spread over the run, between operations.
    probe_at = [t0 + (i + 0.5) * args.seconds / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    full_pass = False  # every input needs one repeat, however short the run
    while not (full_pass and time.perf_counter() >= deadline):
        for op in ops:
            latencies[op.key].append(checker.run(op))
            timed += 1
            now = time.perf_counter()
            if probe_at and now >= probe_at[0]:
                probe_at.pop(0)
                setups.append(setup_probe(args.workload, args.seed, workdir))
            if full_pass and now >= deadline:
                break
        else:
            full_pass = True
    while probe_at:  # left over when operations outlast the probe spacing
        probe_at.pop(0)
        setups.append(setup_probe(args.workload, args.seed, workdir))

    best_ms = [min(v) * 1e3 for v in latencies.values()]
    metrics = {
        "ops_per_s": 1e3 * len(best_ms) / sum(best_ms),
        "op_ms.p50": statistics.median(best_ms),
        "op_ms.p90": statistics.quantiles(best_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"op_ms samples: {len(ops)} inputs, each the best of {min(map(len, latencies.values()))}"
        f" or more repeats; {timed} operations timed",
        f"setup_s samples: {SETUP_SAMPLES} fresh interpreters",
    ]
    return metrics, checker, notes, []


def trace(args, workdir: Path) -> tuple[dict, Checker, list[str], list[str]]:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    import tracer
    import workloads

    metrics = startup_ms()
    plain = workloads.build(args.workload, args.seed, workdir)
    checker = Checker(workloads.load_reference(args.workload), workloads.same)
    warm_up(plain, checker)

    # Traced set-ups give problems.builtin.us, and the last one's problems, whose graphs count their oracle calls,
    # serve the traced passes.  CLI calls also build problems as they run.
    t = tracer.Tracer()
    builtin_spans = []
    t.install()
    try:
        for _ in range(TRACED_SETUPS):
            t.reset()
            traced_ops = workloads.build(args.workload, args.seed, workdir)
            builtin_spans.append(t.spans.get("problems.builtin", [0, 0.0, 0.0]))
    finally:
        t.uninstall()

    def traced_pass():
        t.install()
        t.reset()
        try:
            dt = run_pass(traced_ops, checker)
        finally:
            t.uninstall()
        return t.snapshot(), dt

    untraced_s, traced_s, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced_s) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced_s.append(run_pass(plain, checker))
        snap, dt = traced_pass()
        traced_s.append(dt)
        layers.append(tracer.layer_metrics(snap, dt))
        builtin_spans.append(snap["spans"].get("problems.builtin", [0, 0.0, 0.0]))

    errors = [
        f"{name} differs between traced passes: {sorted(values)}"
        for name in tracer.REPEATABLE
        if len(values := {layer[name] for layer in layers}) != 1
    ]

    for name in layers[0]:  # median_low keeps counts whole
        metrics[name] = statistics.median_low(layer[name] for layer in layers)
    calls = sum(c for c, _, _ in builtin_spans)
    metrics["problems.builtin.us"] = sum(s for _, s, _ in builtin_spans) / calls * 1e6 if calls else 0.0
    written = [op.out for op in traced_ops if op.out is not None]
    for name, svg in (("cli.trace_bytes", False), ("plotting.svg_bytes", True)):
        sizes = [path.stat().st_size for path in written if (path.suffix == ".svg") == svg]
        metrics[name] = statistics.mean(sizes) if sizes else 0.0
    metrics["bench.trace_overhead_ms"] = (
        statistics.median(traced_s) - statistics.median(untraced_s)
    ) * 1e3
    notes = [
        f"passes: {len(untraced_s)} untraced, median {statistics.median(untraced_s) * 1e3:.1f} ms; "
        f"{len(traced_s)} traced, median {statistics.median(traced_s) * 1e3:.1f} ms",
    ]
    return metrics, checker, notes, errors


def machine(args) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return (
        f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )


def run_one(args) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, checker, notes, errors = (trace if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = checker.failed
    for message in checker.messages + errors:
        print(f"FAIL {message}", file=sys.stderr)
    print(machine(args))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_frac = {failed / checker.attempted:.6g} ({failed} of {checker.attempted} operations)")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "feaskit" / "__init__.py").is_file():
        print(f"bench: no feaskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
