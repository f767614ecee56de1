"""Write the pinned reference tables in bench/reference.

Usage: python3 bench/pin.py

Records what the program does today for every input a benchmark run can
draw: every catalog operation, CLI calls included, and every start of the
sphere-basin pool.  Defects are pinned as they are.  Re-pinning changes the
benchmark, so do it only in a change that says why the outcomes moved.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def pin(name: str, ops, extra=None) -> None:
    table = {}
    for op in ops:
        table[op.key] = op.outcome(op.call())
    # One operation per line keeps the tables small and their diffs readable.
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(table.items())]
    head = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in (extra or {}).items())
    path = workloads.REFERENCE / f"{name}.json"
    path.write_text("{" + head + '"ops": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(BENCH.parent)}: {len(table)} operations")


def main() -> None:
    workloads.REFERENCE.mkdir(exist_ok=True)
    workdir = BENCH.parent / ".bench_work" / "pin"
    workdir.mkdir(parents=True)
    try:
        pin("catalog", workloads.build("catalog", workloads.POOL_SEED, workdir))
        pin(
            "sphere-basin",
            workloads.basin_ops(range(workloads.BASIN_POOL)),
            extra={
                "pool_seed": workloads.POOL_SEED,
                "box": workloads.BASIN_BOX,
                "methods": workloads.BASIN_METHODS,
            },
        )
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
