"""Set up one workload in a fresh interpreter and say when it is ready.

Usage: python setup_probe.py WORKLOAD SEED WORKDIR

run.py times this process from spawn to the "ready" line to measure
setup_s: interpreter start, importing feaskit, building the problems and
generating the seeded inputs.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print("ready", flush=True)
