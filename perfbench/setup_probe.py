"""Set-up probe, run in a fresh interpreter by run.py: import the package,
build one workload's inputs (text-interp also parses its model), say ready.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (imports evometric from src/)

workloads.WORKLOADS[sys.argv[1]]().build()
print("ready", flush=True)
