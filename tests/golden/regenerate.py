"""Rewrite the pinned results that ``tests/test_golden.py`` compares.

Run from the repository root: ``PYTHONPATH=src python tests/golden/regenerate.py``.
It replaces ``tests/golden/cli/`` with the result files of the five
criterion-10 commands and ``tests/golden/pins.json`` with the in-process
pins.  Only a change that moves a result on purpose regenerates them.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the tests directory: test_golden and conftest

import test_golden  # noqa: E402


def main() -> None:
    shutil.rmtree(HERE / "cli", ignore_errors=True)
    test_golden.run_commands(HERE / "cli")
    pins = test_golden.compute_pins()
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
