"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --seconds 35 --seeds 10 [--workloads tanks-adapt,...]

Runs ``run.py`` untraced once per seed (1..N) and workload, in sequence,
from the current directory, and prints per metric the median and the
distance between the first and third quartile as a share of the median,
with the bound from BENCHMARK.json beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.splitlines()[-1])
            ok &= res["correct"] and res["failed"] == 0
            print(wl, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}),
                  flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"{wl} {k}: median {med:.6g}  iqr/median {(q3 - q1) / med:.4f}  "
                  f"bound {bounds.get(k)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
