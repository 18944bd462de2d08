"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload tree-stats --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its values, their median, and the distance between
the first and third quartile as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it. Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    walls: list[float] = []
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [
                sys.executable,
                str(ROOT / "perfbench" / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{args.workload}: run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        print(
            f"  {name:<20} median {median:>14.6g} spread {spread:7.4f} "
            f"bound {bounds.get(name, float('nan')):.2f}  {[round(v, 4) for v in series]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
