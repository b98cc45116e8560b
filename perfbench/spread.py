"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ci-table,knockout] [--out spread.json]

For every workload and end-to-end metric it prints the median of the
per-seed values, the first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A change is judged against a parent by comparing such
medians; a spread near the bound means the metric cannot resolve it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [*benchmark["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {"seeds": args.seeds, "failed": failed, "metrics": {}}
        for metric in benchmark["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload]["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:10s} {metric['name']:12s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f}  bound {metric['bound']:.2f}", flush=True)
        print(f"{workload:10s} failed runs or checks: {failed}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
