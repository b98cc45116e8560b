"""Record the benchmark's reference facts in perfbench/baseline.json.

    python3 perfbench/record.py [--seeds 0-20] [--spread spread.json]

It records the machine, the finnet commit, the workload sizes, facts of
the default seed's panel (rows, and n, coverage and edges per year), a
sha256 of each seed's panel and of each workload's output for each seed,
and, given a spread.py result, the end-to-end medians and quartiles that
later changes are judged against. run.py fails a run whose panel or
output differs from a recorded digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import panel
import run
import spread
import workloads

DEFAULT_SEED = 1

sys.path.insert(0, str(run.SRC))


def _cache_size(level: int) -> str:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if (index / "level").read_text().strip() == str(level) and \
                (index / "type").read_text().strip() in ("Unified", "Data"):
            return (index / "size").read_text().strip()
    return "unknown"


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def panel_facts(seed: int, work: Path) -> dict:
    from finnet.ingest import core_slice, read_asset_file, read_gdp_file
    from finnet.netbuild import ThresholdRule

    assets_path, gdp_path = panel.write(seed, work)
    assets, gdp = read_asset_file(str(assets_path)), read_gdp_file(str(gdp_path))
    years = {}
    for year in panel.YEARS:
        slice_ = core_slice(assets, gdp, year)
        years[str(year)] = {
            "n": slice_.n,
            "coverage": slice_.coverage,
            "edges": {rule: ThresholdRule.from_name(rule).apply(slice_).num_edges for rule in ("A", "B")},
        }
    return {"seed": seed, "rows": len(assets), "years": years}


def record_digests(seeds: list[int]) -> dict:
    record = {
        "commit": commit(),
        "seed": DEFAULT_SEED,
        "machine": machine(),
        "sizes": dataclasses.asdict(workloads.FULL),
    }
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        work = Path(tmp)
        record["panel"] = panel_facts(DEFAULT_SEED, work)
        record["panel"]["sha256"] = {}
        record["digests"] = {name: {} for name in workloads.NAMES}
        for seed in seeds:
            for name in workloads.NAMES:
                bench = run.Bench(name, seed, workloads.FULL, work)
                proc, payload = bench.command()
                verdict = run.judge_outputs(name, workloads.FULL, [(proc.rc, payload)], {})[0]
                if verdict:
                    sys.exit(f"{name} seed {seed}: {verdict}")
                record["digests"][name][str(seed)] = run.sha256(payload)
            record["panel"]["sha256"][str(seed)] = run.sha256(bench.assets.read_bytes() + bench.gdp.read_bytes())
            print(f"seed {seed} recorded", file=sys.stderr)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=spread.seeds, help="re-record machine, panel and digests for these seeds")
    parser.add_argument("--spread", help="a spread.py --out file to record as the baseline")
    args = parser.parse_args()
    record = run.load_baseline()
    if args.seeds:
        record = {**record_digests(args.seeds), "baseline": record.get("baseline")}
    if args.spread:
        with open(args.spread) as fh:
            record["baseline"] = json.load(fh)
    run.BASELINE.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
