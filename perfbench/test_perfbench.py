"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import panel
import run
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_same_seed_same_panel_bytes():
    assert panel.generate(7) == panel.generate(7)
    assert panel.generate(7) != panel.generate(8)


def test_panel_shape_does_not_depend_on_seed(tmp_path):
    from finnet.ingest import core_slice, read_asset_file, read_gdp_file

    for seed in (3, 4):
        assets_path, gdp_path = panel.write(seed, tmp_path)
        assets, gdp = read_asset_file(str(assets_path)), read_gdp_file(str(gdp_path))
        slices = [core_slice(assets, gdp, year) for year in panel.YEARS]
        assert [s.n for s in slices] == [panel.core_size(year) for year in panel.YEARS]
        assert all(0 < s.coverage < 1 for s in slices)
        assert set(panel.GROUP) <= set(slices[-1].countries)


def test_metric_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_passes_its_check_at_tiny_size(name):
    result = run.run(name, seed=5, seconds=0, trace=False, sizes=workloads.PROBE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run.run("lgd-sweep", seed=5, seconds=0, trace=True, sizes=workloads.PROBE)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_corrupted_output_counts_as_failed(tmp_path):
    bench = run.Bench("pigs-grid", 5, workloads.PROBE, tmp_path)
    proc, payload = bench.command()
    assert proc.rc == 0
    corrupted = payload.replace(b",0.0,", b",0.5,", 1)
    assert corrupted != payload
    verdicts = run.judge_outputs("pigs-grid", workloads.PROBE, [(0, payload), (0, corrupted), (0, payload)], {})
    assert verdicts[0] is None and verdicts[2] is None and verdicts[1]
    bench.judge([(0, payload), (0, corrupted), (1, b""), (0, payload)], {})
    assert (bench.ledger.attempted, bench.ledger.failed) == (4, 2)


def test_output_differing_from_a_reference_fails(tmp_path):
    bench = run.Bench("lgd-sweep", 5, workloads.PROBE, tmp_path)
    _, payload = bench.command()
    verdicts = run.judge_outputs("lgd-sweep", workloads.PROBE, [(0, payload)], {"recorded digest": "0" * 64})
    assert verdicts == ["bytes differ from recorded digest"]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert layers.tail(values) == 990  # p99 of 1000
    assert layers.tail(values[:100]) == 90  # p90 of 100
    assert layers.tail(values[:5]) == 5  # too few samples: the maximum


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knockout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""


def test_gauged_process_is_paused_and_continued(tmp_path):
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.5:\n    pass\nprint('done')"
    start = time.perf_counter()
    proc = run.spawn([sys.executable, "-c", busy], tmp_path, gauge=True)
    elapsed = time.perf_counter() - start
    assert proc.rc == 0 and proc.stdout == b"done\n"
    # The pauses for the gauge task are left out of the wall time.
    assert proc.speed > 0 and 0.5 <= proc.cpu_s and proc.wall_s < elapsed
