import argparse
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finnet.cli import _null_spec, build_parser, main
from finnet.knockout import ci_compare, ensemble_knockout
from finnet.lgd import LgdSpec, sweep_grid
from finnet.metrics import measure_vector
from finnet.netbuild import ThresholdRule
from finnet.nullmodels import DEFAULT_SIGMA_CORRECTION, DEFAULT_SWAP_FACTOR
from finnet.seeding import child_seed

from conftest import DATA_DIR, complete_net, hand_slice, random_slice


def inputs(fixture_data_dir):
    return ["--assets", str(fixture_data_dir / "assets.csv"), "--gdp", str(fixture_data_dir / "gdp.csv")]


def _no_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def strict_json(text):
    """Parse JSON that must hold no bare NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def run(args, fixture_data_dir, out_name="out", extra=()):
    out = fixture_data_dir / out_name
    return main(args + inputs(fixture_data_dir) + ["--out", str(out), *extra]), out


def test_build_writes_edge_list(fixture_data_dir, capsys):
    rc, out = run(["build", "--year", "2007", "--rule", "A"], fixture_data_dir, "net.csv")
    assert rc == 0
    text = out.read_text()
    assert "# command=build" in text
    assert "holder,issuer" in text
    assert "# n=8" in text and "# mean_out_degree=" in text
    assert "mean_out_degree" in capsys.readouterr().err


def test_build_missing_gdp_exits_1_naming_file(fixture_data_dir, capsys):
    rc = main([
        "build", "--year", "2007", "--rule", "B",
        "--assets", str(fixture_data_dir / "assets.csv"),
        "--gdp", str(fixture_data_dir / "nope.csv"),
        "--out", str(fixture_data_dir / "x.csv"),
    ])
    assert rc == 1
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--assets"])
def test_directory_path_exits_1_with_error_line(fixture_data_dir, capsys, flag):
    paths = {
        "--assets": fixture_data_dir / "assets.csv",
        "--gdp": fixture_data_dir / "gdp.csv",
        "--out": fixture_data_dir / "x.csv",
        flag: fixture_data_dir,
    }
    rc = main(["build", "--year", "2007", *(str(x) for kv in paths.items() for x in kv)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(fixture_data_dir) in err
    assert "Traceback" not in err


def test_build_rule_b_default_threshold(fixture_data_dir):
    rc, out = run(["build", "--year", "2007", "--rule", "B"], fixture_data_dir, "netb.csv")
    assert rc == 0
    assert "# rule=B(t=0.0417)" in out.read_text()


def test_pyproject_version_is_the_package_version(capsys):
    """Every output echoes __version__ as `# finnet=...`; the packaging metadata
    must carry the same value. A regex, since Python 3.10 has no tomllib."""
    from finnet import __version__

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', pyproject, flags=re.M)
    assert version == __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"finnet {__version__}\n"


def test_hash_country_code_exits_1_naming_its_line(tmp_path, capsys):
    """A holder coded #N/A would be written as an edge row under the `#`
    metadata lines, where any reader that skips `#` lines drops it."""
    assets, gdp = tmp_path / "assets.csv", tmp_path / "gdp.csv"
    assets.write_text("year,holder,issuer,value_musd\n2009,US,JP,5\n2009,#N/A,US,9\n2009,JP,US,4\n")
    gdp.write_text("year,country,gdp_musd\n2009,US,10\n2009,JP,10\n2009,#N/A,10\n")
    out = tmp_path / "net.csv"
    rc = main(["build", "--year", "2009", "--assets", str(assets), "--gdp", str(gdp), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 3: country code '#N/A' begins with '#'\n"
    assert not out.exists()


@pytest.mark.parametrize("years, code", [
    ("1-10000", 1), ("1-10001", 2), ("1-5000,5001-10000", 1), ("1-5000,5001-10001", 2), ("0,1-10000", 2),
])
def test_years_list_holds_at_most_10000_years(fixture_data_dir, tmp_path, capsys, years, code):
    out = tmp_path / "fits.json"
    argv = ["fit-lognormal", "--years", years, "--out", str(out)] + inputs(fixture_data_dir)
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{years.split(',')[-1]} takes the year list past 10000 years" in capsys.readouterr().err
    else:
        assert main(argv) == 1
        assert "year 1 absent" in capsys.readouterr().err
    assert not out.exists()


def test_swap_factor_runs_at_its_bound_and_exits_2_above(fixture_data_dir, tmp_path, capsys):
    out = tmp_path / "null.csv"
    argv = ["gen-null", "--year", "2007", "--model", "rewiring", "--count", "1", "--out", str(out)]
    assert main(argv + ["--swap-factor", "1000"] + inputs(fixture_data_dir)) == 0
    assert out.read_text().count("# command=gen-null") == 1
    out.unlink()
    for command in (argv[:5], ["knockout", "--years", "2007", "--strategy", "error", "--model", "rewiring"],
                    ["ci-table", "--years", "2007", "--models", "rewiring"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--swap-factor", "1001", "--out", str(out)] + inputs(fixture_data_dir))
        assert exc.value.code == 2
        assert "--swap-factor: '1001': must be >= 1 and <= 1000" in capsys.readouterr().err
        assert not out.exists()


def test_usage_error_exits_2(fixture_data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--rule", "A"])  # missing --year
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_knockout_defaults_echo(fixture_data_dir):
    parser = build_parser()
    args = parser.parse_args(
        ["knockout", "--years", "2007", "--rule", "A", "--strategy", "error"]
    )
    assert args.trials == 2000 and args.samples == 10000
    rc, out = run(
        ["knockout", "--years", "2007", "--rule", "A", "--strategy", "error"],
        fixture_data_dir,
        "ko_default.csv",
    )
    assert rc == 0
    text = out.read_text()
    assert "# trials=2000" in text
    assert "# samples=10000" in text
    assert text.count("\n") == 101 + text.count("# ") + 1  # 101 grid rows


def test_knockout_null_model_curve(fixture_data_dir):
    rc, out = run(
        ["knockout", "--years", "2006-2007", "--rule", "A", "--strategy", "attack",
         "--model", "er", "--trials", "5"],
        fixture_data_dir,
        "ko_er.csv",
    )
    assert rc == 0
    assert "# model=er" in out.read_text()
    assert "# n_traces=10" in out.read_text()


def test_gen_null_samples(fixture_data_dir):
    rc, out = run(
        ["gen-null", "--year", "2007", "--rule", "A", "--model", "log-normal", "--count", "3"],
        fixture_data_dir,
        "nulls.csv",
    )
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "sample,holder,issuer"
    samples = {line.split(",")[0] for line in lines[1:]}
    assert samples == {"0", "1", "2"}


def test_lgd_trace_json(fixture_data_dir):
    rc, out = run(
        ["lgd", "--year", "2007", "--initial", "AAA,BBB", "--d1", "0.1", "--d2", "0.1"],
        fixture_data_dir,
        "trace.json",
    )
    assert rc == 0
    doc = strict_json(out.read_text())
    assert doc["meta"]["command"] == "lgd"
    assert doc["cascade"]["initial"] == ["AAA", "BBB"]
    assert doc["cascade"]["impact"] >= 2 / 8


def test_lgd_unknown_country_exits_1(fixture_data_dir, capsys):
    rc, _ = run(
        ["lgd", "--year", "2007", "--initial", "ZZZ", "--d1", "0.1", "--d2", "0.1"],
        fixture_data_dir,
        "trace2.json",
    )
    assert rc == 1
    assert "ZZZ" in capsys.readouterr().err


def test_lgd_sweep_emits_24_specs_per_year_per_k(fixture_data_dir):
    rc, out = run(
        ["lgd-sweep", "--years", "2006-2007", "--k-max", "2"],
        fixture_data_dir,
        "sweep.csv",
        extra=["--ranking-out", str(fixture_data_dir / "ranking.csv")],
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 24 * 2 * 2  # specs x years x k
    for year in ("2006", "2007"):
        for k in ("1", "2"):
            assert sum(1 for r in rows if r.split(",")[0] == year and r.split(",")[3] == k) == 24
    ranking = (fixture_data_dir / "ranking.csv").read_text()
    assert ranking.splitlines()[-1].split(",")[0] in {"1", "2"}


def test_pigs_grid_dimensions(fixture_data_dir):
    rc, out = run(
        ["pigs-grid", "--year", "2007", "--group", "AAA,BBB"],
        fixture_data_dir,
        "pigs.csv",
    )
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 3 * 51 * 51  # subsets {AAA}, {BBB}, {AAA,BBB}
    assert rows[0].split(",")[0] == "AAA"


def test_export_formats(fixture_data_dir):
    rc, out = run(["export", "--year", "2007", "--rule", "A", "--format", "dot"],
                  fixture_data_dir, "graph.dot")
    assert rc == 0
    text = out.read_text()
    assert text.startswith("// finnet=")
    assert "digraph {" in text
    rc, out = run(["export", "--year", "2007", "--rule", "A", "--format", "edge-list"],
                  fixture_data_dir, "graph.csv")
    assert rc == 0
    assert "holder,issuer,weight_class" in out.read_text()


def export_body(fixture_data_dir, args, out_name):
    """The export output with its metadata lines (`//` or `#`) taken off."""
    rc, out = run(["export", "--year", "2007", *args], fixture_data_dir, out_name)
    assert rc == 0
    return "".join(line for line in out.read_text().splitlines(keepends=True) if not line.startswith(("//", "#")))


def test_export_dot_format(fixture_data_dir):
    text = export_body(fixture_data_dir, ["--rule", "A", "--format", "dot"], "graph.dot")
    assert text.startswith("digraph {\n")
    assert '"AAA" -> "BBB" [class=' in text
    assert text.endswith("}\n")


def test_export_empty_network_header_only(fixture_data_dir):
    text = export_body(fixture_data_dir, ["--rule", "B", "--t", "1000", "--format", "edge-list"], "empty.csv")
    assert text == "holder,issuer,weight_class\n"


def test_knockout_and_ci_table_json_format(fixture_data_dir):
    rc, out = run(
        ["knockout", "--years", "2007", "--rule", "A", "--strategy", "error",
         "--trials", "5", "--format", "json"],
        fixture_data_dir,
        "ko.json",
    )
    assert rc == 0
    doc = strict_json(out.read_text())
    assert len(doc["rows"]) == 101
    assert set(doc["rows"][0]) == {"grid_point", "mean", "std"}
    rc, out = run(
        ["ci-table", "--years", "2007", "--rules", "A", "--models", "er",
         "--samples", "100", "--format", "json"],
        fixture_data_dir,
        "ci.json",
    )
    assert rc == 0
    doc = strict_json(out.read_text())
    assert doc["meta"]["command"] == "ci-table"
    assert {r["measure"] for r in doc["rows"]} == {
        "frac_spl_le2", "frac_spl_le3", "modified_aspl",
        "assortativity", "avg_clustering", "edge_transitivity",
    }


def test_fit_lognormal_json(fixture_data_dir):
    rc, out = run(["fit-lognormal", "--years", "2006,2007"], fixture_data_dir, "fit.json")
    assert rc == 0
    doc = strict_json(out.read_text())
    assert len(doc["fits"]) == 2
    fit = doc["fits"][0]
    assert fit["correction_factor"] == 1.183
    assert set(fit["residual_summary"]) == {"mean", "std", "skew", "kurtosis", "jarque_bera", "p_value"}
    rc, out = run(["fit-lognormal", "--years", "2006,2007", "--pooled"], fixture_data_dir, "fitp.json")
    assert rc == 0
    assert len(strict_json(out.read_text())["fits"]) == 1


def test_fit_lognormal_writes_null_for_undefined_statistics(tmp_path):
    # Three countries give 6 residuals, too few for Jarque-Bera.
    codes = ["AAA", "BBB", "CCC"]
    assets = ["year,holder,issuer,value_musd"] + [
        f"2007,{h},{i},{10 * (k + 1)}" for k, (h, i) in enumerate((h, i) for h in codes for i in codes if h != i)
    ]
    (tmp_path / "assets.csv").write_text("\n".join(assets) + "\n")
    (tmp_path / "gdp.csv").write_text("year,country,gdp_musd\n" + "".join(f"2007,{c},100\n" for c in codes))
    rc, out = run(["fit-lognormal", "--years", "2007"], tmp_path, "fit.json")
    assert rc == 0
    summary = strict_json(out.read_text())["fits"][0]["residual_summary"]
    assert summary["jarque_bera"] is None and summary["p_value"] is None
    assert isinstance(summary["std"], float)


@pytest.mark.parametrize("args", [
    ["fit-lognormal", "--years", "2007"],
    ["gen-null", "--year", "2007", "--model", "log-normal"],
    ["knockout", "--years", "2007", "--strategy", "error", "--trials", "3", "--model", "log-normal"],
    ["ci-table", "--years", "2007", "--models", "log-normal", "--samples", "100"],
])
def test_overflowing_correction_exits_1_before_writing(fixture_data_dir, capsys, args):
    """1.7e308 is a finite --correction, but times the fixture's sigma
    (about 1.4) it overflows: the fit fails before any draw or output."""
    rc, out = run(args + ["--correction", "1.7e308"], fixture_data_dir, f"overflow_{args[0]}.out")
    assert rc == 1
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_ci_table_matches_golden(fixture_data_dir):
    rc, out = run(
        ["ci-table", "--years", "2006-2007", "--rules", "B", "--models", "rewiring",
         "--samples", "150", "--seed", "4242"],
        fixture_data_dir,
        "ci.csv",
    )
    assert rc == 0
    assert out.read_bytes() == (DATA_DIR / "golden_ci_rewiring_B.csv").read_bytes()


@pytest.mark.parametrize("args, golden", [
    (["lgd-sweep", "--years", "2006-2007", "--k-max", "3", "--ranking-out", "-"],
     "golden_lgd_sweep.csv"),
    (["pigs-grid", "--year", "2007", "--group", "AAA,BBB,CCC,DDD",
      "--d1-points", "11", "--d2-points", "11"],
     "golden_pigs_grid.csv"),
    (["build", "--year", "2007"], "golden_build.csv"),
    (["export", "--year", "2007", "--format", "dot"], "golden_export.dot"),
    (["gen-null", "--year", "2007", "--model", "er", "--count", "3"], "golden_gen_null_er.csv"),
    (["knockout", "--years", "2006-2007", "--strategy", "attack", "--model", "er", "--trials", "5"],
     "golden_knockout_er.csv"),
    (["knockout", "--years", "2006-2007", "--strategy", "attack", "--model", "er", "--trials", "5",
      "--format", "json"],
     "golden_knockout_er.json"),
    (["lgd", "--year", "2007", "--initial", "AAA,BBB", "--d1", "0.1", "--d2", "0.1"], "golden_lgd.json"),
    (["fit-lognormal", "--years", "2006-2007"], "golden_fit_lognormal.json"),
    (["fit-lognormal", "--years", "2006-2007", "--pooled"], "golden_fit_lognormal_pooled.json"),
    (["gen-null", "--year", "2007", "--model", "rewiring", "--count", "3"], "golden_gen_null_rewiring.csv"),
    (["export", "--year", "2007", "--format", "edge-list"], "golden_export_edge_list.csv"),
])
def test_commands_match_golden(fixture_data_dir, capsysbinary, args, golden):
    rc = main(args + [
        "--assets", str(fixture_data_dir / "assets.csv"),
        "--gdp", str(fixture_data_dir / "gdp.csv"),
        "--out", "-",
    ])
    assert rc == 0
    assert capsysbinary.readouterr().out == (DATA_DIR / golden).read_bytes()


def leading_meta(text, prefix):
    """The `prefix key=value` lines an output starts with, as a dict of strings."""
    meta = {}
    for line in text.splitlines():
        if not line.startswith(prefix + " "):
            break
        key, value = line[len(prefix) + 1:].split("=", 1)
        meta[key] = value
    return meta


@pytest.mark.parametrize("args, writer", [
    (["build", "--year", "2007"], "#"),
    (["export", "--year", "2007", "--format", "dot"], "//"),
    (["fit-lognormal", "--years", "2006-2007"], "json"),
    (["gen-null", "--year", "2007", "--model", "er"], "#"),
    (["knockout", "--years", "2006-2007", "--strategy", "attack", "--trials", "2", "--format", "json"], "json"),
    (["ci-table", "--years", "2006-2007", "--rules", "A,B", "--models", "er,rewiring", "--samples", "100",
      "--format", "json"], "json"),
    (["lgd", "--year", "2007", "--initial", "AAA", "--d1", "0.1", "--d2", "0.1"], "json"),
    (["lgd-sweep", "--years", "2006-2007", "--k-max", "1", "--d1-grid", "0.1,0.2", "--d2-grid", "0.1"], "#"),
    (["pigs-grid", "--year", "2007", "--group", "AAA,BBB", "--d1-points", "2", "--d2-points", "2"], "#"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_every_output_starts_with_the_shared_head(fixture_data_dir, tmp_path, args, writer):
    """Each command's record starts finnet, command, seed, then year or
    years; JSON keeps a list as an array, a header writes it comma-separated."""
    out = tmp_path / "out"
    assert main(args + inputs(fixture_data_dir) + ["--out", str(out)]) == 0
    text = out.read_text()
    meta = strict_json(text)["meta"] if writer == "json" else leading_meta(text, writer)
    span = "years" if "--years" in args else "year"
    assert list(meta)[:4] == ["finnet", "command", "seed", span]
    assert meta["command"] == args[0]
    assert str(meta["seed"]) == "12345"
    if writer == "json":
        assert meta[span] == ([2006, 2007] if span == "years" else 2007)
        for key in ("rules", "models"):
            if key in meta:
                assert meta[key] == args[args.index(f"--{key}") + 1].split(",")
        assert not [v for v in meta.values() if isinstance(v, str) and "," in v]
    else:
        assert meta[span] == args[2].replace("2006-2007", "2006,2007")


def test_sweep_record_holds_the_parsed_grids_not_their_spelling(fixture_data_dir, tmp_path):
    outputs = []
    for d1_grid in (".1,0.2", "0.1,0.2", "1e-1,2e-1"):
        out = tmp_path / "sweep.csv"
        args = ["lgd-sweep", "--years", "2007", "--k-max", "1", "--d1-grid", d1_grid, "--d2-grid", "0.10"]
        assert main(args + inputs(fixture_data_dir) + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert leading_meta(outputs[0].decode(), "#")["d1_grid"] == "0.1,0.2"
    assert leading_meta(outputs[0].decode(), "#")["d2_grid"] == "0.1"


def test_ranking_head_is_the_sweep_head_with_its_command_and_top_n(fixture_data_dir, tmp_path):
    heads = []
    for top_n in ("1", "2"):
        out, ranking = tmp_path / f"sweep{top_n}.csv", tmp_path / f"ranking{top_n}.csv"
        args = ["lgd-sweep", "--years", "2007", "--k-max", "1", "--d2-grid", "0.1", "--top-n", top_n]
        assert main(args + inputs(fixture_data_dir) + ["--out", str(out), "--ranking-out", str(ranking)]) == 0
        sweep, head = leading_meta(out.read_text(), "#"), leading_meta(ranking.read_text(), "#")
        assert head == {**sweep, "command": "lgd-sweep/ranking", "top_n": top_n}
        assert list(head)[-2:] == ["haircut", "top_n"]
        heads.append(head)
    assert heads[0] != heads[1]


def test_jobs_above_the_usable_cpus_start_only_that_many_workers(fixture_data_dir, tmp_path, monkeypatch):
    """--jobs 1000 on a process that may use 3 CPUs opens one pool of 3
    workers and cuts the lone cell into 3 tasks; the output is unchanged."""
    import finnet.knockout

    pools = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            pools.append({"max_workers": max_workers})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            pools[-1]["tasks"] = len(tasks)
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(finnet.knockout, "USABLE_CPUS", 3)
    outputs = []
    for jobs in ("1", "3", "1000"):
        out = tmp_path / f"jobs{jobs}.csv"
        args = ["ci-table", "--years", "2007", "--rules", "A", "--models", "er", "--samples", "100", "--jobs", jobs]
        assert main(args + inputs(fixture_data_dir) + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert pools == [{"max_workers": 3, "tasks": 3}] * 2
    assert outputs[0] == outputs[1] == outputs[2]


def test_pooled_fit_over_years_sharing_no_country_exits_1(tmp_path, capsys):
    """Years with disjoint countries fit one by one, but not pooled: the
    shared effects are not identified, so the fit fails before any output."""
    assets, gdp = ["year,holder,issuer,value_musd"], ["year,country,gdp_musd"]
    for year, codes in ((2006, ("AAA", "BBB", "CCC")), (2007, ("DDD", "EEE", "FFF"))):
        assets += [f"{year},{h},{i},{10 + 7 * k}" for k, (h, i) in enumerate(
            (h, i) for h in codes for i in codes if h != i)]
        gdp += [f"{year},{c},100" for c in codes]
    (tmp_path / "assets.csv").write_text("\n".join(assets) + "\n")
    (tmp_path / "gdp.csv").write_text("\n".join(gdp) + "\n")
    rc, _ = run(["fit-lognormal", "--years", "2006-2007"], tmp_path, "fits.json")
    assert rc == 0
    rc, out = run(["fit-lognormal", "--years", "2006-2007", "--pooled"], tmp_path, "pooled.json")
    assert rc == 1
    assert "design matrix rank deficient" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d1-max", "5"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d2-max", "nan"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d1-points", "0"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d2-points", "-1"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--haircut", "1.5"],
    ["lgd-sweep", "--years", "2007", "--d1-grid", "0", "--d2-grid", "0"],
    ["lgd-sweep", "--years", "2009-2001"],
    ["lgd-sweep", "--years", "2007", "--d1-grid", "nan"],
    ["lgd-sweep", "--years", "2007", "--d2-grid", "0.1,-0.1"],
    ["lgd-sweep", "--years", "2007", "--top-n", "0"],
    ["lgd", "--year", "2007", "--initial", "AAA", "--d1", "nan", "--d2", "0.1"],
    ["knockout", "--years", "2007-2006", "--strategy", "error"],
    ["knockout", "--years", "2007", "--strategy", "error", "--jobs", "0"],
    ["ci-table", "--years", "2007", "--jobs", "-1"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--jobs", "2"],
    ["build", "--year", "2007", "--rule", "B", "--t", "nan"],
    ["ci-table", "--years", "2007", "--t", "inf"],
    ["gen-null", "--year", "2007", "--model", "er", "--count", "-3"],
    ["knockout", "--years", "2007", "--strategy", "error", "--trials", "0"],
    ["gen-null", "--year", "2007", "--model", "rewiring", "--swap-factor", "0"],
    ["ci-table", "--years", "2007", "--samples", "99"],
    ["ci-table", "--years", "2007", "--alpha", "1"],
    ["fit-lognormal", "--years", "2007", "--correction", "nan"],
    ["knockout", "--years", "2007", "--strategy", "error", "--correction", "-1"],
    ["ci-table", "--years", "2007", "--rules", "C"],
    ["ci-table", "--years", "2007", "--rules", "A,A"],
    ["ci-table", "--years", "2007", "--models", "foo"],
    ["ci-table", "--years", "2007", "--models", "er,rewiring,er"],
    ["build", "--year", "2007", "--seed", "-1"],
    ["knockout", "--years", "2007", "--strategy", "error", "--trials", "3", "--seed", "-1"],
    ["gen-null", "--year", "2007", "--model", "er", "--seed", "-5"],
    ["ci-table", "--years", "2007", "--seed", "1.5"],
    ["ci-table", "--years", "2007,2007"],
    ["lgd-sweep", "--years", "2006-2007,2007"],
    ["knockout", "--years", "2006,2007,2006", "--strategy", "error", "--trials", "3"],
    ["fit-lognormal", "--years", "2007,2006-2007"],
    ["fit-lognormal", "--years", "2006-2007,2006-2007", "--pooled"],
    ["pigs-grid", "--year", "2007", "--group", "AAA,AAA"],
    ["pigs-grid", "--year", "2007", "--group", "AAA, "],
    ["pigs-grid", "--year", "2007", "--group", ""],
    ["lgd", "--year", "2007", "--initial", "AAA,,BBB", "--d1", "0.1", "--d2", "0.1"],
    ["lgd", "--year", "2007", "--initial", "AAA, AAA", "--d1", "0.1", "--d2", "0.1"],
    ["lgd-sweep", "--years", "2007", "--d1-grid", "0.25,0.25", "--d2-grid", "0.05"],
    ["lgd-sweep", "--years", "2007", "--d1-grid", "0.25,0.250", "--d2-grid", "0.05"],
    ["lgd-sweep", "--years", "2007", "--d2-grid", "0.1,0.2,1e-1"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d1-max", "0", "--d1-points", "3"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d2-max", "0.0", "--d2-points", "2"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d1-max", "1e-323", "--d1-points", "4"],
])
def test_bad_cascade_and_year_flags_exit_2(fixture_data_dir, tmp_path, args):
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as exc:
        main(args + inputs(fixture_data_dir) + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d1-max", "0", "--d1-points", "1"],
    ["pigs-grid", "--year", "2007", "--group", "AAA", "--d2-max", "1e-3", "--d2-points", "2"],
    ["lgd-sweep", "--years", "2007", "--d1-grid", "0.25,0.3", "--d2-grid", "0,0.05"],
])
def test_grids_without_repeated_points_reach_the_data(args):
    assert not exits_2_before_reading(args)


@given(text=st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=6)))
@settings(max_examples=200, deadline=None)
def test_threshold_flags_accept_exactly_what_lgdspec_accepts(text):
    parser = build_parser()
    for flag, field, dest in (("--d1-max", "d1", "d1_max"), ("--d2-max", "d2", "d2_max"),
                              ("--haircut", "haircut", "haircut")):
        argv = ["pigs-grid", "--year", "2007", "--group", "AAA", f"{flag}={text}"]
        try:
            value = float(text)
            LgdSpec(**{"d1": 0.0, "d2": 0.0, field: value})
        except ValueError:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
        else:
            assert getattr(parser.parse_args(argv), dest) == value


GRID_TEXTS = st.one_of(
    st.lists(st.sampled_from(["0", "0.0", "-0.0", "0.1", "1e-1", "0.25", "0.250", "1", "1.5", "-0.1",
                              "nan", "inf", "", "x", " 0.5"]), min_size=1, max_size=3).map(",".join),
    st.text(max_size=4),
)


@given(d1_grid=GRID_TEXTS, d2_grid=GRID_TEXTS)
@example(d1_grid="", d2_grid="--")  # argparse hands over --d2-grid=-- as an empty list
@example(d1_grid="--", d2_grid="0.1")
@settings(max_examples=200, deadline=None)
def test_grid_flags_exit_2_exactly_when_sweep_grid_raises(d1_grid, d2_grid):
    try:
        sweep_grid(hand_slice(), d1_grid.split(","), d2_grid.split(","), k_max=1)
    except ValueError:
        rejected = True
    else:
        rejected = False
    argv = ["lgd-sweep", "--years", "2007", f"--d1-grid={d1_grid}", f"--d2-grid={d2_grid}", "--k-max", "1"]
    assert exits_2_before_reading(argv) == rejected


YEAR_LIST_COMMANDS = (
    ["fit-lognormal"],
    ["knockout", "--strategy", "error"],
    ["ci-table"],
    ["lgd-sweep"],
)


@st.composite
def year_lists(draw):
    """A --years value from entries that are a year, a range (possibly
    reversed) or junk, each maybe padded; returns the text and the years it
    names, or None when it must be rejected."""
    entries = draw(st.lists(st.one_of(
        st.integers(2000, 2006).map(lambda y: (str(y), [y])),
        st.tuples(st.integers(2000, 2006), st.integers(2000, 2006)).map(
            lambda r: (f"{r[0]}-{r[1]}", list(range(r[0], r[1] + 1)) if r[0] <= r[1] else None)),
        st.sampled_from(["", " ", "x", "-", "2007-", "20.07", "2006-x"]).map(lambda j: (j, None)),
    ), min_size=1, max_size=4))
    pads = draw(st.lists(st.sampled_from(["", " "]), min_size=len(entries), max_size=len(entries)))
    text = ",".join(pad + entry + pad for (entry, _), pad in zip(entries, pads))
    if any(years is None for _, years in entries):
        return text, None
    years = [y for _, entry_years in entries for y in entry_years]
    return text, years if len(set(years)) == len(years) else None


@st.composite
def name_lists(draw):
    """A --group/--initial value and its names, or None when one is empty or repeated."""
    entries = draw(st.lists(st.sampled_from(["AAA", "BBB", "C C", "", " "]), min_size=1, max_size=4))
    pads = draw(st.lists(st.sampled_from(["", " "]), min_size=len(entries), max_size=len(entries)))
    text = ",".join(pad + entry + pad for entry, pad in zip(entries, pads))
    names = [entry.strip() for entry in entries]
    return text, names if "" not in names and len(set(names)) == len(names) else None


def exits_2_before_reading(argv) -> bool:
    """Whether main stops with a usage error; when it does not, it must get
    as far as reading the (missing) input files."""
    argv = argv + ["--assets", "/nonexistent/assets.csv", "--gdp", "/nonexistent/gdp.csv"]
    try:
        rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return True
    assert rc == 1
    return False


@given(value=year_lists())
@settings(max_examples=200, deadline=None)
def test_years_flag_rejects_exactly_malformed_empty_or_repeated(value):
    text, years = value
    parser = build_parser()
    for command in YEAR_LIST_COMMANDS:
        argv = command + [f"--years={text}"]
        assert exits_2_before_reading(argv) == (years is None)
        if years is not None:
            assert parser.parse_args(argv).years == years


@given(value=name_lists())
@settings(max_examples=200, deadline=None)
def test_group_and_initial_flags_reject_exactly_empty_or_repeated_names(value):
    text, names = value
    parser = build_parser()
    for argv, dest in ((["pigs-grid", "--year", "2007", f"--group={text}"], "group"),
                       (["lgd", "--year", "2007", f"--initial={text}", "--d1", "0.1", "--d2", "0.1"],
                        "initial")):
        assert exits_2_before_reading(argv) == (names is None)
        if names is not None:
            assert getattr(parser.parse_args(argv), dest) == names


class Accepted(Exception):
    """Raised by StubSpec once ci_compare has accepted its arguments."""


class StubSpec:
    kind = "er"

    def sample(self, index):
        raise Accepted


def ci_compare_accepts(samples=100, alpha=0.05):
    with pytest.raises(Accepted):
        ci_compare([(measure_vector(complete_net(3)), StubSpec())], samples, alpha)


def null_specs_accept(models):
    slice_ = random_slice(6, np.random.default_rng(0))
    for model in models:
        _null_spec(model, slice_, ThresholdRule("A"), 0, DEFAULT_SWAP_FACTOR, DEFAULT_SIGMA_CORRECTION)


KNOCKOUT = ["knockout", "--years", "2007", "--strategy", "error"]
CI_TABLE = ["ci-table", "--years", "2007"]
integer_texts = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(["", " 7", "+3", "1_000", "1e3", "0x10", "2.0", "nan", "\u0663"]),
    st.text(max_size=4),
)
name_texts = st.one_of(
    st.lists(st.sampled_from(["A", "B", "C", "er", "rewiring", "log-normal", "out-degree", "in-degree",
                              "all", "", " A"]), min_size=1, max_size=4).map(",".join),
    st.text(max_size=6),
)
# Each flag: the commands it appears on, its values, and the library call it
# feeds, which must accept every value the parser lets through. Trials stay
# small because the library derives one seed per trial before running any.
NUMERIC_AND_LIST_FLAGS = {
    "--jobs": ([KNOCKOUT, CI_TABLE], integer_texts,
               lambda jobs: ensemble_knockout([complete_net(3)], "error", 1, 0, jobs=jobs)),
    "--seed": ([KNOCKOUT, CI_TABLE, ["build", "--year", "2007"]], integer_texts,
               lambda seed: (child_seed(seed, 0), ensemble_knockout([complete_net(3)], "error", 1, seed))),
    "--samples": ([CI_TABLE], integer_texts, lambda samples: ci_compare_accepts(samples=samples)),
    "--trials": ([KNOCKOUT], st.one_of(st.integers(-5, 40).map(str), st.text(max_size=4)),
                 lambda trials: ensemble_knockout([complete_net(3)], "error", trials, 0)),
    "--alpha": ([CI_TABLE], st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=4)),
                lambda alpha: ci_compare_accepts(alpha=alpha)),
    "--rules": ([CI_TABLE], name_texts, lambda rules: [ThresholdRule(r) for r in rules]),
    "--models": ([CI_TABLE], name_texts, null_specs_accept),
}


@pytest.mark.parametrize("flag", sorted(NUMERIC_AND_LIST_FLAGS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_numeric_and_list_flags_exit_2_or_feed_the_library(flag, data):
    commands, texts, library_call = NUMERIC_AND_LIST_FLAGS[flag]
    text = data.draw(texts)
    for command in commands:
        argv = command + [f"{flag}={text}"]
        if not exits_2_before_reading(argv):
            library_call(getattr(build_parser().parse_args(argv), flag[2:]))


def test_repeat_runs_byte_identical(fixture_data_dir):
    for args, name in [
        (["build", "--year", "2007", "--rule", "A"], "det_build.csv"),
        (["knockout", "--years", "2007", "--rule", "B", "--strategy", "attack", "--trials", "20"], "det_ko.csv"),
        (["gen-null", "--year", "2006", "--rule", "A", "--model", "rewiring", "--count", "2"], "det_gn.csv"),
    ]:
        rc1, out = run(args, fixture_data_dir, name)
        first = out.read_bytes()
        rc2, out = run(args, fixture_data_dir, name)
        assert rc1 == rc2 == 0
        assert out.read_bytes() == first


@pytest.mark.parametrize("args", [
    ["ci-table", "--years", "2006,2007", "--rules", "A,B", "--models", "er,rewiring,log-normal", "--samples", "100"],
    # One cell: fewer sources than workers, so its samples are split between tasks.
    ["ci-table", "--years", "2007", "--rules", "B", "--models", "rewiring", "--samples", "100"],
    # Cells of more than SPEC_BLOCK samples: each spec goes out in several ranges.
    ["ci-table", "--years", "2007", "--rules", "A", "--models", "er,out-degree", "--samples", "1001"],
    ["knockout", "--years", "2006,2007", "--rule", "A", "--strategy", "attack", "--trials", "5"],
    ["knockout", "--years", "2007", "--rule", "B", "--strategy", "error", "--model", "er", "--trials", "5"],
])
def test_outputs_match_across_jobs(fixture_data_dir, tmp_path, monkeypatch, args):
    import finnet.knockout

    calls = []
    run_tasks = finnet.knockout.run_tasks
    monkeypatch.setattr(finnet.knockout, "run_tasks", lambda *a: calls.append(a) or run_tasks(*a))
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}.csv"
        calls.clear()
        assert main(args + inputs(fixture_data_dir) + ["--out", str(out), "--jobs", str(jobs)]) == 0
        assert len(calls) == 1  # one task list per run, so at most one worker pool
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_env_data_dir_resolution(fixture_data_dir, monkeypatch):
    monkeypatch.setenv("FINNET_DATA_DIR", str(fixture_data_dir))
    out = fixture_data_dir / "env.csv"
    rc = main(["build", "--year", "2007", "--rule", "A", "--out", str(out)])
    assert rc == 0
    assert out.exists()


@pytest.mark.parametrize("args", [
    ["build", "--year", "2099"],
    ["fit-lognormal", "--years", "2006,2099"],
    ["knockout", "--years", "2006,2099", "--strategy", "attack", "--trials", "3"],
    ["ci-table", "--years", "2006,2099", "--samples", "100"],
    ["lgd-sweep", "--years", "2006,2099"],
    ["export", "--year", "2099"],
    ["gen-null", "--year", "2099", "--model", "er"],
    ["lgd", "--year", "2099", "--initial", "AAA", "--d1", "0.1", "--d2", "0.1"],
    ["pigs-grid", "--year", "2099", "--group", "AAA"],
])
def test_missing_year_exits_1_before_any_work(fixture_data_dir, tmp_path, monkeypatch, capsys, args):
    def no_work(*_, **__):
        raise AssertionError("work started before every year was read")

    for name in ("ThresholdRule", "fit_lognormal", "fit_lognormal_pooled", "sweep_grid", "cascade", "fine_grid"):
        monkeypatch.setattr(f"finnet.cli.{name}", no_work)
    out = tmp_path / "out.csv"
    assert main(args + inputs(fixture_data_dir) + ["--out", str(out)]) == 1
    assert "year 2099" in capsys.readouterr().err
    assert not out.exists()


def test_no_paths_and_no_env_is_data_error(monkeypatch, capsys, fixture_data_dir):
    monkeypatch.delenv("FINNET_DATA_DIR", raising=False)
    rc = main(["build", "--year", "2007", "--rule", "A", "--out", str(fixture_data_dir / "z.csv")])
    assert rc == 1
    assert "FINNET_DATA_DIR" in capsys.readouterr().err


def test_stdin_asset_input(fixture_data_dir, monkeypatch, capsys):
    data = (fixture_data_dir / "assets.csv").read_bytes()
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(data)))
    out = fixture_data_dir / "stdin.csv"
    rc = main([
        "build", "--year", "2007", "--rule", "A",
        "--assets", "-", "--gdp", str(fixture_data_dir / "gdp.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    assert "holder,issuer" in out.read_text()
    both = fixture_data_dir / "both.csv"
    assert main(["build", "--year", "2007", "--assets", "-", "--gdp", "-", "--out", str(both)]) == 1
    assert "only one of assets/gdp can come from standard input" in capsys.readouterr().err
    assert not both.exists()


def test_stdout_output(fixture_data_dir, capsysbinary):
    rc = main([
        "lgd", "--year", "2007", "--initial", "AAA", "--d1", "0.5", "--d2", "0.5",
        "--assets", str(fixture_data_dir / "assets.csv"),
        "--gdp", str(fixture_data_dir / "gdp.csv"),
        "--out", "-",
    ])
    assert rc == 0
    doc = strict_json(capsysbinary.readouterr().out)
    assert doc["cascade"]["defaulted"] == ["AAA"]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py monkeypatches the names it wraps; a fresh process keeps that out of this one.
    root = Path(__file__).resolve().parent.parent
    code = "import tracer; tracer.install(tracer.Tracer())"
    path = os.pathsep.join(filter(None, [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_benchmark_tracer_spans_every_draw_and_trace(fixture_data_dir, tmp_path):
    """perfbench/tracer.py, run on small ci-table and knockout commands, sees
    one span per null draw, per child generator, per measured network and
    per attack trace, so a fast path that bypasses the traced names fails here."""
    root = Path(__file__).resolve().parent.parent
    io_args = ["--assets", str(fixture_data_dir / "assets.csv"), "--gdp", str(fixture_data_dir / "gdp.csv")]
    years, rules, samples, trials = ("2006", "2007"), ("A", "B"), 100, 7
    runs = [
        {"id": "ci", "argv": ["ci-table", *io_args, "--out", str(tmp_path / "ci.csv"), "--years", ",".join(years),
                              "--rules", ",".join(rules), "--models", "all", "--samples", str(samples)]},
        {"id": "ko", "argv": ["knockout", *io_args, "--out", str(tmp_path / "ko.csv"), "--years", ",".join(years),
                              "--rule", "A", "--strategy", "attack", "--trials", str(trials)]},
    ]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"runs": runs, "out": str(tmp_path / "trace.json")}))
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), str(job)],
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["codes"] == {"ci": 0, "ko": 0}
    spans = trace["spans"]
    counts = {}
    for name, _, _, _, run in spans:
        counts[run, name] = counts.get((run, name), 0) + 1
    cells = len(years) * len(rules)
    for kind in ("er", "out-degree", "in-degree", "rewiring", "log-normal"):
        assert counts["ci", f"nullmodels.sample.{kind}"] == cells * samples
    draws = 5 * cells * samples
    assert counts["ci", "seeding.child_rng"] == draws
    assert all(spans[parent][0].startswith("nullmodels.sample.")
               for name, _, _, parent, _ in spans if name == "seeding.child_rng")
    # One measured network per draw, plus each (year, rule)'s empirical network.
    assert counts["ci", "metrics.measure_vector"] == draws + cells
    assert counts["ko", "knockout.trace.attack"] == len(years) * trials


def test_benchmark_setup_probe_reads_a_benchmark_panel(tmp_path, monkeypatch):
    # The probe perfbench/run.py times as setup_s: import, parse both files, cut each year's slice.
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from panel import YEARS, core_size, write
    from run import SETUP_CODE

    from finnet.ingest import read_asset_file

    assets, gdp = write(1, tmp_path)
    years = ",".join(map(str, YEARS))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", SETUP_CODE, str(assets), str(gdp), years], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    info = json.loads(result.stdout)
    assert Path(info["module"]).resolve().is_relative_to(root / "src")
    assert info["n"] == {str(year): core_size(year) for year in YEARS}
    data_rows = assets.read_text().count("\n") - 1
    assert len(read_asset_file(str(assets))) == data_rows


@pytest.mark.parametrize("name", ["lgd-sweep", "pigs-grid"])
def test_benchmark_cascade_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    # The benchmark's cascade commands on its seed-1 panel give the bytes perfbench/baseline.json records.
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import hashlib

    import workloads
    from panel import write

    recorded = json.loads((root / "perfbench" / "baseline.json").read_text())["digests"][name]["1"]
    assets, gdp = write(1, tmp_path)
    out = tmp_path / "out.csv"
    assert main(workloads.argv(name, workloads.FULL, str(assets), str(gdp), str(out))) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded


def test_non_utf8_input_exits_1_naming_line_and_byte(fixture_data_dir, tmp_path, capsys):
    data = (fixture_data_dir / "assets.csv").read_bytes()
    at = data.index(b"2007,BBB,")
    bad = tmp_path / "assets.csv"
    bad.write_bytes(data[:at] + b"2007,B\xe9B," + data[at + len(b"2007,BBB,"):])
    rc = main(["build", "--year", "2007", "--assets", str(bad), "--gdp", str(fixture_data_dir / "gdp.csv"),
               "--out", str(tmp_path / "net.csv")])
    assert rc == 1
    line = data[:at].count(b"\n") + 1
    assert capsys.readouterr().err == f"error: line {line}: byte 0xe9 is not UTF-8\n"


def test_byte_order_marks_leave_the_output_unchanged(fixture_data_dir, tmp_path):
    for name in ("assets.csv", "gdp.csv"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (fixture_data_dir / name).read_bytes())
    args = ["build", "--year", "2007", "--rule", "B"]
    assert run(args, fixture_data_dir, "plain.csv")[0] == 0
    assert run(args, tmp_path, "marked.csv")[0] == 0
    assert (tmp_path / "marked.csv").read_bytes() == (fixture_data_dir / "plain.csv").read_bytes()


REQUIRED_VALUES = {"--year": "2007", "--years": "2007", "--strategy": "error", "--model": "er",
                   "--initial": "AAA", "--d1": "0.1", "--d2": "0.1", "--group": "AAA"}


def value_flags():
    """(command, flag, required flags) for every option of every subcommand
    that takes one value."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and action.nargs is None:
                required = [a.option_strings[0] for a in parser._actions if a.required]
                yield command, action.option_strings[0], required


@pytest.mark.parametrize("command, flag, required", list(value_flags()),
                         ids=[f"{c} {f}" for c, f, _ in value_flags()])
def test_flag_given_double_dash_exits_2_naming_it(command, flag, required, capsys):
    """argparse hands over the value of --flag=-- as an empty list without
    calling the flag's type; every such flag is a usage error naming it,
    also when it repeats a required flag, whose last value counts."""
    argv = [command] + [f"{other}={REQUIRED_VALUES[other]}" for other in required]
    assert not exits_2_before_reading(argv)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{flag}=--"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected one value" in capsys.readouterr().err


def test_every_option_of_every_command_has_a_help_text():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        for action in parser._actions:
            assert action.help, (command, action.option_strings)
            assert parser.formatter_class(command)._expand_help(action).strip(), (command, action.option_strings)


def test_a_flag_shared_by_commands_has_one_help_text():
    """Every command that adds a flag gives it the same --help text; only
    --samples differs, since knockout's is unused and only echoed."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {}
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                helps.setdefault(flag, {})[command] = action.help
    for flag, by_command in helps.items():
        if flag != "--samples":
            assert len(set(by_command.values())) == 1, (flag, by_command)
    for flag in ("--t", "--correction", "--swap-factor", "--jobs"):
        assert len(helps[flag]) > 1 and None not in helps[flag].values(), flag
