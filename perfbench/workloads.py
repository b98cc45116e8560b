"""The four paper workloads: their finnet command lines, work counts and output checks.

Each workload is one `finnet` subcommand run as a fresh process on the
synthetic panel. ``FULL`` holds the sizes the benchmark measures;
``PROBE`` holds small sizes of the same commands, which the traced run
uses to measure layers that a workload's own command never calls (and
which the benchmark's tests use as tiny workloads).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations

import panel

NAMES = ("ci-table", "knockout", "lgd-sweep", "pigs-grid")
NUM_MEASURES = 6
NUM_MODELS = 5


@dataclass(frozen=True)
class Sizes:
    ci_years: tuple[int, ...]
    ci_rules: tuple[str, ...]
    ci_samples: int
    ko_years: tuple[int, ...]
    ko_trials: int
    ko_jobs: int
    lgd_year: int
    lgd_d1: tuple[float, ...]
    lgd_d2: tuple[float, ...]
    lgd_k_max: int
    pigs_year: int
    pigs_group: tuple[str, ...]
    pigs_points: int


FULL = Sizes(
    ci_years=(2008, 2009), ci_rules=("A", "B"), ci_samples=100,
    ko_years=panel.YEARS, ko_trials=100, ko_jobs=2,
    # d = 0.05 cascades through most of the slice, d1 = 0.25 stays quiet.
    lgd_year=2009, lgd_d1=(0.05, 0.25), lgd_d2=(0.05,), lgd_k_max=3,
    pigs_year=2009, pigs_group=panel.GROUP, pigs_points=51,
)

PROBE = Sizes(
    ci_years=(2009,), ci_rules=("A", "B"), ci_samples=100,
    ko_years=(2009,), ko_trials=20, ko_jobs=2,
    lgd_year=2009, lgd_d1=(0.05,), lgd_d2=(0.05,), lgd_k_max=1,
    pigs_year=2009, pigs_group=panel.GROUP[:2], pigs_points=11,
)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def argv(name: str, sizes: Sizes, assets: str, gdp: str, out: str, jobs: int | None = None) -> list[str]:
    """finnet arguments (after the program) for one workload command."""
    io_args = ["--assets", assets, "--gdp", gdp, "--out", out]
    if name == "ci-table":
        return ["ci-table", *io_args, "--years", _csv(sizes.ci_years), "--rules", _csv(sizes.ci_rules),
                "--models", "all", "--samples", str(sizes.ci_samples), "--jobs", "1"]
    if name == "knockout":
        return ["knockout", *io_args, "--years", _csv(sizes.ko_years), "--rule", "A",
                "--strategy", "attack", "--trials", str(sizes.ko_trials),
                "--jobs", str(sizes.ko_jobs if jobs is None else jobs)]
    if name == "lgd-sweep":
        return ["lgd-sweep", *io_args, "--years", str(sizes.lgd_year), "--k-max", str(sizes.lgd_k_max),
                "--d1-grid", _csv(sizes.lgd_d1), "--d2-grid", _csv(sizes.lgd_d2)]
    if name == "pigs-grid":
        return ["pigs-grid", *io_args, "--year", str(sizes.pigs_year), "--group", _csv(sizes.pigs_group),
                "--d1-points", str(sizes.pigs_points), "--d2-points", str(sizes.pigs_points)]
    raise ValueError(f"unknown workload {name!r}")


def years(name: str, sizes: Sizes) -> tuple[int, ...]:
    """Years whose core slices the command builds (its set-up work)."""
    return {
        "ci-table": sizes.ci_years,
        "knockout": sizes.ko_years,
        "lgd-sweep": (sizes.lgd_year,),
        "pigs-grid": (sizes.pigs_year,),
    }[name]


def _lgd_specs(sizes: Sizes) -> int:
    return sum(1 for d1 in sizes.lgd_d1 for d2 in sizes.lgd_d2 if (d1, d2) != (0.0, 0.0))


def _subsets(group: tuple[str, ...]) -> int:
    return sum(math.comb(len(group), k) for k in range(1, min(3, len(group)) + 1))


def items(name: str, sizes: Sizes) -> int:
    """Fixed work of one command run: null networks, traces or cascade runs."""
    if name == "ci-table":
        return sizes.ci_samples * NUM_MODELS * len(sizes.ci_rules) * len(sizes.ci_years)
    if name == "knockout":
        return sizes.ko_trials * len(sizes.ko_years)
    if name == "lgd-sweep":
        n = panel.core_size(sizes.lgd_year)
        return _lgd_specs(sizes) * sum(math.comb(n, k) for k in range(1, sizes.lgd_k_max + 1))
    if name == "pigs-grid":
        return _subsets(sizes.pigs_group) * sizes.pigs_points ** 2
    raise ValueError(f"unknown workload {name!r}")


def _table(payload: bytes, command: str) -> tuple[list[str], list[list[str]]]:
    text = payload.decode("utf-8")
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    if f"# command={command}" not in header:
        raise ValueError(f"missing '# command={command}' header")
    rows = list(csv.reader(io.StringIO("\n".join(line for line in lines if not line.startswith("#")))))
    return rows[0], rows[1:]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def check_output(name: str, sizes: Sizes, payload: bytes) -> None:
    """Raise ValueError unless the output has the shape and invariants the command guarantees."""
    columns, rows = _table(payload, name)
    if name == "ci-table":
        _expect(columns[:3] == ["measure", "model", "rule"], f"columns {columns}")
        _expect(len(rows) == NUM_MEASURES * NUM_MODELS * len(sizes.ci_rules), f"{len(rows)} rows")
        for row in rows:
            below, within, above, undefined, nyears = (int(v) for v in row[4:9])
            _expect(below + within + above + undefined == nyears == len(sizes.ci_years), f"counts {row}")
            _expect(float(row[3]) == (above - below) / nyears, f"score {row}")
    elif name == "knockout":
        _expect(columns == ["grid_point", "mean", "std"], f"columns {columns}")
        _expect(len(rows) == 101, f"{len(rows)} rows")
        for k, (grid, mean, std) in enumerate(rows):
            _expect(abs(float(grid) - k / 100) < 1e-12, f"grid {grid}")
            _expect(1.0 <= float(mean) <= 4.0 and float(std) >= 0.0, f"curve {mean},{std}")
        _expect(float(rows[-1][1]) == 4.0, "single-node cap missing")
    elif name == "lgd-sweep":
        _expect(columns[:7] == ["year", "d1", "d2", "k", "mean", "worst5", "worst"], f"columns {columns}")
        _expect(len(rows) == _lgd_specs(sizes) * sizes.lgd_k_max, f"{len(rows)} rows")
        n = panel.core_size(sizes.lgd_year)
        for row in rows:
            k, mean, worst5, worst = int(row[3]), float(row[4]), float(row[5]), float(row[6])
            _expect(k / n <= mean <= worst5 <= worst <= 1.0, f"impacts {row}")
    elif name == "pigs-grid":
        _expect(columns == ["subset", "d1", "d2", "impact", "rounds"], f"columns {columns}")
        _expect(len(rows) == items(name, sizes), f"{len(rows)} rows")
        n = panel.core_size(sizes.pigs_year)
        subsets = ["+".join(c) for k in (1, 2, 3) for c in combinations(sorted(sizes.pigs_group), k)]
        _expect(sorted({row[0] for row in rows}) == sorted(subsets), "subset set")
        for row in rows:
            size = row[0].count("+") + 1
            _expect(size / n <= float(row[3]) <= 1.0 and int(row[4]) >= 0, f"cell {row}")
    else:
        raise ValueError(f"unknown workload {name!r}")
