"""Seeded synthetic asset/GDP panel in the README's CSV format.

Positions follow the model the null-model layer fits to reported data:
ln(s_ij + 1) = alpha_i + beta_j + eps, censored below 0.5 and rounded to
whole millions, with holder effects that drift a little from year to
year.

The economy is the same for every seed: the country effects, GDP, drift
and a base noise field come from the fixed STRUCTURE_SEED, and every year
has a fixed number of reporting holders and of reporters without GDP, so
the core-slice size n of each year is fixed too. The run seed draws the
reporting noise on top of the base field and picks which holders join late
and which lack GDP. Seeds therefore give different panels (and different
output bytes) that carry about the same amount of work: with the
country effects drawn per seed, the cascade work of pigs-grid varied by
more than a factor of two from seed to seed, and with a reporting noise
of 0.3 (log scale) its cascade rounds still varied by 8% (107k to 116k
over seeds 1-8), about as much as the benchmark's timing noise. At 0.05
they vary by 1.6% (110.7k to 112.5k).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

YEARS = tuple(range(2001, 2010))
GROUP = ("ESP", "GRC", "IRL", "ITA", "PRT")
NUM_HOLDERS = 62
NUM_ISSUER_ONLY = 20
# Holders reporting in each year; the difference to NUM_HOLDERS joins late.
REPORTERS = (56, 57, 57, 58, 59, 60, 60, 61, 62)
# Reporters without a GDP entry in each year (they fall out of the core slice).
NO_GDP = (2, 1, 2, 1, 2, 1, 2, 1, 2)
CENSOR_FLOOR = 0.5
SIGMA = 1.6
REPORTING_NOISE = 0.05
STRUCTURE_SEED = 2


def core_size(year: int) -> int:
    """Countries in the year's core slice: reporters that have GDP."""
    k = YEARS.index(year)
    return REPORTERS[k] - NO_GDP[k]


def holder_codes() -> tuple[str, ...]:
    return GROUP + tuple(f"H{i:02d}" for i in range(NUM_HOLDERS - len(GROUP)))


def issuer_only_codes() -> tuple[str, ...]:
    return tuple(f"X{i:02d}" for i in range(NUM_ISSUER_ONLY))


def generate(seed: int) -> tuple[str, str]:
    """Return (assets_csv, gdp_csv) text for one seed."""
    rng = np.random.default_rng(seed)
    holders = holder_codes()
    issuers = holders + issuer_only_codes()
    h, m = len(holders), len(issuers)
    # Group members always report with GDP so the pigs-grid group exists.
    others = np.arange(len(GROUP), h)
    late = rng.permutation(others)[: h - REPORTERS[0]]
    join_year = np.full(h, YEARS[0])
    # late[i] joins in the first year whose reporter count exceeds REPORTERS[0] + i.
    for i, holder in enumerate(late):
        join_year[holder] = next(y for y, r in zip(YEARS, REPORTERS) if r > REPORTERS[0] + i)
    structure = np.random.default_rng(STRUCTURE_SEED)
    alpha = structure.normal(3.0, 1.0, size=h)
    beta = structure.normal(0.0, 1.2, size=m)
    log_gdp = alpha + structure.normal(6.0, 0.5, size=h)
    asset_lines = ["year,holder,issuer,value_musd"]
    gdp_lines = ["year,country,gdp_musd"]
    for k, year in enumerate(YEARS):
        alpha = alpha + structure.normal(0.03, 0.05, size=h)
        log_gdp = log_gdp + structure.normal(0.04, 0.03, size=h)
        reporting = np.flatnonzero(join_year <= year)
        candidates = reporting[reporting >= len(GROUP)]
        no_gdp = set(rng.choice(candidates, size=NO_GDP[k], replace=False).tolist())
        eps = structure.normal(0.0, SIGMA, size=(h, m)) + rng.normal(0.0, REPORTING_NOISE, size=(h, m))
        raw = np.expm1(alpha[:, None] + beta[None, :] + eps)
        values = np.rint(np.where(raw < CENSOR_FLOOR, 0.0, raw))
        for i in reporting:
            for j in np.flatnonzero(values[i] > 0):
                if j != i:
                    asset_lines.append(f"{year},{holders[i]},{issuers[j]},{int(values[i, j])}")
        for i in range(h):
            if i not in no_gdp:
                gdp_lines.append(f"{year},{holders[i]},{int(np.rint(np.exp(log_gdp[i])))}")
    return "\n".join(asset_lines) + "\n", "\n".join(gdp_lines) + "\n"


def write(seed: int, directory: Path) -> tuple[Path, Path]:
    """Write assets.csv and gdp.csv for one seed into a directory."""
    assets_text, gdp_text = generate(seed)
    assets, gdp = directory / "assets.csv", directory / "gdp.csv"
    assets.write_text(assets_text)
    gdp.write_text(gdp_text)
    return assets, gdp
