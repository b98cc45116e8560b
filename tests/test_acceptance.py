"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with -s to see them inline).

Criterion 8 needs externally supplied bilateral asset and GDP files and
is skipped unless FINNET_REAL_DATA_DIR points at a directory holding
assets.csv and gdp.csv covering 2001-2009.
"""

import itertools
import math
import os

import numpy as np
import pytest
from scipy import stats

from finnet.cli import main
from finnet.ingest import AssetSlice, core_slice, read_asset_file, read_gdp_file
from finnet.knockout import ci_compare, ensemble_knockout
from finnet.lgd import COARSE_THRESHOLDS, LgdSpec, cascade, fine_grid, sweep_grid
from finnet.metrics import fraction_spl_le, measure_vector, modified_aspl
from finnet.netbuild import ThresholdRule
from finnet.nullmodels import (
    NullModelSpec,
    estimate_sigma_correction,
    fit_lognormal,
    jarque_bera,
)

from conftest import (
    chain_net,
    complete_net,
    degree_net,
    empty_net,
    load_scalefree64,
    net_from_adj,
    oracle_distance_counts,
    oracle_edge_transitivity,
    oracle_sequential_cascade,
    random_net,
    random_slice,
)


def _iter_all_graphs(n):
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(2 ** len(slots)):
        adj = np.zeros((n, n), dtype=bool)
        for b, (i, j) in enumerate(slots):
            adj[i, j] = bool(bits >> b & 1)
        yield adj


def _check_against_oracle(adj):
    net = net_from_adj(adj)
    c1, c2, c3, pairs = oracle_distance_counts(adj)
    expected_aspl = (c1 + 2 * c2 + 3 * c3 + 4.0 * (pairs - c1 - c2 - c3)) / pairs
    assert modified_aspl(net) == expected_aspl
    assert fraction_spl_le(net, 2) == (c1 + c2) / pairs
    assert fraction_spl_le(net, 3) == (c1 + c2 + c3) / pairs
    if net.n < 3:  # measure_vector needs 3 nodes for clustering
        return
    expected_trans = oracle_edge_transitivity(adj)
    value = measure_vector(net).edge_transitivity
    assert value == expected_trans or (math.isnan(value) and math.isnan(expected_trans))


def test_criterion_1_metrics_oracle_equivalence():
    checked = 0
    for n in (2, 3):
        for adj in _iter_all_graphs(n):
            _check_against_oracle(adj)
            checked += 1
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        adj = rng.integers(0, 2, size=(5, 5)).astype(bool)
        np.fill_diagonal(adj, False)
        _check_against_oracle(adj)
        checked += 1
    print(f"\n[criterion 1] PASS: exact oracle agreement on {checked} graphs")


def test_criterion_2_hand_values():
    assert modified_aspl(chain_net(3)) == pytest.approx(16.0 / 6.0, abs=1e-12)
    for n in (3, 4, 6):
        assert modified_aspl(complete_net(n)) == 1.0
        assert modified_aspl(empty_net(n)) == 4.0
    print("\n[criterion 2] PASS: chain 16/6, complete 1.0, empty 4.0")


def _gof_statistic(observed, trials, probabilities):
    active = (probabilities > 0) & (probabilities < 1)
    expected = trials * probabilities[active]
    variance = trials * probabilities[active] * (1 - probabilities[active])
    statistic = float((((observed[active] - expected) ** 2) / variance).sum())
    return statistic, int(active.sum())


def test_criterion_3_null_model_statistics():
    draws = 10_000
    alpha = 0.001

    def count_edges(kind, base, seed):
        spec = NullModelSpec(kind, seed, base)
        return sum(spec.sample(i).adj.astype(int) for i in range(draws))

    n, d_bar = 8, 3
    counts = count_edges("er", degree_net([d_bar] * n), 301)
    p = np.full((n, n), d_bar / (n - 1))
    np.fill_diagonal(p, 0.0)
    stat, dof = _gof_statistic(counts, draws, p)
    assert stat < stats.chi2.ppf(1 - alpha, dof)

    seq = np.arange(8)
    counts = count_edges("out-degree", degree_net(seq), 302)
    p = np.repeat((seq / 7)[:, None], 8, axis=1)
    np.fill_diagonal(p, 0.0)
    stat_out, dof = _gof_statistic(counts, draws, p)
    assert stat_out < stats.chi2.ppf(1 - alpha, dof)
    full_rows = counts[7, :7]
    assert np.all(full_rows == draws)  # p = 1 cells are deterministic

    counts = count_edges("in-degree", net_from_adj(degree_net(seq).adj.T), 303)
    p = np.repeat((seq / 7)[None, :], 8, axis=0)
    np.fill_diagonal(p, 0.0)
    stat_in, dof = _gof_statistic(counts, draws, p)
    assert stat_in < stats.chi2.ppf(1 - alpha, dof)

    rng = np.random.default_rng(304)
    for g in range(100):
        net = random_net(10, float(rng.uniform(0.1, 0.6)), rng)
        spec = NullModelSpec("rewiring", g, net)
        for i in range(10):
            rewired = spec.sample(i)
            assert np.array_equal(rewired.out_degrees(), net.out_degrees())
            assert np.array_equal(rewired.in_degrees(), net.in_degrees())
    print(f"\n[criterion 3] PASS: GOF stats (er={stat:.1f}, out={stat_out:.1f}, in={stat_in:.1f}) "
          f"below chi2 critical; degrees preserved on 100x10 rewirings")


def test_criterion_4_lognormal_recovery():
    n, sigma = 64, 1.5
    labels = tuple(f"C{i:02d}" for i in range(n))
    param_rng = np.random.default_rng(401)
    alpha = param_rng.normal(7.0, 0.5, n)
    beta = param_rng.normal(4.0, 0.5, n)
    mu = alpha[:, None] + beta[None, :]
    sigmas = []
    jb_passes = 0
    seeds = 100
    for seed in range(seeds):
        rng = np.random.default_rng(4000 + seed)
        s = np.expm1(mu + rng.normal(0.0, sigma, (n, n)))
        np.fill_diagonal(s, 0.0)
        assert (s >= 0).all()  # high means keep every draw uncensored
        fit = fit_lognormal(AssetSlice(2007, labels, s, np.ones(n), 1.0))
        sigmas.append(fit.sigma_raw)
        _, p = jarque_bera(fit.residuals)
        jb_passes += p > 0.01
    mean_sigma = float(np.mean(sigmas))
    assert abs(mean_sigma - sigma) / sigma < 0.02
    assert all(abs(v - sigma) / sigma < 0.05 for v in sigmas)
    assert jb_passes >= math.ceil(0.95 * seeds)

    cens_rng = np.random.default_rng(402)
    alpha_small = cens_rng.normal(0.7, 0.5, 32)
    beta_small = cens_rng.normal(0.3, 0.5, 32)
    censored_factor = estimate_sigma_correction(
        alpha_small, beta_small, sigma, censor_floor=0.5, trials=100,
        rng=np.random.default_rng(403), rounding=True,
    )
    assert censored_factor > 1.0
    clean_factor = estimate_sigma_correction(
        alpha[:32], beta[:32], sigma, censor_floor=0.0, trials=100,
        rng=np.random.default_rng(404), rounding=False,
    )
    assert abs(clean_factor - 1.0) <= 0.01
    print(f"\n[criterion 4] PASS: mean sigma {mean_sigma:.4f} (target 1.5), "
          f"JB pass rate {jb_passes}/{seeds}, censored factor {censored_factor:.3f} > 1, "
          f"clean factor {clean_factor:.4f}")


def test_criterion_5_robust_yet_fragile():
    net = load_scalefree64()
    trials = 2000
    attack = ensemble_knockout([net], "attack", trials, master_seed=501)
    error = ensemble_knockout([net], "error", trials, master_seed=502)
    point = 10  # the grid point after 10% of nodes removed
    diff = attack.mean[point] - error.mean[point]
    se = math.sqrt(attack.std[point] ** 2 / trials + error.std[point] ** 2 / trials)
    z = diff / max(se, 1e-12)
    assert z > stats.norm.ppf(0.99)
    print(f"\n[criterion 5] PASS: attack {attack.mean[point]:.3f} vs error {error.mean[point]:.3f} "
          f"at 10% removals, z = {z:.1f} (2000 trials each)")


def test_criterion_6_cascade_correctness():
    # the three-country hand example
    assets = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 30.0], [1.0, 1.0, 0.0]])
    slice_ = AssetSlice(2007, ("A", "B", "C"), assets, np.full(3, 100.0), 1.0)
    result = cascade(slice_, {"A"}, LgdSpec(0.1, 0.1))
    assert result.defaulted == {"A", "B"}
    assert result.rounds == (frozenset({"B"}),)
    assert result.impact == pytest.approx(2.0 / 3.0)

    rng = np.random.default_rng(601)
    for _ in range(1000):
        fixture = random_slice(int(rng.integers(3, 9)), rng)
        d1 = float(rng.uniform(0, 0.5))
        d2 = float(rng.uniform(0, 0.5))
        haircut = float(rng.choice([1.0, 0.5]))
        initial = set(rng.choice(fixture.countries, size=int(rng.integers(1, 3)), replace=False))
        synchronous = cascade(fixture, initial, LgdSpec(d1, d2, haircut)).defaulted
        assert synchronous == oracle_sequential_cascade(fixture, initial, d1, d2, haircut, rng)

    grid = (0.0, 0.1, 0.3, 0.6)
    for _ in range(30):
        fixture = random_slice(6, rng)
        initial = {fixture.countries[int(rng.integers(6))]}
        defaults = {
            (d1, d2): cascade(fixture, initial, LgdSpec(d1, d2)).defaulted
            for d1 in grid
            for d2 in grid
        }
        for (a1, a2), (b1, b2) in itertools.product(defaults, repeat=2):
            if a1 <= b1 and a2 <= b2:
                assert defaults[(b1, b2)] <= defaults[(a1, a2)]

    for haircut in (0.5, 0.25):
        for _ in range(100):
            fixture = random_slice(6, rng)
            d1 = float(rng.uniform(0, 0.2))
            d2 = float(rng.uniform(0, 0.2))
            initial = {fixture.countries[int(rng.integers(6))]}
            scaled = cascade(fixture, initial, LgdSpec(d1, d2, haircut))
            plain = cascade(fixture, initial, LgdSpec(d1 / haircut, d2 / haircut, 1.0))
            assert scaled.defaulted == plain.defaulted and scaled.rounds == plain.rounds
    print("\n[criterion 6] PASS: hand cascade exact; 1000 sequential-oracle matches; "
          "monotone in thresholds; haircut equivalence exact")


def test_criterion_7_sweep_shape():
    slice_ = random_slice(6, np.random.default_rng(701))
    summaries = sweep_grid(slice_, k_max=1)
    specs = {(s.spec.d1, s.spec.d2) for s in summaries}
    assert len(specs) == 24
    assert (0.0, 0.0) not in specs
    assert specs == {
        (d1, d2) for d1 in COARSE_THRESHOLDS for d2 in COARSE_THRESHOLDS
    } - {(0.0, 0.0)}
    cells = fine_grid(slice_, (slice_.countries[0],))
    assert len(cells) == 51 * 51
    print("\n[criterion 7] PASS: coarse sweep 24 specs, fine grid 51x51 per subset")


REAL_DATA = os.environ.get("FINNET_REAL_DATA_DIR")
PIGS_CODES = tuple(os.environ.get("FINNET_PIGS", "PRT,IRL,GRC,ESP").split(","))
GREECE_IRELAND = tuple(os.environ.get("FINNET_GR_IE", "GRC,IRL").split(","))


@pytest.mark.skipif(not REAL_DATA, reason="FINNET_REAL_DATA_DIR not set (data-conditional)")
def test_criterion_8_real_data_checks():
    assets = read_asset_file(os.path.join(REAL_DATA, "assets.csv"))
    gdp = read_gdp_file(os.path.join(REAL_DATA, "gdp.csv"))
    years = list(range(2001, 2010))
    slices = {year: core_slice(assets, gdp, year) for year in years}
    for year, slice_ in slices.items():
        assert slice_.n >= 64, f"{year}: n = {slice_.n}"
        assert slice_.coverage >= 0.974, f"{year}: coverage = {slice_.coverage}"

    # edge transitivity above the 95% interval of all five families, with at
    # most one deviating year per (model, rule) cell
    for rule_name in ("A", "B"):
        rule = ThresholdRule(rule_name)
        for model in ("er", "out-degree", "in-degree", "rewiring", "log-normal"):
            above = 0
            for yi, year in enumerate(years):
                slice_ = slices[year]
                net = rule.apply(slice_)
                fit = fit_lognormal(slice_) if model == "log-normal" else None
                spec = NullModelSpec(model, 800 + yi, net, fit=fit, rule=rule)
                (report,) = ci_compare([(measure_vector(net), spec)], samples=10_000)
                above += report.entry("edge_transitivity").position == "above"
            assert above >= len(years) - 1, f"{model}/{rule_name}: above in {above}/9 years"

    slice07 = slices[2007]
    for code in PIGS_CODES:
        result = cascade(slice07, {code}, LgdSpec(0.1, 0.1))
        assert len(result.defaulted) - 1 <= 1, f"{code}: {sorted(result.defaulted)}"
    pair = cascade(slice07, set(GREECE_IRELAND), LgdSpec(0.1, 0.1))
    assert pair.num_rounds == 6
    print("\n[criterion 8] PASS on supplied data")


def test_criterion_9_cli_reproducibility(fixture_data_dir):
    commands = [
        ["build", "--year", "2007", "--rule", "A"],
        ["export", "--year", "2007", "--rule", "B", "--format", "dot"],
        ["fit-lognormal", "--years", "2006,2007"],
        ["gen-null", "--year", "2007", "--rule", "A", "--model", "log-normal", "--count", "2"],
        ["knockout", "--years", "2006-2007", "--rule", "A", "--strategy", "attack", "--trials", "25"],
        ["knockout", "--years", "2007", "--rule", "B", "--strategy", "error", "--trials", "25", "--model", "rewiring"],
        ["ci-table", "--years", "2007", "--rules", "A,B", "--models", "er,rewiring", "--samples", "120"],
        ["lgd", "--year", "2007", "--initial", "AAA,BBB", "--d1", "0.1", "--d2", "0.1"],
        ["lgd-sweep", "--years", "2007", "--k-max", "2"],
        ["pigs-grid", "--year", "2007", "--group", "AAA,BBB,CCC"],
    ]
    for index, command in enumerate(commands):
        out = fixture_data_dir / f"repro_{index}"
        argv = command + [
            "--assets", str(fixture_data_dir / "assets.csv"),
            "--gdp", str(fixture_data_dir / "gdp.csv"),
            "--seed", "901",
            "--out", str(out),
        ]
        assert main(list(argv)) == 0
        first = out.read_bytes()
        assert main(list(argv)) == 0
        assert out.read_bytes() == first, f"non-deterministic output: {command[0]}"
    print(f"\n[criterion 9] PASS: {len(commands)} commands byte-identical across repeat runs")
