import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from finnet.ingest import AssetSlice
from finnet.netbuild import BinaryNetwork, ThresholdRule
from finnet.nullmodels import (
    DEFAULT_SWAP_FACTOR,
    MAX_SWAP_FACTOR,
    NullModelSpec,
    estimate_sigma_correction,
    fit_lognormal,
    fit_lognormal_pooled,
    jarque_bera,
    sample_lognormal_matrix,
)
from finnet.seeding import child_rng

from conftest import (
    complete_net,
    degree_net,
    empty_net,
    net_from_adj,
    oracle_bernoulli_null,
    oracle_degree_class,
    oracle_rewired,
    oracle_swap_component,
    random_net,
    random_slice,
)


def labels(n):
    return tuple(f"C{i:02d}" for i in range(n))


def synthetic_slice(alpha, beta, sigma, rng, censor_floor=0.0, rounding=False):
    """Slice drawn from the two-way model, optionally censored/rounded."""
    n = alpha.size
    mu = alpha[:, None] + beta[None, :]
    s = np.expm1(mu + rng.normal(0.0, sigma, (n, n)))
    s = np.where(s < censor_floor, 0.0, s)
    if rounding:
        s = np.rint(s)
    np.fill_diagonal(s, 0.0)
    return AssetSlice(2007, labels(n), s, np.full(n, 100.0), 1.0)


# high means keep essentially all mass above zero; used where the fit
# should see uncensored data
def high_mu_params(n, rng):
    return rng.normal(7.0, 0.5, n), rng.normal(4.0, 0.5, n)


def bernoulli_draws(kind, base, seed, draws):
    spec = NullModelSpec(kind, seed, base)
    return (spec.sample(i) for i in range(draws))


def test_er_degenerate_cases():
    assert NullModelSpec("er", 0, empty_net(6)).sample(0).num_edges == 0
    assert NullModelSpec("er", 0, complete_net(6)).sample(0).num_edges == 30


def test_er_mean_edge_count_within_three_se():
    n, d_bar, draws = 64, 12, 10_000
    p = d_bar / (n - 1)
    counts = [net.num_edges for net in bernoulli_draws("er", degree_net([d_bar] * n), 1, draws)]
    expected = n * (n - 1) * p  # 64 * 12 expected edges
    se = math.sqrt(n * (n - 1) * p * (1 - p) / draws)
    assert abs(np.mean(counts) - expected) < 3 * se


def test_outdegree_degenerate_and_moments():
    assert NullModelSpec("out-degree", 2, empty_net(5)).sample(0).num_edges == 0
    full = NullModelSpec("out-degree", 2, degree_net([4, 0, 0, 0, 0])).sample(0)
    assert full.out_degrees()[0] == 4
    seq = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    draws = 10_000
    totals = np.zeros(8)
    for net in bernoulli_draws("out-degree", degree_net(seq), 2, draws):
        totals += net.out_degrees()
    p = seq / 7
    se = np.sqrt(7 * p * (1 - p) / draws)
    observed = totals / draws
    mask = (seq > 0) & (seq < 7)
    assert np.all(np.abs(observed[mask] - seq[mask]) < 3 * se[mask])
    assert observed[0] == 0.0 and observed[7] == 7.0


def test_indegree_mirror():
    assert NullModelSpec("in-degree", 3, empty_net(5)).sample(0).num_edges == 0
    star = net_from_adj(degree_net([4, 0, 0, 0, 0]).adj.T)
    assert NullModelSpec("in-degree", 3, star).sample(0).in_degrees()[0] == 4


def test_rewired_two_cycle_unchanged():
    net = net_from_adj([[0, 1], [1, 0]])
    rewired = NullModelSpec("rewiring", 4, net).sample(0)
    assert np.array_equal(rewired.adj, net.adj)


def test_rewired_two_edge_graph_reaches_both_configurations():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[2, 3] = True
    net = net_from_adj(adj)
    spec = NullModelSpec("rewiring", 0, net)
    seen = set()
    for i in range(200):
        seen.add(tuple(sorted(spec.sample(i).edges())))
    original = (("C00", "C01"), ("C02", "C03"))
    swapped = (("C00", "C03"), ("C02", "C01"))
    assert seen == {original, swapped}


def edge_adj(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    return adj


def test_rewired_directed_three_cycle_unchanged():
    """The reversed 3-cycle has the same degrees, but every swap between
    two edges of the cycle makes a self-loop: the swap chain cannot leave it."""
    adj = edge_adj(3, [(0, 1), (1, 2), (2, 0)])
    assert oracle_degree_class(adj) == {adj.tobytes(), adj.T.tobytes()}
    assert oracle_swap_component(adj) == {adj.tobytes()}
    spec = NullModelSpec("rewiring", 1, net_from_adj(adj))
    for i in range(100):
        assert np.array_equal(spec.sample(i).adj, adj)


@pytest.mark.parametrize("n, edges", [
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    (4, [(0, 1), (1, 2), (2, 3)]),
    (4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
    (4, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 3)]),
    (4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)]),
    (6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 4), (5, 1)]),
])
def test_rewired_reaches_exactly_its_swap_component(n, edges):
    """Every rewired network lies in the start's swap component, which on
    four nodes can be smaller than its degree class (a 3-cycle with a node
    sending to all three never reaches its reverse). A small component is
    reached whole."""
    adj = edge_adj(n, edges)
    component = oracle_swap_component(adj)
    if n <= 4:
        assert component <= oracle_degree_class(adj)
    spec = NullModelSpec("rewiring", 2, net_from_adj(adj))
    reached = {spec.sample(i).adj.tobytes() for i in range(300)}
    assert reached <= component
    if len(component) <= 10:
        assert reached == component


@given(seed=st.integers(0, 10_000), p=st.floats(0.05, 0.6))
@settings(max_examples=40, deadline=None)
def test_rewired_preserves_degree_sequences(seed, p):
    net = random_net(10, p, np.random.default_rng(seed))
    rewired = NullModelSpec("rewiring", seed, net).sample(0)
    assert np.array_equal(rewired.out_degrees(), net.out_degrees())
    assert np.array_equal(rewired.in_degrees(), net.in_degrees())
    assert not np.any(np.diagonal(rewired.adj))


@st.composite
def digraphs(draw):
    """Edge sets of every size from 0 up, their complements (near-complete
    graphs), or a few edges beside one source that links to most nodes."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    shape = draw(st.sampled_from(["sparse", "complement", "hub"]))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.sets(pairs, max_size=n // 2 if shape == "hub" else n * (n - 1))):
        adj[i, j] = True
    if shape == "complement":
        adj = ~adj
    elif shape == "hub":
        hub = draw(st.integers(0, n - 1))
        adj[hub] = True
        for j in draw(st.sets(st.integers(0, n - 1), max_size=n // 3)):
            adj[hub, j] = False
    np.fill_diagonal(adj, False)
    return adj


def out_star(n, *extra):
    """Node 0 links to every other node, plus the ``extra`` (i, j) edges."""
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    for i, j in extra:
        adj[i, j] = True
    return adj


@given(adj=digraphs(), swap_factor=st.sampled_from([1, 2, 20]), seed=st.integers(0, 2**32 - 1),
       index=st.integers(0, 2**16), year=st.sampled_from([None, 2007]))
@example(adj=np.zeros((3, 3), dtype=bool), swap_factor=20, seed=1, index=0, year=None)
@example(adj=np.eye(3, k=2, dtype=bool), swap_factor=20, seed=2, index=1, year=2007)
@example(adj=np.array([[0, 1], [1, 0]], dtype=bool), swap_factor=20, seed=3, index=2, year=None)
@example(adj=np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=bool),
         swap_factor=2, seed=4, index=0, year=2007)
@example(adj=out_star(6), swap_factor=1, seed=5, index=0, year=None)
@example(adj=out_star(7), swap_factor=20, seed=8, index=3, year=2007)
@example(adj=out_star(6, (3, 1), (4, 0)), swap_factor=1, seed=6, index=0, year=None)
@example(adj=~np.eye(5, dtype=bool), swap_factor=1, seed=7, index=0, year=None)
@example(adj=np.array([[0, 1], [1, 0]], dtype=bool), swap_factor=1, seed=9, index=5, year=None)
@example(adj=np.array([[0, 1], [0, 0]], dtype=bool), swap_factor=1, seed=10, index=0, year=None)
@settings(max_examples=300, deadline=None)
def test_rewired_matches_oracle_exactly(adj, swap_factor, seed, index, year):
    """A rewiring spec's draw from the swap tables it built once equals the
    referee's chain on the same generator, also after a pickle round trip
    (workers get specs pickled) and on a second draw, which finds its
    tables as they were."""
    net = BinaryNetwork(labels(adj.shape[0]), adj, "A", year)
    spec = NullModelSpec("rewiring", seed, net, swap_factor)
    want = oracle_rewired(net, child_rng(seed, index), swap_factor)
    assert want.rule == "rewired[A]" and want.source_year == year
    for copy in (spec, pickle.loads(pickle.dumps(spec)), spec):
        got = copy.sample(index)
        assert got.adj.tobytes() == want.adj.tobytes()
        assert (got.countries, got.rule, got.source_year) == (want.countries, want.rule, want.source_year)
    if adj.any() and not adj[1:].any():
        # Every edge leaves node 0, so every attempt finds its c->d live in the one row and fails.
        assert np.array_equal(want.adj, adj)


@pytest.mark.parametrize("density, hub, seed", [
    pytest.param(0.07, False, 1, id="0.07-1"),
    pytest.param(0.18, False, 2, id="0.18-2"),
    pytest.param(0.95, False, 3, id="0.95-3"),
    pytest.param(0.05, True, 4, id="hub-0.05-4"),
])
def test_paper_size_rewired_matches_oracle_exactly(density, hub, seed):
    """At n = 60, near the rule-B (0.07) and rule-A (0.18) densities of
    the data, on a near-complete graph, and with a hub that links to all 59
    other nodes over a sparse rest, the spec's chain meets values that the
    n <= 8 digraphs above never reach: edge ids past 256, the end of
    CPython's small-int cache, targets and rows over 60 nodes, and (at the
    hub) many attempts whose two edges share one source row. Draws 0-2 equal
    the referee, also after a pickle round trip, and each one moves edges."""
    adj = random_net(60, density, np.random.default_rng(seed)).adj
    if hub:
        adj = adj | out_star(60)
        sources = np.nonzero(adj)[0]
        picks = child_rng(seed, 0).integers(0, sources.size, size=(DEFAULT_SWAP_FACTOR * sources.size, 2))
        assert (sources[picks[:, 0]] == sources[picks[:, 1]]).mean() > 0.05
    net = BinaryNetwork(labels(60), adj, "A", 2009)
    spec = NullModelSpec("rewiring", seed, net)
    copy = pickle.loads(pickle.dumps(spec))
    assert density < 0.1 or net.num_edges > 256
    for index in range(3):
        want = oracle_rewired(net, child_rng(seed, index), DEFAULT_SWAP_FACTOR)
        assert (want.adj != adj).any()
        assert spec.sample(index).adj.tobytes() == want.adj.tobytes() == copy.sample(index).adj.tobytes()


def test_rewiring_swap_tables_cannot_change():
    """The chain's start is built once and never changes: the sources, the
    targets, the occupancy and each of its rows are tuples that each draw
    copies into its own lists, and the edge-id array is read-only. Draws
    before and after a pickle round trip leave the tables, and the copy's,
    equal to a copy taken when the spec was made."""
    net = random_net(12, 0.3, np.random.default_rng(21))
    spec = NullModelSpec("rewiring", 5, net)
    edge_ids, sources, targets, occupancy = spec.swap_tables
    rows, cols = np.nonzero(net.adj)
    assert edge_ids.tolist() == list(range(net.num_edges))
    assert (sources, targets) == (tuple(rows.tolist()), tuple(cols.tolist()))
    assert occupancy == tuple(map(tuple, (net.adj | np.eye(12, dtype=bool)).tolist()))
    for table in (sources, targets, occupancy, occupancy[0]):
        with pytest.raises(TypeError):
            table[0] = table[1]
    with pytest.raises(ValueError, match="read-only"):
        edge_ids[0] = edge_ids[1]

    def snapshot(tables):
        return [table.tolist() if isinstance(table, np.ndarray) else table for table in tables]

    want = snapshot(spec.swap_tables)
    first = spec.sample(0)
    assert (first.adj != net.adj).any()
    copy = pickle.loads(pickle.dumps(spec))
    for drawn in (spec, copy):
        assert drawn.sample(0).adj.tobytes() == first.adj.tobytes()
        drawn.sample(1)
    assert snapshot(spec.swap_tables) == snapshot(copy.swap_tables) == want


def test_rewiring_draw_peaks_under_40_bytes_per_attempt():
    """A draw frees its picks once it has gathered their edge ids, so at
    most two arrays of 8-byte items, two per attempt, are alive at once:
    32 bytes per attempt, plus the draw's copies of the tables (tracemalloc
    also counts numpy's buffers). A draw that kept its picks while listing
    the ids would peak at 48."""
    net = random_net(30, 0.9, np.random.default_rng(22))
    spec = NullModelSpec("rewiring", 3, net, swap_factor=100)
    tracemalloc.start()
    try:
        drawn = spec.sample(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (drawn.adj != net.adj).any()
    assert peak < 40 * 100 * net.num_edges


def test_fit_constant_matrix_zero_sigma():
    assets = np.full((5, 5), 20.0)
    np.fill_diagonal(assets, 0.0)
    slice_ = AssetSlice(2007, labels(5), assets, np.ones(5), 1.0)
    fit = fit_lognormal(slice_)
    assert fit.sigma_raw == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(fit.residuals, 0.0, atol=1e-9)


def test_fit_default_correction_factor():
    rng = np.random.default_rng(6)
    alpha, beta = high_mu_params(8, rng)
    fit = fit_lognormal(synthetic_slice(alpha, beta, 1.0, rng))
    assert fit.correction_factor == 1.183
    assert fit.sigma_corrected == pytest.approx(1.183 * fit.sigma_raw)


@pytest.mark.parametrize("factor", [-1.0, -1e-12, math.nan, math.inf])
def test_fits_reject_a_correction_factor_not_finite_and_nonnegative(factor):
    rng = np.random.default_rng(6)
    alpha, beta = high_mu_params(8, rng)
    slice_ = synthetic_slice(alpha, beta, 1.0, rng)
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        fit_lognormal(slice_, correction_factor=factor)
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        fit_lognormal_pooled([slice_], correction_factor=factor)
    assert fit_lognormal(slice_, correction_factor=0.0).sigma_corrected == 0.0


def test_fits_reject_a_correction_that_overflows_sigma():
    """A finite factor can still make sigma_corrected infinite; the fit
    rejects it rather than hand an infinite sigma to the draws."""
    rng = np.random.default_rng(6)
    alpha, beta = high_mu_params(8, rng)
    slice_ = synthetic_slice(alpha, beta, 1.5, rng)
    factor = 1.7e308
    assert fit_lognormal(slice_).sigma_raw * factor == math.inf
    with pytest.raises(ValueError, match="overflows"):
        fit_lognormal(slice_, correction_factor=factor)
    with pytest.raises(ValueError, match="overflows"):
        fit_lognormal_pooled([slice_], correction_factor=factor)


def test_fits_reject_fewer_than_3_countries_or_no_slice():
    pair = AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="fit needs at least 3 countries"):
        fit_lognormal(pair)
    with pytest.raises(ValueError, match="fit needs at least 3 countries"):
        fit_lognormal_pooled([pair])
    with pytest.raises(ValueError, match="need at least one slice"):
        fit_lognormal_pooled([])


def test_fit_recovers_sigma_fixed_seed():
    rng = np.random.default_rng(20240811)
    alpha, beta = high_mu_params(64, rng)
    fit = fit_lognormal(synthetic_slice(alpha, beta, 1.5, rng))
    assert fit.sigma_raw == pytest.approx(1.5, rel=0.02)


def test_fit_residual_mean_zero():
    rng = np.random.default_rng(7)
    alpha, beta = high_mu_params(12, rng)
    fit = fit_lognormal(synthetic_slice(alpha, beta, 1.2, rng))
    assert abs(fit.residuals.mean()) < 1e-8 * fit.residuals.std()


def test_fit_consistency_error_shrinks_with_n():
    rng = np.random.default_rng(9)
    errors = []
    for n in (16, 32, 64):
        alpha, beta = high_mu_params(n, rng)
        fit = fit_lognormal(synthetic_slice(alpha, beta, 1.0, rng))
        mu_true = alpha[:, None] + beta[None, :]
        mu_fit = fit.alpha[:, None] + fit.beta[None, :]
        off = ~np.eye(n, dtype=bool)
        errors.append(np.sqrt(np.mean((mu_true - mu_fit)[off] ** 2)))
    assert errors[0] > errors[1] > errors[2]


def test_fit_pooled_runs_and_shares_effects():
    rng = np.random.default_rng(10)
    alpha, beta = high_mu_params(8, rng)
    slices = [synthetic_slice(alpha, beta, 1.0, rng) for _ in range(3)]
    pooled = fit_lognormal_pooled(slices)
    assert pooled.residuals.size == 3 * 8 * 7
    assert pooled.year is None and pooled.gdp is None
    rule = ThresholdRule("A")
    with pytest.raises(ValueError, match="gdp"):
        NullModelSpec("log-normal", 0, rule.apply(slices[0]), fit=pooled, rule=rule)


def test_pooled_fit_over_years_sharing_no_country_is_rank_deficient():
    """Holder and issuer effects trade one constant per group of countries
    that no slice links: two years with disjoint countries leave that
    direction free, while one shared country pins it."""
    assets = np.array([[0.0, 12.0, 30.0], [7.0, 0.0, 55.0], [21.0, 4.0, 0.0]])

    def year(y, codes):
        return AssetSlice(y, codes, assets, np.full(3, 100.0), 1.0)

    with pytest.raises(ValueError, match="rank deficient beyond the dummy redundancy"):
        fit_lognormal_pooled([year(2006, ("A", "B", "C")), year(2007, ("D", "E", "F"))])
    linked = fit_lognormal_pooled([year(2006, ("A", "B", "C")), year(2007, ("C", "D", "E"))])
    assert linked.countries == ("A", "B", "C", "D", "E")
    assert linked.residuals.size == 2 * 3 * 2


def test_null_spec_rejects_a_pooled_fit_when_built():
    """A log-normal spec needs the fit's GDP vector for every draw, so a fit
    without one (pooled) fails when the spec is made, before any draw."""
    rng = np.random.default_rng(17)
    alpha, beta = high_mu_params(6, rng)
    slices = [synthetic_slice(alpha, beta, 1.0, rng) for _ in range(2)]
    rule = ThresholdRule("B")
    net = rule.apply(slices[0])
    per_year = fit_lognormal(slices[0])
    NullModelSpec("log-normal", 3, net, fit=per_year, rule=rule).sample(0)
    from dataclasses import replace

    for fit in (fit_lognormal_pooled(slices), replace(per_year, gdp=None)):
        with pytest.raises(ValueError, match="pooled fit"):
            NullModelSpec("log-normal", 3, net, fit=fit, rule=rule)


def test_fit_pooled_single_slice_equals_per_year_fit():
    rng = np.random.default_rng(15)
    alpha, beta = high_mu_params(8, rng)
    slice_ = synthetic_slice(alpha, beta, 1.0, rng, censor_floor=0.5, rounding=True)
    single = fit_lognormal(slice_)
    pooled = fit_lognormal_pooled([slice_])
    assert pooled.countries == single.countries == tuple(sorted(slice_.countries))
    for field in ("alpha", "beta", "residuals"):
        assert np.array_equal(getattr(pooled, field), getattr(single, field))
    assert pooled.sigma_raw == single.sigma_raw
    summary = single.residual_summary()
    assert summary["skew"] == pytest.approx(stats.skew(single.residuals), rel=1e-12)
    assert summary["kurtosis"] == pytest.approx(stats.kurtosis(single.residuals, fisher=False), rel=1e-12)
    assert (summary["jarque_bera"], summary["p_value"]) == jarque_bera(single.residuals)


def test_fit_lognormal_keeps_unsorted_slice_order():
    rng = np.random.default_rng(16)
    alpha, beta = high_mu_params(6, rng)
    base = synthetic_slice(alpha, beta, 1.0, rng)
    order = [3, 0, 5, 1, 4, 2]
    slice_ = AssetSlice(2007, tuple(base.countries[i] for i in order), base.assets[np.ix_(order, order)],
                        base.gdp[order], 1.0)
    fit = fit_lognormal(slice_)
    assert fit.countries == slice_.countries != tuple(sorted(slice_.countries))
    # the same model in sorted order, in the slice's observation order; each fit pins its own
    # first issuer, which moves alpha and beta but not the fitted means alpha_i + beta_j
    pooled = fit_lognormal_pooled([slice_])
    assert pooled.countries == tuple(sorted(slice_.countries))
    at = [slice_.countries.index(c) for c in pooled.countries]
    assert fit.beta[0] == pooled.beta[0] == 0.0 and fit.beta[at[0]] != 0.0
    means = (fit.alpha[:, None] + fit.beta[None, :])[np.ix_(at, at)]
    assert np.allclose(means, pooled.alpha[:, None] + pooled.beta[None, :], rtol=1e-12, atol=0)
    assert np.allclose(fit.residuals, pooled.residuals, rtol=0, atol=1e-12)
    assert fit.sigma_raw == pytest.approx(pooled.sigma_raw, rel=1e-12)


def test_sample_lognormal_sigma_zero_deterministic():
    rng = np.random.default_rng(11)
    alpha = np.array([2.0, 3.0, 1.0])
    beta = np.array([0.0, 1.0, 0.5])
    fit_like = fit_lognormal(synthetic_slice(alpha, beta, 0.5, rng))
    from dataclasses import replace

    frozen = replace(fit_like, sigma_corrected=0.0)
    one = sample_lognormal_matrix(frozen, np.random.default_rng(0))
    two = sample_lognormal_matrix(frozen, np.random.default_rng(99))
    assert np.array_equal(one, two)
    mu = frozen.alpha[:, None] + frozen.beta[None, :]
    expected = np.rint(np.where(np.expm1(mu) < 0.5, 0.0, np.expm1(mu)))
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(one, expected)


def test_sample_lognormal_nonnegative():
    rng = np.random.default_rng(12)
    alpha = rng.normal(0.0, 1.0, 10)
    beta = rng.normal(0.0, 1.0, 10)
    fit = fit_lognormal(synthetic_slice(alpha + 3, beta, 1.5, rng))
    for seed in range(20):
        generated = sample_lognormal_matrix(fit, np.random.default_rng(seed))
        assert np.all(generated >= 0)
        assert np.array_equal(generated, np.rint(generated))


def test_sample_lognormal_moment_check_uncensored():
    rng = np.random.default_rng(13)
    alpha, beta = high_mu_params(8, rng)
    fit = fit_lognormal(synthetic_slice(alpha, beta, 0.8, rng))
    total = np.zeros((8, 8))
    draws = 1000
    gen = np.random.default_rng(14)
    for _ in range(draws):
        s = sample_lognormal_matrix(fit, gen, censor_floor=None, rounding=False)
        total += np.log1p(s)
    mu_fit = fit.alpha[:, None] + fit.beta[None, :]
    off = ~np.eye(8, dtype=bool)
    mc_error = 4 * fit.sigma_corrected / math.sqrt(draws)
    assert np.max(np.abs(total / draws - mu_fit)[off]) < mc_error


def test_sigma_correction_no_censoring_is_unity():
    rng = np.random.default_rng(15)
    alpha, beta = high_mu_params(24, rng)
    factor = estimate_sigma_correction(
        alpha, beta, 1.5, censor_floor=0.0, trials=100, rng=rng, rounding=False
    )
    assert factor == pytest.approx(1.0, abs=0.01)


def test_sigma_correction_above_one_when_censoring_bites():
    rng = np.random.default_rng(16)
    alpha = rng.normal(0.7, 0.5, 20)
    beta = rng.normal(0.3, 0.5, 20)
    factors = [
        estimate_sigma_correction(alpha, beta, 1.5, censor_floor=floor, trials=100,
                                  rng=np.random.default_rng(100 + i), rounding=False)
        for i, floor in enumerate((0.0, 0.5, 5.0))
    ]
    # every floor removes mass for these low-mean parameters
    assert all(f > 1.0 for f in factors)


def test_sigma_correction_validation():
    alpha = np.zeros(5)
    with pytest.raises(ValueError, match="100 trials"):
        estimate_sigma_correction(alpha, alpha, 1.0, trials=10)
    with pytest.raises(ValueError, match="sigma"):
        estimate_sigma_correction(alpha, alpha, 0.0, trials=100)
    # n = 3 leaves one degree of freedom: the mean of sigma / sigma_refit has no finite expectation
    with pytest.raises(ValueError, match="n >= 4"):
        estimate_sigma_correction(np.zeros(3), np.zeros(3), 1.0, trials=100)
    with pytest.raises(ValueError, match="n >= 4"):
        estimate_sigma_correction(alpha, np.zeros(4), 1.0, trials=100)


def test_sigma_correction_degenerate_refit():
    # a floor above every draw censors every position to zero: no residual variation is left
    with pytest.raises(ValueError, match="degenerate refit"):
        estimate_sigma_correction(np.zeros(5), np.zeros(5), 0.1, censor_floor=1e6, trials=100,
                                  rng=np.random.default_rng(0))


def referee_sigma_correction(alpha, beta, sigma, censor_floor, trials, rng, rounding):
    """One draw and one lstsq refit per trial, with holder dummies and
    issuer dummies for every issuer but the first."""
    n = alpha.size
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    x = np.zeros((rows.size, 2 * n - 1))
    for k, (i, j) in enumerate(zip(rows, cols)):
        x[k, i] = 1.0
        if j > 0:
            x[k, n + j - 1] = 1.0
    dof = rows.size - x.shape[1]
    ratios = []
    for _ in range(trials):
        s = np.expm1(alpha[rows] + beta[cols] + rng.normal(0.0, sigma, size=rows.size))
        s = np.where(s < censor_floor, 0.0, s)
        if rounding:
            s = np.rint(s)
        y = np.log1p(s)
        theta = np.linalg.lstsq(x, y, rcond=None)[0]
        ratios.append(sigma / math.sqrt(((y - x @ theta) ** 2).sum() / dof))
    return float(np.mean(ratios))


@pytest.mark.parametrize("n, censor_floor, rounding", [(6, 0.5, True), (15, 5.0, False)])
def test_sigma_correction_matches_per_trial_refits(n, censor_floor, rounding):
    rng = np.random.default_rng(n)
    alpha, beta = rng.normal(0.7, 0.5, n), rng.normal(0.3, 0.5, n)
    args = (alpha, beta, 1.5, censor_floor, 100)
    want = referee_sigma_correction(*args, np.random.default_rng(3), rounding)
    got = estimate_sigma_correction(*args, np.random.default_rng(3), rounding)
    assert got == pytest.approx(want, rel=1e-12)


def test_jarque_bera_two_point_closed_form():
    residuals = np.array([1.0, -1.0] * 8)
    stat, p = jarque_bera(residuals)
    assert stat == pytest.approx(len(residuals) / 6.0)
    assert p == pytest.approx(math.exp(-stat / 2.0))


def test_jarque_bera_matches_scipy():
    rng = np.random.default_rng(17)
    x = rng.normal(size=500) ** 2  # skewed
    stat, p = jarque_bera(x)
    ref = stats.jarque_bera(x)
    assert stat == pytest.approx(ref.statistic, rel=1e-9)
    assert p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)


def test_jarque_bera_degenerate_inputs():
    with pytest.raises(ValueError, match="zero variance"):
        jarque_bera(np.full(20, 3.0))
    with pytest.raises(ValueError, match="at least 8"):
        jarque_bera(np.arange(5.0))


def test_jarque_bera_calibration_standard_normal():
    passes = 0
    seeds = 40
    for seed in range(seeds):
        x = np.random.default_rng(seed).normal(size=100_000)
        _, p = jarque_bera(x)
        passes += p > 0.01
    assert passes >= math.ceil(0.95 * seeds)


def test_null_spec_validation_and_sampling():
    rng = np.random.default_rng(18)
    net = random_net(8, 0.4, rng)
    with pytest.raises(ValueError, match="unknown null-model"):
        NullModelSpec("zzz", 1, net)
    for kind in ("rewiring", "er"):
        with pytest.raises(ValueError, match="swap_factor must be >= 1"):
            NullModelSpec(kind, 0, net, swap_factor=0)
        with pytest.raises(ValueError, match="swap_factor must be >= 1 and <= 1000"):
            NullModelSpec(kind, 0, net, swap_factor=MAX_SWAP_FACTOR + 1)
        assert NullModelSpec(kind, 0, net, swap_factor=MAX_SWAP_FACTOR).swap_factor == 1000
    for kind in ("er", "out-degree", "in-degree", "rewiring"):
        spec = NullModelSpec(kind, 7, net)
        a = spec.sample(3)
        b = spec.sample(3)
        assert np.array_equal(a.adj, b.adj)  # (seed, index) fully determines the draw
        assert a.countries == net.countries



@pytest.mark.parametrize("kind, seed, swap_factor, field", [
    ("rewiring", 1, 2.5, "swap_factor"),
    ("er", 1, 2.0, "swap_factor"),
    ("er", 1, True, "swap_factor"),
    ("rewiring", 1, "20", "swap_factor"),
    ("er", -1, 20, "seed"),
    ("er", 1.5, 20, "seed"),
    ("rewiring", True, 20, "seed"),
    ("er", None, 20, "seed"),
    ("er", np.int64(-3), 20, "seed"),
])
def test_null_spec_checks_seed_and_swap_factor_when_made(kind, seed, swap_factor, field):
    """A bad seed or swap_factor fails when the spec is made, naming the
    field, not at its first draw, which may run in a worker."""
    net = random_net(6, 0.4, np.random.default_rng(22))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        NullModelSpec(kind, seed, net, swap_factor)


@pytest.mark.parametrize("kind", ["er", "rewiring"])
def test_null_spec_takes_numpy_integers_as_ints(kind):
    net = random_net(8, 0.4, np.random.default_rng(23))
    spec = NullModelSpec(kind, np.int64(7), net, np.int32(3))
    assert type(spec.seed) is int and type(spec.swap_factor) is int
    assert spec == NullModelSpec(kind, 7, net, 3)
    want = NullModelSpec(kind, 7, net, 3).sample(2).adj
    assert spec.sample(2).adj.tobytes() == want.tobytes()
    assert NullModelSpec(kind, 0, net).sample(0).n == 8

@pytest.mark.parametrize("kind", ["er", "out-degree", "in-degree", "rewiring"])
def test_null_spec_rejects_a_base_under_two_nodes(kind):
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            NullModelSpec(kind, 1, empty_net(n))
    assert NullModelSpec(kind, 1, empty_net(2)).sample(0).num_edges == 0


def test_null_spec_reads_its_statistic_once(monkeypatch):
    net = random_net(8, 0.4, np.random.default_rng(20))
    specs = [NullModelSpec(kind, 7, net) for kind in ("er", "out-degree", "in-degree")]
    er, out, into = (spec.prob for spec in specs)
    assert er == net.num_edges / 8 / 7
    assert out.shape == (8, 1) and np.array_equal(out[:, 0], net.out_degrees() / 7)
    assert into.shape == (1, 8) and np.array_equal(into[0], net.in_degrees() / 7)
    assert NullModelSpec("rewiring", 7, net).prob is None
    for prob in (out, into):
        with pytest.raises(ValueError, match="read-only"):
            prob[:] = 1.0
    want = [spec.sample(i).adj for spec in specs for i in range(3)]

    def fail(self):
        raise AssertionError("a draw recomputed the family's statistic")

    monkeypatch.setattr(BinaryNetwork, "num_edges", property(fail))
    monkeypatch.setattr(BinaryNetwork, "out_degrees", fail)
    monkeypatch.setattr(BinaryNetwork, "in_degrees", fail)
    got = [spec.sample(i).adj for spec in specs for i in range(3)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_null_spec_lognormal_round_trip():
    rng = np.random.default_rng(19)
    alpha, beta = high_mu_params(8, rng)
    slice_ = synthetic_slice(alpha, beta, 1.0, rng)
    fit = fit_lognormal(slice_)
    rule = ThresholdRule("A")
    net = rule.apply(slice_)
    spec = NullModelSpec("log-normal", 11, net, fit=fit, rule=rule)
    sampled = spec.sample(0)
    assert sampled.countries == slice_.countries
    assert sampled.rule == "A"
    with pytest.raises(ValueError, match="needs a fit"):
        NullModelSpec("log-normal", 11, net)
    with pytest.raises(ValueError, match="needs a fit"):
        NullModelSpec("log-normal", 11, net, fit=fit)


@pytest.mark.parametrize("kind", ["er", "out-degree", "in-degree", "rewiring", "log-normal"])
def test_null_spec_sample_is_the_family_sampler_on_child_rng(kind):
    """The CLI's spec draws network i as the family's own sampler fed
    child_rng(seed, i) and the empirical network's statistics."""
    from finnet.cli import _null_spec
    from finnet.seeding import child_rng

    slice_ = random_slice(9, np.random.default_rng(24))
    rule = ThresholdRule("B")
    net = rule.apply(slice_)
    seed, swap_factor, correction = 25, 3, 1.1
    fit = fit_lognormal(slice_, correction)
    direct = {
        "er": lambda r: oracle_bernoulli_null(net, "er", r),
        "out-degree": lambda r: oracle_bernoulli_null(net, "out-degree", r),
        "in-degree": lambda r: oracle_bernoulli_null(net, "in-degree", r),
        "rewiring": lambda r: oracle_rewired(net, r, swap_factor),
        "log-normal": lambda r: rule.apply(AssetSlice(fit.year, fit.countries, sample_lognormal_matrix(fit, r),
                                                      fit.gdp, 1.0)),
    }[kind]
    spec = _null_spec(kind, slice_, rule, seed, swap_factor, correction)
    for i in (0, 1, 5, 17):
        got, want = spec.sample(i), direct(child_rng(seed, i))
        assert got.adj.tobytes() == want.adj.tobytes()
        assert (got.countries, got.rule, got.source_year) == (want.countries, want.rule, want.source_year)
    assert 0 < net.num_edges < net.n * (net.n - 1)
