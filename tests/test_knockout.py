import math
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finnet import knockout
from finnet.ingest import AssetSlice
from finnet.knockout import (
    CURVE_GRID,
    DEFAULT_ALPHA,
    MIN_SAMPLES,
    STRATEGIES,
    CiEntry,
    CiReport,
    _interp_curve,
    _run_ensemble,
    _settled,
    ci_compare,
    ci_table,
    classify_position,
    ensemble_knockout,
    run_knockout,
)
from finnet.metrics import MEASURE_NAMES, measure_vector
from finnet.netbuild import ThresholdRule
from finnet.nullmodels import NullModelSpec, fit_lognormal, sample_lognormal_matrix

from conftest import (
    DATA_DIR,
    complete_net,
    empty_net,
    load_scalefree64,
    net_from_adj,
    oracle_ci_positions,
    oracle_knockout,
    oracle_quantile_midpoint,
    random_net,
    random_slice,
)


def star_net(n, bidirectional=False):
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    if bidirectional:
        adj[1:, 0] = True
    return net_from_adj(adj)


def circulant_net(n, d, labels=None):
    """Edges i -> i+1, ..., i+d mod n: every out-degree is d."""
    adj = np.zeros((n, n), dtype=bool)
    for k in range(1, d + 1):
        adj[np.arange(n), (np.arange(n) + k) % n] = True
    return net_from_adj(adj, labels or tuple(f"C{i}" for i in range(n)))


def attack_target(net, seed):
    """The first node an attack knockout removes."""
    return run_knockout(net, "attack", seed).removal_order[0]


def test_attack_target_star_center():
    net = star_net(7)
    assert attack_target(net, 0) == net.countries[0]


def test_attack_target_never_isolated():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 2] = adj[2, 0] = True  # 3-cycle plus isolated node 3
    net = net_from_adj(adj)
    targets = {attack_target(net, seed) for seed in range(50)}
    assert net.countries[3] not in targets
    assert targets <= set(net.countries[:3])


def test_attack_target_tie_frequency():
    net = net_from_adj([[0, 1], [1, 0]])
    picks = sum(attack_target(net, seed) == net.countries[0] for seed in range(10_000))
    assert abs(picks / 10_000 - 0.5) < 3 * 0.005  # 3 standard errors


def test_attack_target_empty_network_error():
    with pytest.raises(ValueError, match="at least 2 nodes"):
        run_knockout(net_from_adj(np.zeros((0, 0), dtype=bool), labels=()), "attack", 0)
    with pytest.raises(ValueError, match="unknown strategy 'degree'"):
        run_knockout(complete_net(3), "degree", 0)


def test_knockout_complete_digraph_series():
    trace = run_knockout(complete_net(4), "attack", seed=1)
    assert np.array_equal(trace.aspl_series, [1.0, 1.0, 1.0, 4.0])
    assert len(trace.removal_order) == 3


def test_knockout_empty_graph_series():
    for strategy in ("error", "attack"):
        trace = run_knockout(empty_net(3), strategy, seed=2)
        assert np.array_equal(trace.aspl_series, [4.0, 4.0, 4.0])


def test_knockout_star_attack_hand_values():
    net = star_net(5, bidirectional=True)
    trace = run_knockout(net, "attack", seed=3)
    assert trace.removal_order[0] == net.countries[0]
    # center<->4 leaves: 8 pairs at distance 1, 12 leaf pairs at distance 2
    assert trace.aspl_series[0] == pytest.approx((8 * 1 + 12 * 2) / 20)
    assert np.array_equal(trace.aspl_series[1:], [4.0, 4.0, 4.0, 4.0])


def test_knockout_deterministic_given_seed():
    rng = np.random.default_rng(4)
    net = random_net(12, 0.3, rng)
    for strategy in ("error", "attack"):
        first = run_knockout(net, strategy, seed=99)
        second = run_knockout(net, strategy, seed=99)
        assert first.removal_order == second.removal_order
        assert np.array_equal(first.aspl_series, second.aspl_series)
        assert first.seed == 99
        assert len(first.aspl_series) == len(first.removal_order) + 1
        assert np.all(first.aspl_series >= 1.0) and np.all(first.aspl_series <= 4.0)


def test_attack_removals_have_maximal_degree_sum_by_replay():
    rng = np.random.default_rng(5)
    net = random_net(12, 0.3, rng)
    trace = run_knockout(net, "attack", seed=6)
    adj, labels = net.adj, list(net.countries)
    for code in trace.removal_order:
        sums = adj.sum(axis=0) + adj.sum(axis=1)
        victim = labels.index(code)
        assert sums[victim] == sums.max()
        adj = np.delete(np.delete(adj, victim, axis=0), victim, axis=1)
        labels.pop(victim)


@st.composite
def tie_heavy_digraphs(draw):
    """Digraphs on 2-12 nodes, mostly regular (circulant), symmetric or
    empty, so that attack steps often break degree ties."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["regular", "symmetric", "empty", "any"]))
    adj = np.zeros((n, n), dtype=bool)
    if kind == "regular":
        for shift in draw(st.sets(st.integers(1, n - 1), max_size=n - 1)):
            adj[np.arange(n), (np.arange(n) + shift) % n] = True
    elif kind != "empty":
        bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        adj = np.array(bits, dtype=bool).reshape(n, n)
        if kind == "symmetric":
            adj = np.triu(adj, 1) | np.triu(adj, 1).T
        np.fill_diagonal(adj, False)
    return net_from_adj(adj)


@given(net=tie_heavy_digraphs())
@settings(max_examples=150, deadline=None)
def test_shared_cache_traces_match_shrinking_matrix_oracle(net):
    for strategy in STRATEGIES:
        cache = {}
        for seed in range(24):
            trace = run_knockout(net, strategy, seed, cache=cache)
            order, series = oracle_knockout(net, strategy, seed)
            assert trace.removal_order == order
            assert trace.aspl_series.tobytes() == series.tobytes()


def disjoint_stars(leaves, bidirectional=False):
    """Disjoint out-stars, one per entry of ``leaves``: a star with one leaf
    is a matched pair, one with none an isolated node."""
    adj = np.zeros((sum(leaves) + len(leaves),) * 2, dtype=bool)
    center = 0
    for k in leaves:
        adj[center, center + 1:center + 1 + k] = True
        center += k + 1
    return net_from_adj(adj | adj.T if bidirectional else adj)


def assert_trace_matches_oracle(net, strategy, seed, cache):
    trace = run_knockout(net, strategy, seed, cache=cache)
    order, series = oracle_knockout(net, strategy, seed)
    assert trace.removal_order == order
    assert trace.aspl_series.tobytes() == series.tobytes()


@pytest.mark.parametrize("net", [
    disjoint_stars([1] * 12),
    disjoint_stars([1] * 6, bidirectional=True),
    disjoint_stars([5, 3, 3, 1, 1, 0, 0]),
    disjoint_stars([8, 2, 0, 0, 0], bidirectional=True),
    empty_net(7),
    empty_net(2),
    load_scalefree64(),
], ids=["matching24", "matching12-bidir", "stars20", "stars16-bidir", "empty7", "empty2", "scalefree64"])
def test_edgeless_tail_matches_oracle(net, monkeypatch):
    """Traces that run out of edges while many nodes survive finish with the
    oracle's draws and series, and no edgeless set reaches the kernel.
    Attack trials share one cache, in which the edgeless sets they reach
    are marked."""
    import finnet.knockout as knockout

    kernel = knockout.modified_aspl_adj

    def edged_kernel(adj):
        assert adj.any()
        return kernel(adj)

    monkeypatch.setattr(knockout, "modified_aspl_adj", edged_kernel)
    for seed in range(6):
        assert_trace_matches_oracle(net, "error", seed, None)
    cache = {}
    for seed in range(6):
        assert_trace_matches_oracle(net, "attack", seed, cache)
    assert None in cache.values()
    if net.num_edges == 0:
        assert cache == {(1 << net.n) - 1: None}


def test_attack_trials_branch_off_at_a_cached_edgeless_set(monkeypatch):
    """Every attack on a star removes the centre first. The first trial
    marks the leaves as edgeless; every later trial hits both cached sets,
    so it never misses, rebuilds a submatrix or calls the kernel."""
    import finnet.knockout as knockout

    net = star_net(11, bidirectional=True)
    cache = {}
    assert_trace_matches_oracle(net, "attack", 0, cache)
    monkeypatch.setattr(knockout, "modified_aspl_adj", None)
    for seed in range(1, 8):
        assert_trace_matches_oracle(net, "attack", seed, cache)
    full = (1 << net.n) - 1
    assert cache.keys() == {full, full ^ 1} and cache[full ^ 1] is None


def test_attack_series_seed_independent_on_symmetric_graph():
    series = {tuple(run_knockout(complete_net(5), "attack", seed=s).aspl_series) for s in range(10)}
    assert len(series) == 1


def test_ensemble_single_trace_matches_and_zero_std():
    net = complete_net(6)
    summary = ensemble_knockout([net], "attack", trials=1, master_seed=7)
    assert summary.n_traces == 1
    assert np.allclose(summary.std, 0.0)
    from finnet.seeding import child_seed

    trace = run_knockout(net, "attack", child_seed(7, 0, 0))
    assert np.allclose(summary.mean, _interp_curve(trace.aspl_series))


def test_ensemble_knockout_needs_a_source():
    with pytest.raises(ValueError, match="need at least one source"):
        ensemble_knockout([], "attack", trials=3, master_seed=1, jobs=2)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ensemble_knockout([complete_net(3)], "attack", trials=0, master_seed=1)


def test_ci_compare_needs_a_cell():
    with pytest.raises(ValueError, match="need at least one cell"):
        ci_compare([], samples=100, jobs=2)
    cell = (measure_vector(empty_net(5)), NullModelSpec("er", 17, empty_net(5)))
    with pytest.raises(ValueError, match="at least 100 samples"):
        ci_compare([cell], samples=99)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ci_compare([cell], samples=100, alpha=alpha)


def test_ensemble_attack_zero_std_when_series_tie_free():
    summary = ensemble_knockout([complete_net(6)], "attack", trials=25, master_seed=8)
    assert np.allclose(summary.std, 0.0)


def test_error_curve_flat_and_matches_golden():
    net = random_net(64, 0.2, np.random.default_rng(555))
    summary = ensemble_knockout([net], "error", 300, 556)
    # robustness to error: the mean curve barely moves over the first 20%
    assert abs(summary.mean[20] - summary.mean[0]) < 0.15
    golden = np.loadtxt(DATA_DIR / "golden_error_curve.csv", delimiter=",", skiprows=1)
    assert np.allclose(summary.grid, golden[:, 0], atol=1e-12)
    assert np.allclose(summary.mean, golden[:, 1], atol=1e-10)
    assert np.allclose(summary.std, golden[:, 2], atol=1e-10)


@pytest.mark.parametrize("fixture", ["scalefree", "er"])
def test_attack_hurts_more_than_error_on_stored_graphs(fixture):
    if fixture == "scalefree":
        net = load_scalefree64()
    else:
        net = random_net(64, 0.2, np.random.default_rng(555))
    trials = 300
    attack = ensemble_knockout([net], "attack", trials, master_seed=9)
    error = ensemble_knockout([net], "error", trials, master_seed=10)
    point = 10  # 10% of nodes removed
    diff = attack.mean[point] - error.mean[point]
    se = math.sqrt(attack.std[point] ** 2 / trials + error.std[point] ** 2 / trials)
    assert diff / max(se, 1e-12) > 2.326  # one-sided alpha = 0.01


def test_ensemble_jobs_parallel_matches_serial():
    net = random_net(16, 0.3, np.random.default_rng(11))
    serial = ensemble_knockout([net], "error", 8, master_seed=12, jobs=1)
    parallel = ensemble_knockout([net], "error", 8, master_seed=12, jobs=2)
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.std, parallel.std)


def test_ensemble_sampled_uses_fresh_networks():
    spec = NullModelSpec("er", 20, circulant_net(12, 4))
    summary = ensemble_knockout([spec], "error", trials=16, master_seed=21)
    assert summary.n_traces == 16
    assert summary.std[50] > 0  # distinct sampled graphs produce spread
    again = ensemble_knockout([spec], "error", trials=16, master_seed=21)
    assert np.array_equal(summary.mean, again.mean)


@pytest.mark.parametrize("strategy", ["error", "attack"])
def test_ensemble_sources_pool_per_trial_traces(strategy):
    """A spec source knocks out spec.sample(j) in trial j, a network source
    the network itself, each with seed child_seed(master, source index, j);
    the pooled bytes match independent oracle traces for any worker count,
    however the trials of a source are split between workers."""
    from finnet.seeding import child_seed

    spec = NullModelSpec("er", 30, circulant_net(10, 3))
    net = random_net(9, 0.3, np.random.default_rng(31))
    trials, master = 7, 32
    for sources in ([spec, net], [spec], [net]):
        curves = [
            _interp_curve(oracle_knockout(
                source.sample(j) if isinstance(source, NullModelSpec) else source, strategy,
                child_seed(master, i, j))[1])
            for i, source in enumerate(sources)
            for j in range(trials)
        ]
        for jobs in (1, 2, 3):
            summary = ensemble_knockout(sources, strategy, trials, master, jobs=jobs)
            assert summary.n_traces == len(sources) * trials
            assert summary.mean.tobytes() == np.vstack(curves).mean(axis=0).tobytes()
            assert summary.std.tobytes() == np.vstack(curves).std(axis=0).tobytes()


def test_classify_position_basics():
    samples = np.arange(1000, dtype=float)
    lower, upper, position = classify_position(500.0, samples, alpha=0.05)
    assert position == "within"
    assert classify_position(-5.0, samples)[2] == "below"
    assert classify_position(2000.0, samples)[2] == "above"
    assert classify_position(math.nan, samples)[2] == "undefined"
    assert classify_position(1.0, np.full(10, math.nan))[2] == "undefined"
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            classify_position(500.0, samples, alpha=alpha)


def test_classify_position_flips_under_negation():
    rng = np.random.default_rng(13)
    samples = rng.normal(size=500)
    for value in (-3.0, 0.1, 3.0):
        _, _, position = classify_position(value, samples)
        _, _, negated = classify_position(-value, -samples)
        flip = {"below": "above", "above": "below", "within": "within"}
        assert negated == flip[position]


def test_classify_position_bounds_match_sort_oracle():
    rng = np.random.default_rng(14)
    samples = rng.normal(size=1000)
    lower, upper, _ = classify_position(0.0, samples, alpha=0.05)
    assert lower == pytest.approx(oracle_quantile_midpoint(samples, 0.025), abs=1e-12)
    assert upper == pytest.approx(oracle_quantile_midpoint(samples, 0.975), abs=1e-12)


def test_ci_compare_deterministic_null_within():
    slice_ = random_slice(8, np.random.default_rng(15), zero_frac=0.2)
    fit = replace(fit_lognormal(slice_), sigma_corrected=0.0)
    rule = ThresholdRule("A")
    deterministic = AssetSlice(fit.year, fit.countries, sample_lognormal_matrix(fit, np.random.default_rng(0)),
                               fit.gdp, 1.0)
    empirical = measure_vector(rule.apply(deterministic))
    net = rule.apply(deterministic)
    spec = NullModelSpec("log-normal", 16, net, fit=fit, rule=rule)
    (report,) = ci_compare([(empirical, spec)], samples=100, alpha=0.05)
    for entry in report.entries:
        if not math.isnan(entry.empirical):
            assert entry.position == "within"
            assert entry.lower == entry.upper == entry.empirical


def test_ci_compare_forced_above():
    empirical = measure_vector(empty_net(5))  # modified ASPL 4.0
    dense = NullModelSpec("er", 17, circulant_net(5, 4, tuple("ABCDE")))
    (report,) = ci_compare([(empirical, dense)], samples=100)
    assert report.entry("modified_aspl").position == "above"
    # complete digraphs have constant degrees: every assortativity sample is NaN
    assert report.entry("assortativity").n_undefined == 100
    assert report.entry("assortativity").position == "undefined"
    with pytest.raises(KeyError, match="spectral_radius"):
        report.entry("spectral_radius")


def test_ci_compare_jobs_deterministic():
    net = random_net(10, 0.4, np.random.default_rng(18))
    cells = [(measure_vector(net), NullModelSpec(kind, 19, net)) for kind in ("rewiring", "er")]
    serial = ci_compare(cells, samples=128, jobs=1)
    assert [report.model for report in serial] == ["rewiring", "er"]
    for jobs in (2, 3):
        assert ci_compare(cells, samples=128, jobs=jobs) == serial
    assert ci_compare(cells[:1], samples=128, jobs=2) == serial[:1]


@st.composite
def settle_cases(draw):
    """A value (NaN or not), N >= MIN_SAMPLES, alpha, and a seen column of
    NaNs, ties with the value, and values one ulp, 1 or 1e300 below and
    above it. Each tail's count is drawn freely or within 2 of the order
    statistic that the midpoint quantile reads at the most finite draws
    possible, where an off-by-one in the settle rule shows."""
    samples = draw(st.integers(MIN_SAMPLES, 400))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    value = draw(st.sampled_from([0.0, 0.375, -2.5, 3.0, math.nan]))
    nan, ties = draw(st.integers(0, samples // 4)), draw(st.integers(0, 4))
    finite = samples - nan
    low, high = math.floor((finite - 1) * alpha / 2) + 1, finite - math.ceil((finite - 1) * (1 - alpha / 2))
    at_most, at_least = (draw(st.one_of(st.integers(n - 1, n + 2), st.integers(0, samples // 2))) for n in (low, high))
    below, above = max(0, at_most - ties), max(0, at_least - ties)
    hypothesis.assume(nan + ties + below + above <= samples)
    under = draw(st.sampled_from([math.nextafter(value, -math.inf), value - 1.0, -1e300]))
    over = draw(st.sampled_from([math.nextafter(value, math.inf), value + 1.0, 1e300]))
    return value, np.array([math.nan] * nan + [value] * ties + [under] * below + [over] * above), samples, alpha


@settings(max_examples=400, deadline=None)
@given(case=settle_cases())
def test_settled_positions_hold_for_every_completion(case):
    """Whatever the unseen draws are (all NaN, all tied with the value, one
    ulp to either side of it, or +-1e300), a settled value stays within the
    interval of all N draws, or undefined when it is NaN."""
    value, seen, samples, alpha = case
    settled = _settled(value, seen, samples, alpha)
    hypothesis.event(f"settled={settled}")
    if not settled:
        return
    want = "undefined" if math.isnan(value) else "within"
    fills = [math.nan, value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf), -1e300, 1e300]
    for fill in fills:
        full = np.concatenate([seen, np.full(samples - seen.size, fill)])
        assert classify_position(value, full, alpha)[2] == want, fill


def ci_cells():
    """The five families over one small rule-B network: some cells settle
    early, and some hold a position below or above and draw every sample."""
    slice_ = random_slice(8, np.random.default_rng(2))
    rule = ThresholdRule("B")
    net, fit = rule.apply(slice_), fit_lognormal(slice_)
    specs = [NullModelSpec(kind, 40 + i, net, fit=fit if kind == "log-normal" else None, rule=rule)
             for i, kind in enumerate(("er", "out-degree", "in-degree", "rewiring", "log-normal"))]
    return [(measure_vector(net), spec) for spec in specs]


@pytest.mark.parametrize("samples", [100, 101, 1001])
def test_ci_compare_positions_match_full_draw_oracle(samples):
    """Stopping settled cells early leaves every position as the full N draws give it, at any --jobs."""
    cells = ci_cells()
    want = oracle_ci_positions(cells, samples, DEFAULT_ALPHA)
    for jobs in (1, 2):
        reports = ci_compare(cells, samples, jobs=jobs)
        assert [tuple(entry.position for entry in report.entries) for report in reports] == want
        drawn = [report.samples for report in reports]
        assert min(drawn) < samples == max(drawn)


@pytest.mark.parametrize("samples", [100, 101, 1001])
@pytest.mark.parametrize("kind", ["er", "out-degree", "in-degree", "rewiring"])
def test_ci_compare_deterministic_null_settles_after_the_first_stage(kind, samples):
    """On a complete digraph every draw of these families is the digraph
    itself, so each value ties with all its samples (or is NaN) and the
    cell stops after one stage; its report covers that stage's draws."""
    net = complete_net(5)
    (report,) = ci_compare([(measure_vector(net), NullModelSpec(kind, 21, net))], samples)
    assert report.samples == samples // 10
    assert report.entry("assortativity").n_undefined == samples // 10  # constant degrees
    for entry in report.entries:
        if not math.isnan(entry.empirical):
            assert entry.position == "within"
            assert entry.lower == entry.upper == entry.empirical


def _item_rows(task):
    source, i, items, scale = task
    kind = isinstance(source, NullModelSpec)
    return np.array([[kind, i, j, scale] for j in items], dtype=float)


@pytest.mark.parametrize("n_sources", [1, 2, 3, 4])
@pytest.mark.parametrize("count", range(1, 8))
def test_run_ensemble_matches_serial_per_item_loop(n_sources, count, monkeypatch):
    """Whatever its split, the runner hands back each source's rows for
    items 0..count-1 in item order, as a serial per-item loop makes them."""
    net = complete_net(3)
    sources = [NullModelSpec("er", i, net) if i % 2 else net for i in range(n_sources)]
    expected = [np.vstack([_item_rows((source, i, range(j, j + 1), 0.5)) for j in range(count)])
                for i, source in enumerate(sources)]
    monkeypatch.setattr(knockout, "SPEC_BLOCK", 2)
    for jobs in (1, 2, 3):
        rows = _run_ensemble(_item_rows, sources, count, jobs, 0.5)
        assert len(rows) == n_sources
        for got, want in zip(rows, expected):
            assert got.tobytes() == want.tobytes()


def test_run_ensemble_cuts_only_unshared_sources_into_blocks(monkeypatch):
    """A source whose items share a cache stays one task; any other
    source's items go out in equal ranges of at most SPEC_BLOCK items."""
    calls = []
    monkeypatch.setattr(knockout, "run_tasks", lambda fn, tasks, jobs: calls.append(tasks) or list(map(fn, tasks)))
    monkeypatch.setattr(knockout, "SPEC_BLOCK", 4)
    net = complete_net(3)
    _run_ensemble(_item_rows, [net, NullModelSpec("er", 1, net), net], 9, 1, 0.5, shared=[True, False, False])
    (tasks,) = calls
    assert [(i, items) for _, i, items, _ in tasks] == [
        (0, range(9)), (1, range(3)), (1, range(3, 6)), (1, range(6, 9)), (2, range(3)), (2, range(3, 6)), (2, range(6, 9))]


@pytest.mark.parametrize("strategy, ranges", [("error", [range(500), range(500, 1000)]), ("attack", [range(1000)])])
def test_ensemble_knockout_splits_error_networks_like_specs(strategy, ranges, monkeypatch):
    """A network's attack trials share a cache, so the network is one task;
    its error trials share nothing and go out in SPEC_BLOCK ranges."""
    calls = []

    def record(fn, tasks, jobs):
        calls.append(tasks)
        return [np.zeros((len(items), CURVE_GRID.size)) for _, _, items, *_ in tasks]

    monkeypatch.setattr(knockout, "run_tasks", record)
    ensemble_knockout([complete_net(4)], strategy, 1000, master_seed=3)
    (tasks,) = calls
    assert [items for _, _, items, *_ in tasks] == ranges


def paper_size_nets():
    """Digraphs of the paper's size, 50-70 nodes, at the benchmark panel's
    rule-A and rule-B densities (about 0.18 and 0.07), and the stored
    hub-heavy fixture."""
    rng = np.random.default_rng(2011)
    return [random_net(int(rng.integers(50, 71)), p, rng) for p in (0.18, 0.07)] + [load_scalefree64()]


@pytest.mark.parametrize("net", paper_size_nets(), ids=["dense", "sparse", "scalefree64"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_paper_size_traces_match_shrinking_matrix_oracle(net, strategy):
    """At the paper's size the one-call draws run with bounds up to n, and
    attack trials share one cache; every trace matches the oracle's draws
    and series byte for byte."""
    cache = {}
    for seed in range(30):
        assert_trace_matches_oracle(net, strategy, seed, cache if strategy == "attack" else None)


def _report(year, positions):
    entries = tuple(
        CiEntry(name, 0.0, 1.0, 0.5, positions.get(name, "within"), 0) for name in MEASURE_NAMES
    )
    return CiReport("er", "A", year, 0.05, 100, entries)


@pytest.mark.parametrize("years", [1, 9])
def test_ci_table_all_below_scores_minus_one(years):
    reports = [_report(2001 + i, {"modified_aspl": "below"}) for i in range(years)]
    rows = ci_table(reports)
    row = next(r for r in rows if r["measure"] == "modified_aspl")
    assert row["score"] == -1.0
    assert row["below"] == years and row["years"] == years


def test_ci_table_partial_below():
    positions = [{"modified_aspl": "below"}] * 3 + [{}] * 6
    rows = ci_table([_report(2001 + i, p) for i, p in enumerate(positions)])
    row = next(r for r in rows if r["measure"] == "modified_aspl")
    assert row["score"] == pytest.approx(-3 / 9)


def test_ci_table_mixed_nets_to_zero():
    positions = [{"modified_aspl": "above"}] + [{}] * 7 + [{"modified_aspl": "below"}]
    rows = ci_table([_report(2001 + i, p) for i, p in enumerate(positions)])
    row = next(r for r in rows if r["measure"] == "modified_aspl")
    assert row["score"] == 0.0
    assert (row["above"], row["within"], row["below"]) == (1, 7, 1)


def test_curve_grid_is_percent_steps():
    assert CURVE_GRID.size == 101
    assert CURVE_GRID[0] == 0.0 and CURVE_GRID[-1] == 1.0


def test_stored_scalefree64_matches_its_generator():
    from fixtures_gen import scalefree64_adj

    assert np.array_equal(load_scalefree64().adj, scalefree64_adj())
