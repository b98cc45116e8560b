import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from finnet.metrics import MEASURE_NAMES, _capped_measures, fraction_spl_le, measure_vector, modified_aspl, modified_aspl_adj

from conftest import (
    chain_net,
    complete_net,
    empty_net,
    net_from_adj,
    oracle_avg_clustering,
    oracle_edge_transitivity,
    oracle_fraction_le,
    oracle_measure_vector,
    oracle_modified_aspl,
    random_net,
)


def test_modified_aspl_hand_values():
    assert modified_aspl(complete_net(4)) == 1.0
    assert modified_aspl(empty_net(3)) == 4.0
    assert modified_aspl(chain_net(3)) == pytest.approx(16.0 / 6.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_fraction_spl_le_hand_values():
    assert fraction_spl_le(complete_net(4), 2) == 1.0
    assert fraction_spl_le(chain_net(3), 2) == pytest.approx(0.5)
    for n in (0, 1, 3):
        for k in (2, 3):
            assert fraction_spl_le(empty_net(n), k) == 0.0
    with pytest.raises(ValueError):
        fraction_spl_le(chain_net(3), 4)


def test_assortativity_two_cycle_undefined():
    # A two-cycle beside an isolated node: both edges run from out-degree 1 to in-degree 1.
    net = net_from_adj([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert math.isnan(measure_vector(net).assortativity)


def test_assortativity_against_pearson_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(50):
        net = random_net(8, 0.35, rng)
        srcs, dsts = np.nonzero(net.adj)
        if srcs.size < 2:
            continue
        out_deg = net.adj.sum(axis=1)
        in_deg = net.adj.sum(axis=0)
        x = out_deg[srcs].astype(float)
        y = in_deg[dsts].astype(float)
        value = measure_vector(net).assortativity
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            assert math.isnan(value)
            continue
        expected = stats.pearsonr(x, y).statistic
        assert value == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked > 30


def test_assortativity_symmetric_graph_transpose_invariant():
    rng = np.random.default_rng(9)
    upper = rng.random((6, 6)) < 0.4
    adj = np.triu(upper, 1)
    adj = adj | adj.T
    net = net_from_adj(adj)
    net_t = net_from_adj(adj.T)
    a, b = measure_vector(net).assortativity, measure_vector(net_t).assortativity
    assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-12)


def test_clustering_hand_values():
    assert measure_vector(complete_net(3)).avg_clustering == pytest.approx(1.0)
    assert measure_vector(chain_net(3)).avg_clustering == 0.0
    cycle = net_from_adj([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert measure_vector(cycle).avg_clustering == pytest.approx(oracle_avg_clustering(cycle.adj))
    with pytest.raises(ValueError, match="at least 3 nodes"):
        measure_vector(net_from_adj([[0, 1], [0, 0]]))


def test_clustering_against_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        net = random_net(6, rng.uniform(0.1, 0.7), rng)
        assert measure_vector(net).avg_clustering == pytest.approx(oracle_avg_clustering(net.adj), abs=1e-12)


def test_transitivity_hand_values():
    assert measure_vector(net_from_adj([[0, 1, 1], [0, 0, 1], [0, 0, 0]])).edge_transitivity == 1.0
    assert measure_vector(chain_net(3)).edge_transitivity == 0.0
    assert measure_vector(complete_net(4)).edge_transitivity == 1.0
    assert math.isnan(measure_vector(empty_net(3)).edge_transitivity)


def test_transitivity_against_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        net = random_net(6, rng.uniform(0.1, 0.7), rng)
        expected = oracle_edge_transitivity(net.adj)
        value = measure_vector(net).edge_transitivity
        if math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == expected


def test_capped_measures_small_graphs_against_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        net = random_net(n, rng.uniform(0.0, 0.9), rng)
        assert modified_aspl(net) == oracle_modified_aspl(net.adj)
        assert fraction_spl_le(net, 2) == oracle_fraction_le(net.adj, 2)
        assert fraction_spl_le(net, 3) == oracle_fraction_le(net.adj, 3)


@pytest.mark.parametrize("n", [30, 60, 100, 150])
@pytest.mark.parametrize("p", [0.18, 0.07, 1.0], ids=["dense", "sparse", "complete"])
def test_capped_measures_paper_size_graphs_against_search(n, p):
    """At and beyond the paper's size, where the ASPL kernel's float32 walk
    counts reach n**2, every capped measure equals the breadth-first oracle's."""
    rng = np.random.default_rng(n)
    for net in [random_net(n, p, rng) for _ in range(3 if p < 1 else 1)]:
        assert modified_aspl(net) == oracle_modified_aspl(net.adj)
        assert fraction_spl_le(net, 2) == oracle_fraction_le(net.adj, 2)
        assert fraction_spl_le(net, 3) == oracle_fraction_le(net.adj, 3)


@st.composite
def cycle_digraphs(draw):
    """Disjoint directed 2- and 3-cycles over the nodes in a drawn order, and
    a few more edges: each cycle node reaches itself in two or three steps."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    adj = np.zeros((n, n), dtype=bool)
    start = 0
    while n - start >= 2:
        cycle = order[start:start + min(draw(st.sampled_from([2, 3])), n - start)]
        adj[cycle, cycle[1:] + cycle[:1]] = True
        start += len(cycle)
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        adj[i, j] = True
    np.fill_diagonal(adj, False)
    return adj


@given(adj=cycle_digraphs())
@example(adj=np.array([[0, 1], [1, 0]], dtype=bool))
@example(adj=np.roll(np.eye(3, dtype=bool), 1, axis=1))
@example(adj=np.roll(np.eye(5, dtype=bool), 1, axis=1) | np.roll(np.eye(5, dtype=bool), -1, axis=1))
@settings(max_examples=200, deadline=None)
def test_capped_measures_take_cycles_off_the_diagonal(adj):
    a = adj.astype(float)
    w2 = a @ a
    assert np.diagonal(w2).any() or np.diagonal(w2 @ a).any()
    assert _capped_measures(adj, a, w2) == (
        oracle_fraction_le(adj, 2), oracle_fraction_le(adj, 3), oracle_modified_aspl(adj))


def test_aspl_fraction_identity():
    rng = np.random.default_rng(41)
    for _ in range(50):
        net = random_net(10, rng.uniform(0.05, 0.6), rng)
        f1 = net.num_edges / (net.n * (net.n - 1))
        f2 = fraction_spl_le(net, 2) - f1
        f3 = fraction_spl_le(net, 3) - f1 - f2
        assert modified_aspl(net) == pytest.approx(4.0 - 3.0 * f1 - 2.0 * f2 - f3, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50)
def test_aspl_monotone_under_edge_addition(seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((7, 7)) < 0.3
    np.fill_diagonal(adj, False)
    before = modified_aspl_adj(adj)
    missing = np.argwhere(~adj & ~np.eye(7, dtype=bool))
    if missing.size == 0:
        return
    i, j = missing[rng.integers(len(missing))]
    adj[i, j] = True
    assert modified_aspl_adj(adj) <= before


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30)
def test_measures_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    net = random_net(7, 0.4, rng)
    perm = rng.permutation(7)
    relabeled = net_from_adj(net.adj[np.ix_(perm, perm)], labels=[net.countries[p] for p in perm])
    for original, permuted in zip(measure_vector(net).as_array(), measure_vector(relabeled).as_array()):
        assert (math.isnan(original) and math.isnan(permuted)) or original == pytest.approx(permuted, abs=1e-12)


@given(n=st.integers(3, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       sinks=st.sets(st.integers(0, 11)), sources=st.sets(st.integers(0, 11)))
@example(n=3, density=0.0, seed=0, sinks=set(), sources=set())
@example(n=12, density=1.0, seed=0, sinks=set(), sources=set())
@example(n=6, density=1.0, seed=0, sinks=set(range(1, 6)), sources=set())
@example(n=6, density=1.0, seed=0, sinks={3, 4, 5}, sources={0, 1, 2})
@example(n=7, density=0.5, seed=1, sinks={0, 6}, sources={0, 3})
@settings(max_examples=300)
def test_measure_vector_matches_referee_bitwise(n, density, seed, sinks, sources):
    """Bit for bit against the referee, also with nodes of zero out-degree
    (``sinks``) or zero in-degree (``sources``), which no edge endpoint lists."""
    adj = random_net(n, density, np.random.default_rng(seed)).adj.copy()
    adj[[v for v in sinks if v < n], :] = False
    adj[:, [v for v in sources if v < n]] = False
    net = net_from_adj(adj)
    vec = measure_vector(net)
    assert vec.as_array().tobytes() == oracle_measure_vector(net.adj).tobytes()
    assert [field.name for field in fields(vec)] == list(MEASURE_NAMES)
