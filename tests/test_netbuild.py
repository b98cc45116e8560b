import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finnet.ingest import AssetSlice
from finnet.netbuild import (
    DEFAULT_GDP_THRESHOLD,
    RULE_NAMES,
    BinaryNetwork,
    ThresholdRule,
    average_gdp_exposure,
    weight_class,
    weighted_edges,
)

from conftest import oracle_threshold_network


def slice3(row_aa=(0.0, 10.0, 10.0), gdp=(100.0, 100.0, 100.0)):
    assets = np.zeros((3, 3))
    assets[0] = row_aa
    return AssetSlice(2007, ("AA", "BB", "CC"), assets, np.array(gdp), 1.0)


def test_rule_a_tie_produces_no_edge():
    net = ThresholdRule("A").apply(slice3((0.0, 10.0, 10.0)))
    assert net.edges() == []  # row mean 10, 10 > 10 is false


def test_rule_a_single_above_average_edge():
    net = ThresholdRule("A").apply(slice3((0.0, 30.0, 10.0)))
    assert net.edges() == [("AA", "BB")]


def test_rule_a_uniform_matrix_empty():
    assets = np.full((4, 4), 7.0)
    np.fill_diagonal(assets, 0.0)
    slice_ = AssetSlice(2007, ("A", "B", "C", "D"), assets, np.ones(4), 1.0)
    assert ThresholdRule("A").apply(slice_).num_edges == 0


def test_rule_b_hand_values():
    slice_ = slice3((0.0, 5.0, 4.17))
    net = ThresholdRule("B", 0.0417).apply(slice_)
    assert ("AA", "BB") in net.edges()  # 0.05 > 0.0417
    assert ("AA", "CC") not in net.edges()  # 0.0417 > 0.0417 is false


def test_rule_b_huge_threshold_empty():
    slice_ = slice3((0.0, 5.0, 4.17))
    assert ThresholdRule("B", 1e12).apply(slice_).num_edges == 0


def test_rule_b_requires_positive_t():
    for t in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite threshold"):
            ThresholdRule("B", t)


def test_average_gdp_exposure_hand_value():
    assets = np.array([[0.0, 10.0], [0.0, 0.0]])
    slice_ = AssetSlice(2007, ("A", "B"), assets, np.array([100.0, 100.0]), 1.0)
    assert average_gdp_exposure(slice_) == pytest.approx(0.05)


def test_average_gdp_exposure_zero_matrix():
    slice_ = AssetSlice(2007, ("A", "B"), np.zeros((2, 2)), np.ones(2), 1.0)
    assert average_gdp_exposure(slice_) == 0.0


positive_scale = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@given(scale=positive_scale, seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_rule_a_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    assets = rng.uniform(0, 100, (5, 5))
    np.fill_diagonal(assets, 0.0)
    gdp = rng.uniform(1, 100, 5)
    labels = tuple("ABCDE")
    base = ThresholdRule("A").apply(AssetSlice(2007, labels, assets, gdp, 1.0))
    scaled = ThresholdRule("A").apply(AssetSlice(2007, labels, assets * scale, gdp, 1.0))
    assert np.array_equal(base.adj, scaled.adj)


@given(scale=positive_scale, seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_rule_b_joint_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    assets = rng.uniform(0, 100, (5, 5))
    np.fill_diagonal(assets, 0.0)
    gdp = rng.uniform(1, 100, 5)
    labels = tuple("ABCDE")
    base = ThresholdRule("B", 0.3).apply(AssetSlice(2007, labels, assets, gdp, 1.0))
    scaled = ThresholdRule("B", 0.3).apply(AssetSlice(2007, labels, assets * scale, gdp * scale, 1.0))
    assert np.array_equal(base.adj, scaled.adj)


@given(seed=st.integers(0, 10_000), t=st.floats(0.01, 0.5), factor=st.floats(1.0, 10.0))
@settings(max_examples=40)
def test_rule_b_monotone_in_threshold(seed, t, factor):
    rng = np.random.default_rng(seed)
    assets = rng.uniform(0, 100, (6, 6))
    np.fill_diagonal(assets, 0.0)
    slice_ = AssetSlice(2007, tuple("ABCDEF"), assets, rng.uniform(50, 500, 6), 1.0)
    loose = ThresholdRule("B", t).apply(slice_)
    tight = ThresholdRule("B", t * factor).apply(slice_)
    assert set(tight.edges()) <= set(loose.edges())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_rule_a_positive_row_properties(seed):
    rng = np.random.default_rng(seed)
    assets = rng.uniform(0.1, 100, (5, 5))
    np.fill_diagonal(assets, 0.0)
    slice_ = AssetSlice(2007, tuple("ABCDE"), assets, np.ones(5), 1.0)
    net = ThresholdRule("A").apply(slice_)
    out = net.out_degrees()
    for i in range(5):
        row = np.delete(assets[i], i)
        if len(set(row)) >= 2:
            assert out[i] >= 1  # strict mean comparison beats at least one entry
        elif len(set(row)) == 1 and row[0] > 0:
            assert out[i] == 0


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7), name=st.sampled_from("AB"),
       t=st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0]))
@settings(max_examples=100)
def test_threshold_rule_matches_the_cell_loop_oracle(seed, n, name, t):
    # Integer positions and GDPs keep row sums exact and make ties common.
    rng = np.random.default_rng(seed)
    assets = rng.integers(0, 6, (n, n)).astype(float)
    np.fill_diagonal(assets, 0.0)
    gdp = rng.integers(1, 40, n).astype(float)
    slice_ = AssetSlice(2003, tuple(f"K{i}" for i in range(n)), assets, gdp, 1.0)
    got, want = ThresholdRule(name, t).apply(slice_), oracle_threshold_network(slice_, name, t)
    assert got.adj.tobytes() == want.adj.tobytes()
    assert (got.countries, got.rule, got.source_year) == (want.countries, want.rule, want.source_year)


def test_weight_class_boundaries():
    assert weight_class(3.0, 1.0) == 2  # 3x: in [2, 4)
    assert weight_class(17.0, 1.0) == 5
    assert weight_class(1.0, 1.0) == 1
    assert weight_class(16.0, 1.0) == 5
    assert weight_class(15.999, 1.0) == 4
    assert weight_class(0.5, 1.0) == 1
    assert weight_class(3.0, 0.0) == 1  # a holder with no average exposure
    assert weight_class(3.0, -1.0) == 1


def test_export_empty_network_no_rows():
    slice_ = slice3((0.0, 10.0, 10.0))
    net = ThresholdRule("A").apply(slice_)
    assert weighted_edges(net, slice_) == []


def test_export_weight_classes():
    # AA row: (0, 60, 4, 0), n = 4; only AA->BB is above AA's average
    assets = np.array([[0.0, 60.0, 4.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    labels = ("AA", "BB", "CC", "DD")
    slice_ = AssetSlice(2007, labels, assets, np.full(4, 10.0), 1.0)
    net = ThresholdRule("A").apply(slice_)
    # AA average = 64 / (n - 1) = 21.33; 60 / 21.33 = 2.8x in [2, 4) -> class 2
    assert ("AA", "BB", 2) in weighted_edges(net, slice_)


def test_export_respects_ratios():
    # single edge with s = 3x row average: other entries fill the average
    assets = np.zeros((4, 4))
    assets[0] = [0.0, 9.0, 1.5, 1.5]  # mean 4.0; 9/4 = 2.25 -> class 2
    slice_ = AssetSlice(2007, ("A", "B", "C", "D"), assets, np.ones(4), 1.0)
    net = ThresholdRule("A").apply(slice_)
    assert weighted_edges(net, slice_) == [("A", "B", 2)]


def test_export_below_average_edge_is_class_1():
    # rule B can keep edges below the row's average exposure
    assets = np.array([[0.0, 5.0, 95.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    slice_ = AssetSlice(2007, ("AA", "BB", "CC"), assets, np.full(3, 10.0), 1.0)
    net = ThresholdRule("B", 0.3).apply(slice_)  # both 5/10 and 95/10 exceed t
    # AA average = 100 / (n - 1) = 50; AA->BB: 5 / 50 = 0.1x, below 1 -> class 1;
    # AA->CC: 95 / 50 = 1.9x, below the first bound 2 -> class 1
    assert weighted_edges(net, slice_) == [("AA", "BB", 1), ("AA", "CC", 1)]


def test_export_rows_sorted_by_holder_and_issuer():
    assets = np.array([[0.0, 1.0, 9.0], [9.0, 0.0, 1.0], [1.0, 9.0, 0.0]])
    slice_ = AssetSlice(2007, ("CC", "AA", "BB"), assets, np.ones(3), 1.0)
    net = ThresholdRule("A").apply(slice_)
    # each row average is 5; every 9 is 1.8x, below the first bound 2 -> class 1
    assert weighted_edges(net, slice_) == [("AA", "CC", 1), ("BB", "AA", 1), ("CC", "BB", 1)]
    # row-major order would put CC's edge first
    assert net.edges() == [("AA", "CC"), ("BB", "AA"), ("CC", "BB")]


def test_export_mismatched_countries():
    slice_ = slice3()
    net = BinaryNetwork(("X", "Y", "Z"), np.zeros((3, 3), dtype=bool), "test")
    with pytest.raises(ValueError, match="country lists differ"):
        weighted_edges(net, slice_)


def test_threshold_rule_labels():
    assert ThresholdRule("A").label == "A"
    assert ThresholdRule("B").label == f"B(t={DEFAULT_GDP_THRESHOLD:g})"
    assert ThresholdRule("B", 0.25).label == "B(t=0.25)"
    for name in ("C", "above-average", "gdp-fraction"):
        with pytest.raises(ValueError, match="expected A or B"):
            ThresholdRule(name)
    assert [ThresholdRule(name).name for name in RULE_NAMES] == ["A", "B"]


def test_network_validation():
    with pytest.raises(ValueError, match="self-loops"):
        BinaryNetwork(("A", "B"), np.eye(2, dtype=bool), "test")
    with pytest.raises(ValueError, match="shape"):
        BinaryNetwork(("A", "B"), np.zeros((3, 3), dtype=bool), "test")
