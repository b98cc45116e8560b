import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finnet import AssetPanel, AssetSlice, DataError, GdpPanel, core_slice, parse_asset_table, parse_gdp_table
from finnet.ingest import ASSET_HEADER as ASSET_COLUMNS
from finnet.ingest import GDP_HEADER as GDP_COLUMNS

from conftest import oracle_core_slice

ASSET_HEADER = "year,holder,issuer,value_musd\n"
GDP_HEADER = "year,country,gdp_musd\n"


def write_table(columns, records) -> bytes:
    """Panel records as CSV under ``columns``, with values that round-trip exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for key in sorted(records):
        writer.writerow([*key, repr(records[key])])
    return out.getvalue().encode()


def test_header_only_gives_empty_panel():
    panel = parse_asset_table(ASSET_HEADER.encode())
    assert len(panel) == 0


def test_single_asset_row():
    panel = parse_asset_table((ASSET_HEADER + "2009,US,JP,100.5\n").encode())
    assert panel.records == {(2009, "US", "JP"): 100.5}


def test_duplicate_asset_key_names_line_3():
    text = ASSET_HEADER + "2009,US,JP,100.5\n2009,US,JP,7\n"
    with pytest.raises(DataError, match="line 3.*duplicate"):
        parse_asset_table(text.encode())


def test_self_holding_rejected():
    with pytest.raises(DataError, match="line 2.*self-holding"):
        parse_asset_table((ASSET_HEADER + "2009,US,US,1\n").encode())


def test_negative_value_rejected():
    with pytest.raises(DataError, match="negative value"):
        parse_asset_table((ASSET_HEADER + "2009,US,JP,-3\n").encode())


def test_unknown_header_rejected():
    with pytest.raises(DataError, match="unknown column header"):
        parse_asset_table(b"year,holder,issuer,value\n")


def test_missing_header_rejected():
    with pytest.raises(DataError, match="missing header"):
        parse_asset_table(b"")


@pytest.mark.parametrize(
    "row",
    ["2009,US,JP", "banana,US,JP,1", "2009,US,JP,abc", "2009,US,JP,nan", "2009,,JP,1",
     '2009,"U,S",JP,1', '2009,US,"J""P",1', '2009,US,"J\nP",1', "2009,US,J\rP,1"],
)
def test_malformed_asset_rows_report_line_2(row):
    with pytest.raises(DataError, match="line 2"):
        parse_asset_table((ASSET_HEADER + row + "\n").encode())


@pytest.mark.parametrize("row", ["2007,GR", "2007,,1", '2007,"G,R",1', '2007,"G""R",1', '2007,"G\rR",1'])
def test_malformed_gdp_rows_report_line_2(row):
    with pytest.raises(DataError, match="line 2"):
        parse_gdp_table((GDP_HEADER + row + "\n").encode())


def test_gdp_single_record():
    panel = parse_gdp_table((GDP_HEADER + "2007,GR,318000\n").encode())
    assert panel.records == {(2007, "GR"): 318000.0}


def test_gdp_nonpositive_rejected():
    with pytest.raises(DataError, match="nonpositive gdp"):
        parse_gdp_table((GDP_HEADER + "2007,GR,0\n").encode())


def test_gdp_duplicate_rejected():
    text = GDP_HEADER + "2007,GR,318000\n2007,GR,999\n"
    with pytest.raises(DataError, match="line 3.*duplicate"):
        parse_gdp_table(text.encode())


codes = st.sampled_from(["AA", "BB", "CC", "DD", "EE"])
values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(
    st.dictionaries(
        st.tuples(st.integers(2001, 2009), codes, codes).filter(lambda k: k[1] != k[2]),
        values,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_asset_roundtrip(records):
    again = parse_asset_table(write_table(ASSET_COLUMNS, AssetPanel(records).records))
    assert again.records == records


@given(st.dictionaries(st.tuples(st.integers(2001, 2009), codes), st.floats(0.001, 1e9), max_size=20))
@settings(max_examples=50)
def test_gdp_roundtrip(records):
    assert parse_gdp_table(write_table(GDP_COLUMNS, GdpPanel(records).records)).records == records


def panel_of(*rows):
    return AssetPanel({(y, h, i): v for y, h, i, v in rows})


def gdp_of(*rows):
    return GdpPanel({(y, c): v for y, c, v in rows})


def test_core_slice_restricts_to_gdp_holders():
    assets = panel_of((2007, "A", "B", 1.0), (2007, "B", "A", 2.0), (2007, "C", "A", 3.0))
    gdp = gdp_of((2007, "A", 10.0), (2007, "B", 10.0))
    slice_ = core_slice(assets, gdp, 2007)
    assert slice_.countries == ("A", "B")
    assert slice_.assets.shape == (2, 2)
    assert slice_.assets[0, 1] == 1.0 and slice_.assets[1, 0] == 2.0


def test_core_slice_coverage_hand_value():
    # A holds 50 in B plus 10 in non-reporter X; B holds 40 in A.
    assets = panel_of((2007, "A", "B", 50.0), (2007, "A", "X", 10.0), (2007, "B", "A", 40.0))
    gdp = gdp_of((2007, "A", 10.0), (2007, "B", 10.0))
    slice_ = core_slice(assets, gdp, 2007)
    assert slice_.coverage == pytest.approx(90.0 / 100.0)


def test_core_slice_errors():
    assets = panel_of((2007, "A", "B", 1.0), (2007, "B", "A", 1.0))
    gdp = gdp_of((2007, "A", 10.0), (2007, "B", 10.0))
    with pytest.raises(DataError, match="absent from asset panel"):
        core_slice(assets, gdp, 2006)
    with pytest.raises(DataError, match="absent from gdp panel"):
        core_slice(assets, gdp_of((2006, "A", 1.0)), 2007)
    with pytest.raises(DataError, match="fewer than 2"):
        core_slice(assets, gdp_of((2007, "A", 10.0)), 2007)


def test_core_slice_idempotent_on_restricted_panel():
    rng = np.random.default_rng(7)
    rows = []
    codes_ = ["A", "B", "C", "D"]
    for h in codes_:
        for i in codes_ + ["X"]:
            if h != i:
                rows.append((2007, h, i, float(np.round(rng.uniform(0, 100), 2))))
    assets = panel_of(*rows)
    gdp = gdp_of(*[(2007, c, 100.0) for c in codes_])
    first = core_slice(assets, gdp, 2007)
    restricted = AssetPanel(
        {
            (2007, h, i): first.assets[first.index(h), first.index(i)]
            for h in first.countries
            for i in first.countries
            if h != i
        }
    )
    second = core_slice(restricted, gdp, 2007)
    assert second.countries == first.countries
    assert np.array_equal(second.assets, first.assets)
    assert second.coverage == pytest.approx(1.0)


def test_coverage_identity():
    rng = np.random.default_rng(11)
    rows = []
    for h in "ABCDE":
        for i in "ABCDEXY":
            if h != i and rng.random() < 0.8:
                rows.append((2007, h, i, float(np.round(rng.uniform(0, 50), 3))))
    assets = panel_of(*rows)
    gdp = gdp_of(*[(2007, c, 100.0) for c in "ABCD"])
    slice_ = core_slice(assets, gdp, 2007)
    holders_total = sum(v for (y, h, i), v in assets.records.items() if y == 2007 and h in slice_.countries)
    assert slice_.coverage * holders_total == pytest.approx(slice_.assets.sum(), rel=1e-9)
    assert slice_.assets.sum() <= holders_total


@st.composite
def slice_panels(draw):
    """Two-year panels in random record order over holders A-E, some without
    GDP, and issuer-only X and Y, with non-integer values; plus a query year
    from 2000-2003, so absent years come up too."""
    keys = [(y, h, i) for y in (2001, 2002) for h in "ABCDE" for i in "ABCDEXY" if h != i]
    order = draw(st.permutations(keys))[: draw(st.integers(0, len(keys)))]
    value = st.one_of(
        st.integers(0, 10**7).map(lambda k: k / 10),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    )
    values = draw(st.lists(value, min_size=len(order), max_size=len(order)))
    gdp_keys = [(y, h) for y in (2001, 2002) for h in "ABCDE"]
    has_gdp = draw(st.lists(st.booleans(), min_size=len(gdp_keys), max_size=len(gdp_keys)))
    gdp = {key: draw(st.floats(min_value=0.01, max_value=1e7)) for key, keep in zip(gdp_keys, has_gdp) if keep}
    return AssetPanel(dict(zip(order, values))), GdpPanel(gdp), draw(st.integers(2000, 2003))


@given(slice_panels())
@settings(max_examples=300, deadline=None)
def test_core_slice_matches_three_scan_oracle(panels):
    assets, gdp, year = panels
    try:
        expected = oracle_core_slice(assets, gdp, year)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            core_slice(assets, gdp, year)
        assert str(raised.value) == str(exc)
        return
    got = core_slice(assets, gdp, year)
    assert got.countries == expected.countries
    assert got.assets.tobytes() == expected.assets.tobytes()
    assert got.gdp.tobytes() == expected.gdp.tobytes()
    assert np.float64(got.coverage).tobytes() == np.float64(expected.coverage).tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_coverage_exactly_one_without_out_of_core_positions(data):
    """One-decimal values whose pairwise matrix sum and record-order total
    differ in the last bit must still give coverage 1, not a DataError."""
    members = data.draw(st.integers(2, 6))
    core = "ABCDEF"[:members]
    keys = [(2007, h, i) for h in core for i in core if h != i] + [(2007, "Z", i) for i in core + "X"]
    order = data.draw(st.permutations(keys))[: data.draw(st.integers(members, len(keys)))]
    values = data.draw(st.lists(st.integers(1, 10**6).map(lambda k: k / 10), min_size=len(order),
                                max_size=len(order)))
    records = dict(zip(order, values))
    holders = {h for _, h, _ in records}
    if not set(core) <= holders:
        return
    gdp = GdpPanel({(2007, c): 1.0 for c in core})
    slice_ = core_slice(AssetPanel(records), gdp, 2007)
    assert slice_.countries == tuple(core)
    assert slice_.coverage == 1.0


def test_slice_validation():
    with pytest.raises(DataError, match="nonzero diagonal"):
        AssetSlice(2007, ("A", "B"), [[1.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.0)
    with pytest.raises(DataError, match="positive"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [0.0, 1.0], 1.0)
    with pytest.raises(DataError, match="at least 2"):
        AssetSlice(2007, ("A",), [[0.0]], [1.0], 1.0)
    with pytest.raises(DataError, match="coverage"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.5)


def test_slice_arrays_read_only():
    slice_ = AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        slice_.assets[0, 1] = 5.0


def test_panel_construction_enforces_invariants():
    with pytest.raises(DataError, match="self-holding"):
        AssetPanel({(2007, "A", "A"): 1.0})
    with pytest.raises(DataError, match="bad value"):
        AssetPanel({(2007, "A", "B"): -1.0})
    with pytest.raises(DataError, match="nonpositive gdp"):
        GdpPanel({(2007, "A"): 0.0})
