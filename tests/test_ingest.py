import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finnet import ingest
from finnet.ingest import AssetPanel, AssetSlice, DataError, GdpPanel, core_slice, parse_asset_table, parse_gdp_table
from finnet.ingest import ASSET_HEADER as ASSET_COLUMNS
from finnet.ingest import GDP_HEADER as GDP_COLUMNS
from finnet.netbuild import BinaryNetwork
from finnet.nullmodels import LogNormalFit

from conftest import (
    asset_panel,
    asset_records,
    gdp_panel,
    gdp_records,
    oracle_core_slice,
    oracle_parse_asset_table,
    oracle_parse_gdp_table,
)

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
    assert asset_records(panel) == {(2009, "US", "JP"): 100.5}
    assert panel.codes == ("JP", "US")
    assert panel.holder.dtype == np.int32 and panel.values.dtype == np.float64


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
     '2009,"U,S",JP,1', '2009,US,"J""P",1', '2009,US,"J\nP",1', "2009,US,J\rP,1",
     "2009,#N/A,JP,1", '2009,US,"#N/A",1'],
)
def test_malformed_asset_rows_report_line_2(row):
    with pytest.raises(DataError, match="line 2"):
        parse_asset_table((ASSET_HEADER + row + "\n").encode())


@pytest.mark.parametrize("rows, bad", [
    # 3 + 5 fields add up to the 8 of two good rows.
    (["2009,US,JP,1", "2009,US,JP", "2009,2009,US,KR,1"], "line 3: expected 4 fields, got 3"),
    # 9 fields hold two good rows and a field where the first row ends.
    (["2009,US,JP,1,X,2009,US,KR,1", "2009,US,DE,1"], "line 2: expected 4 fields, got 9"),
    (["2009,US,DE,1", "2009,US,JP,1,X,2009,US,KR,1"], "line 3: expected 4 fields, got 9"),
])
def test_rows_whose_field_counts_cancel_are_rejected(rows, bad):
    for block_lines in (1, 2, ingest.BLOCK_LINES):
        with pytest.MonkeyPatch.context() as patch, pytest.raises(DataError) as raised:
            patch.setattr(ingest, "BLOCK_LINES", block_lines)
            parse_asset_table((ASSET_HEADER + "\n".join(rows) + "\n").encode())
        assert str(raised.value) == bad


@pytest.mark.parametrize("row", ["2007,GR", "2007,,1", '2007,"G,R",1', '2007,"G""R",1', '2007,"G\rR",1',
                                 "2007,#REF!,1", '2007,"#REF!",1'])
def test_malformed_gdp_rows_report_line_2(row):
    with pytest.raises(DataError, match="line 2"):
        parse_gdp_table((GDP_HEADER + row + "\n").encode())


def test_country_code_beginning_with_hash_is_named():
    """A code such as a spreadsheet's #N/A would be written as an output row
    beginning with '#', which readers skip as a metadata line; the check is
    made on the stripped code, and a '#' inside a code is no such marker."""
    with pytest.raises(DataError, match=r"^line 3: country code '#X' begins with '#'$"):
        parse_asset_table(f"{ASSET_HEADER}2009,US,JP,1\n2009,US, #X ,2\n".encode())
    assert parse_asset_table(f"{ASSET_HEADER}2009,U#S,US,2\n".encode()).codes == ("U#S", "US")


def test_panels_reject_a_code_beginning_with_hash():
    with pytest.raises(DataError, match="must not begin with '#'"):
        AssetPanel(("#N/A", "US"), np.array([2009]), np.array([0]), np.array([1]), np.array([1.0]))
    with pytest.raises(DataError, match="must not begin with '#'"):
        GdpPanel(("#N/A",), np.array([2009]), np.array([0]), np.array([1.0]))


@pytest.mark.parametrize("code", ["A,B", 'A"B', "A\rB", "A\nB"])
def test_panels_reject_a_code_that_outputs_cannot_write_bare(code):
    # Every CSV writer writes codes as bare fields, so the panel is the last place to stop such a code.
    with pytest.raises(DataError, match="comma, a double quote or a line break"):
        AssetPanel((code, "C"), np.array([2009]), np.array([0]), np.array([1]), np.array([1.0]))
    with pytest.raises(DataError, match="comma, a double quote or a line break"):
        GdpPanel((code,), np.array([2009]), np.array([0]), np.array([1.0]))


def test_non_utf8_byte_names_its_line_and_byte():
    data = (ASSET_HEADER + "2009,US,JP,1\n\n2009,J").encode() + b"\xe9P,US,2\n"
    with pytest.raises(DataError, match=r"^line 4: byte 0xe9 is not UTF-8$"):
        parse_asset_table(data)
    with pytest.raises(DataError, match=r"^line 1: byte 0xff is not UTF-8$"):
        parse_gdp_table(b"\xff" + GDP_HEADER.encode())


def test_leading_byte_order_mark_is_accepted():
    bom = "\ufeff"
    for prefix in (bom.encode(), bom):
        rows = ASSET_HEADER + "2009,US,JP,1\n"
        data = prefix + (rows.encode() if isinstance(prefix, bytes) else rows)
        assert asset_records(parse_asset_table(data)) == {(2009, "US", "JP"): 1.0}
    assert gdp_records(parse_gdp_table(bom.encode() + (GDP_HEADER + "2007,GR,3\n").encode())) == {(2007, "GR"): 3.0}
    # Only a leading mark is dropped; one inside the header is an unknown column.
    with pytest.raises(DataError, match="unknown column header"):
        parse_gdp_table((" " + bom + GDP_HEADER).encode())


def test_csv_error_in_header_is_a_data_error_on_line_1():
    with pytest.raises(DataError, match="^line 1: new-line character"):
        parse_asset_table(b"year\rX,holder,issuer,value_musd\n")


def test_year_beyond_64_bits_is_a_data_error():
    with pytest.raises(DataError, match=r"^line 3: year '9{19}' out of range$"):
        parse_asset_table((ASSET_HEADER + "2009,US,JP,1\n" + "9" * 19 + ",US,JP,1\n").encode())


def test_gdp_single_record():
    panel = parse_gdp_table((GDP_HEADER + "2007,GR,318000\n").encode())
    assert gdp_records(panel) == {(2007, "GR"): 318000.0}


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
    again = parse_asset_table(write_table(ASSET_COLUMNS, asset_records(asset_panel(records))))
    assert asset_records(again) == records


@given(st.dictionaries(st.tuples(st.integers(2001, 2009), codes), st.floats(0.001, 1e9), max_size=20))
@settings(max_examples=50)
def test_gdp_roundtrip(records):
    assert gdp_records(parse_gdp_table(write_table(GDP_COLUMNS, gdp_records(gdp_panel(records))))) == records


def panel_of(*rows):
    return asset_panel({(y, h, i): v for y, h, i, v in rows})


def gdp_of(*rows):
    return gdp_panel({(y, c): v for y, c, v in rows})


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
    restricted = asset_panel(
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
    holders_total = sum(v for (y, h, i), v in asset_records(assets).items() if y == 2007 and h in slice_.countries)
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
    return asset_panel(dict(zip(order, values))), gdp_panel(gdp), draw(st.integers(2000, 2003))


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
    gdp = gdp_panel({(2007, c): 1.0 for c in core})
    slice_ = core_slice(asset_panel(records), gdp, 2007)
    assert slice_.countries == tuple(core)
    assert slice_.coverage == 1.0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_coverage_sums_the_holders_in_file_order(data):
    """With 150 or more one-decimal rows in a year, a pairwise sum of the
    holders' total often differs from the sequential sum in the last bit;
    coverage must match the oracle's sequential sum bit for bit."""
    holders = "ABCDEFGHIJKLMNOP"
    keys = [(2007, h, i) for h in holders for i in holders + "XYZ" if h != i]
    order = data.draw(st.permutations(keys))[: data.draw(st.integers(150, 300))]
    values = data.draw(st.lists(st.integers(1, 10**6).map(lambda k: k / 10), min_size=len(order),
                                max_size=len(order)))
    assets = asset_panel(dict(zip(order, values)))
    gdp = gdp_panel({(2007, h): 1.0 for h in holders[:12]})
    expected = oracle_core_slice(assets, gdp, 2007)
    got = core_slice(assets, gdp, 2007)
    assert got.assets.tobytes() == expected.assets.tobytes()
    assert np.float64(got.coverage).tobytes() == np.float64(expected.coverage).tobytes()


def test_slice_validation():
    with pytest.raises(DataError, match="nonzero diagonal"):
        AssetSlice(2007, ("A", "B"), [[1.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.0)
    with pytest.raises(DataError, match="positive"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [0.0, 1.0], 1.0)
    with pytest.raises(DataError, match="at least 2"):
        AssetSlice(2007, ("A",), [[0.0]], [1.0], 1.0)
    with pytest.raises(DataError, match="coverage"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.5)
    with pytest.raises(DataError, match=r"asset matrix shape \(2, 3\)"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0, 1.0], [3.0, 0.0, 1.0]], [1.0, 1.0], 1.0)
    with pytest.raises(DataError, match=r"gdp vector shape \(3,\)"):
        AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0, 1.0], 1.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DataError, match="asset values must be finite and nonnegative"):
            AssetSlice(2007, ("A", "B"), [[0.0, bad], [3.0, 0.0]], [1.0, 1.0], 1.0)


def test_slice_arrays_read_only():
    slice_ = AssetSlice(2007, ("A", "B"), [[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        slice_.assets[0, 1] = 5.0


def test_panel_construction_enforces_invariants():
    with pytest.raises(DataError, match=r"self-holding record \(2007,A,A\)"):
        AssetPanel(("A", "B"), [2007], [0], [0], [1.0])
    with pytest.raises(DataError, match=r"bad value -1.0 for \(2007,A,B\)"):
        AssetPanel(("A", "B"), [2007], [0], [1], [-1.0])
    with pytest.raises(DataError, match="bad value inf"):
        AssetPanel(("A", "B"), [2007], [0], [1], [np.inf])
    with pytest.raises(DataError, match=r"nonpositive gdp 0.0 for \(2007,A\)"):
        GdpPanel(("A",), [2007], [0], [0.0])
    with pytest.raises(DataError, match="nonpositive gdp nan"):
        GdpPanel(("A",), [2007], [0], [np.nan])
    # A dict cannot hold a repeated key, but columns can.
    with pytest.raises(DataError, match=r"repeated record \(2007,A,B\)"):
        AssetPanel(("A", "B"), [2007, 2006, 2007], [0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match=r"repeated record \(2007,B\)"):
        GdpPanel(("A", "B"), [2007, 2007, 2007], [1, 0, 1], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="differ in length"):
        AssetPanel(("A", "B"), [2007, 2008], [0], [1], [1.0])
    with pytest.raises(DataError, match="out of range"):
        AssetPanel(("A", "B"), [2007], [0], [2], [1.0])
    with pytest.raises(DataError, match="out of range"):
        GdpPanel(("A",), [2007], [-1], [1.0])
    with pytest.raises(DataError, match="nonempty, sorted and distinct"):
        AssetPanel(("B", "A"), [2007], [0], [1], [1.0])
    with pytest.raises(DataError, match="nonempty, sorted and distinct"):
        GdpPanel(("A", "A"), [2007], [0], [1.0])
    with pytest.raises(DataError, match="nonempty, sorted and distinct"):
        GdpPanel(("", "A"), [2007], [1], [1.0])


def test_panel_columns_are_read_only_copies():
    years = np.array([2007, 2008])
    panel = AssetPanel(["A", "B"], years, [0, 1], [1, 0], [1.0, 2.0])
    years[0] = 1999
    assert panel.codes == ("A", "B") and panel.years.tolist() == [2007, 2008]
    with pytest.raises(ValueError):
        panel.values[0] = 5.0
    assert len(panel) == 2


# record type, label field, array fields, other fields
FROZEN_RECORDS = {
    "AssetPanel": (AssetPanel, "codes", {"years": [2007, 2008], "holder": [0, 1], "issuer": [1, 0],
                                         "values": [1.0, 2.0]}, {}),
    "GdpPanel": (GdpPanel, "codes", {"years": [2007, 2008], "country": [0, 1], "gdp": [1.0, 2.0]}, {}),
    "AssetSlice": (AssetSlice, "countries", {"assets": [[0.0, 2.0], [3.0, 0.0]], "gdp": [1.0, 2.0]},
                   {"year": 2007, "coverage": 1.0}),
    "BinaryNetwork": (BinaryNetwork, "countries", {"adj": [[False, True], [False, False]]}, {"rule": "A"}),
    "LogNormalFit": (LogNormalFit, "countries", {"alpha": [1.0, 2.0], "beta": [0.0, 1.0], "residuals": [0.5, -0.5],
                                                 "gdp": [1.0, 2.0]},
                     {"sigma_raw": 1.0, "sigma_corrected": 1.2, "correction_factor": 1.2, "year": 2007}),
}


@pytest.mark.parametrize("name", FROZEN_RECORDS)
def test_frozen_records_hold_read_only_copies_and_label_tuples(name):
    record_type, labels, columns, rest = FROZEN_RECORDS[name]
    codes = ["A", "B"]
    arrays = {field: np.array(values) for field, values in columns.items()}
    record = record_type(**{labels: codes}, **arrays, **rest)
    codes.append("C")
    assert type(getattr(record, labels)) is tuple and getattr(record, labels) == ("A", "B")
    for field, array in arrays.items():
        before = array.copy()
        array.flat[1] = array.flat[0]
        assert not np.array_equal(array, before)
        frozen = getattr(record, field)
        assert np.array_equal(frozen, before)
        with pytest.raises(ValueError):
            frozen[...] = array


# ---------------------------------------------------------------------------
# the block parser against the per-line oracle

PADS = st.sampled_from(["", "", " ", "\t", "  ", "\x1c", "\xa0"])
CODES = ("AA", "BB", "CC", "DD", "EE")


def pad(draw, text: str) -> str:
    return draw(PADS) + text + draw(PADS)


def year_field(draw, year: int) -> str:
    return pad(draw, draw(st.sampled_from([str(year), f"0{year}", f"{year // 1000}_{year % 1000:03d}"])))


def code_field(draw, code: str) -> str:
    text = pad(draw, code)
    return f'"{text}"' if draw(st.integers(0, 9)) == 0 else text


def amount_field(draw, positive: bool) -> str:
    text = draw(st.one_of(
        st.integers(int(positive), 10**7).map(str),
        st.integers(int(positive), 10**7).map(lambda k: repr(k / 10)),
        st.tuples(st.integers(int(positive), 999), st.integers(-3, 3), st.sampled_from("eE")).map(
            lambda t: f"{t[0] / 10}{t[2]}{t[1]}"),
    ))
    return pad(draw, text)


def bad_line(draw, gdp: bool, rows: list[tuple]) -> list[str]:
    """One bad line of a random kind (two for a duplicate of a new key)."""
    codes = ["AA"] if gdp else ["AA", "BB"]
    good = ["2007", *codes, "1"]

    def line(**changes):
        fields = list(good)
        for k, v in changes.items():
            fields[int(k[1:])] = v
        return ",".join(fields)

    kind = draw(st.sampled_from(["count", "year", "empty", "self", "negative", "zero", "nan", "inf",
                                 "amount", "duplicate", "comma", "quote", "newline", "cr"]))
    last = f"f{len(good) - 1}"
    if kind == "count":
        return [draw(st.sampled_from([",".join(good[:-1]), ",".join(good + ["1"]), " "]))]
    if kind == "year":
        return [line(f0=draw(st.sampled_from(["20x7", "2007.0", "", " ", "1e3"])))]
    if kind == "empty":
        return [line(f1=draw(st.sampled_from(["", "  ", '""'])))]
    if kind == "self" and not gdp:
        return [line(f2=" AA")]
    if kind in ("negative", "zero", "self"):
        nonpositive = ["-1", "-0.5", "-1e-3"] + (["0", "-0.0", "0e0"] if gdp else [])
        return [line(**{last: draw(st.sampled_from(nonpositive))})]
    if kind in ("nan", "inf"):
        return [line(**{last: draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]))})]
    if kind == "amount":
        return [line(**{last: draw(st.sampled_from(["1..2", "abc", "", "1,5"]))})]
    if kind == "duplicate":
        if rows:
            year, *key = draw(st.sampled_from(rows))
            return [",".join([year_field(draw, year), *(code_field(draw, c) for c in key),
                              amount_field(draw, True)])]
        return [line(), line()]
    if kind == "comma":
        return [line(f1='"A,A"')]
    if kind == "quote":
        return [line(f1='"A""A"')]
    if kind == "newline":
        return [line(f1='"A\nA"')]
    return [line(f1="A\rA")]


@st.composite
def tables(draw, gdp: bool, bad: bool):
    """CSV bytes in the shapes real exports take: padded fields, blank
    lines, CRLF or LF endings, some quoted codes, one-decimal and exponent
    values; with bad, one bad line at a random place among the rows."""
    header = GDP_COLUMNS if gdp else ASSET_COLUMNS
    if gdp:
        keys = st.tuples(st.integers(2001, 2004), st.sampled_from(CODES))
    else:
        keys = st.tuples(st.integers(2001, 2004), st.sampled_from(CODES), st.sampled_from(CODES)).filter(
            lambda k: k[1] != k[2])
    rows = draw(st.lists(keys, unique=True, max_size=14))
    lines = [",".join(pad(draw, name) for name in header)]
    for year, *codes in rows:
        lines.append(",".join([year_field(draw, year), *(code_field(draw, c) for c in codes),
                               amount_field(draw, gdp)]))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    if bad:
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = bad_line(draw, gdp, rows)
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = "".join(line + (draw(st.sampled_from(["\n", "\r\n"])) if ends == "mixed" else ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


def parse_in_blocks_of_3(parse, data: bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "BLOCK_LINES", 3)
        return parse(data)


@pytest.mark.parametrize("gdp", [False, True], ids=["assets", "gdp"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_block_parser_matches_per_line_oracle(gdp, data):
    text = data.draw(tables(gdp, bad=False))
    parse, oracle, records = ((parse_gdp_table, oracle_parse_gdp_table, gdp_records) if gdp
                              else (parse_asset_table, oracle_parse_asset_table, asset_records))
    expected = oracle(text)
    panel = parse_in_blocks_of_3(parse, text)
    got = records(panel)
    assert [(key, value.hex()) for key, value in got.items()] == [
        (key, value.hex()) for key, value in expected.items()]
    assert len(panel.years) == len(expected)
    assert panel.codes == tuple(sorted({code for key in expected for code in key[1:]}))


@pytest.mark.parametrize("gdp", [False, True], ids=["assets", "gdp"])
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_block_parser_names_the_oracles_bad_line(gdp, data):
    text = data.draw(tables(gdp, bad=True))
    parse, oracle = (parse_gdp_table, oracle_parse_gdp_table) if gdp else (parse_asset_table, oracle_parse_asset_table)
    with pytest.raises(DataError) as expected:
        oracle(text)
    with pytest.raises(DataError) as raised:
        parse_in_blocks_of_3(parse, text)
    assert str(raised.value) == str(expected.value)
