"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's algorithms: distances
come from exhaustive simple-path enumeration on small graphs and from
breadth-first search on larger ones, triple statistics from
explicit loops, and cascades from randomized one-at-a-time processing.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations, compress, islice, product
from pathlib import Path

import numpy as np
import pytest

from finnet import knockout, lgd
from finnet.ingest import ASSET_HEADER, GDP_HEADER, AssetPanel, AssetSlice, DataError, GdpPanel
from finnet.netbuild import DEFAULT_GDP_THRESHOLD, BinaryNetwork

DATA_DIR = Path(__file__).parent / "data"

SPL_CAP = 4.0


# ---------------------------------------------------------------------------
# graph constructors


def net_from_adj(adj, labels=None) -> BinaryNetwork:
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    labels = labels or tuple(f"C{i:02d}" for i in range(n))
    return BinaryNetwork(tuple(labels), adj, "test")


def chain_net(n: int = 3) -> BinaryNetwork:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = True
    return net_from_adj(adj)


def complete_net(n: int) -> BinaryNetwork:
    adj = ~np.eye(n, dtype=bool)
    return net_from_adj(adj)


def empty_net(n: int) -> BinaryNetwork:
    return net_from_adj(np.zeros((n, n), dtype=bool))


def random_net(n: int, p: float, rng: np.random.Generator) -> BinaryNetwork:
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    return net_from_adj(adj)


def degree_net(out_seq) -> BinaryNetwork:
    """Loopless digraph in which node i links to the first out_seq[i] other nodes."""
    n = len(out_seq)
    adj = np.zeros((n, n), dtype=bool)
    for i, d in enumerate(out_seq):
        adj[i, [j for j in range(n) if j != i][:d]] = True
    return net_from_adj(adj)


def random_slice(n: int, rng: np.random.Generator, zero_frac: float = 0.3) -> AssetSlice:
    assets = np.round(rng.lognormal(mean=2.0, sigma=1.5, size=(n, n)), 3)
    assets[rng.random((n, n)) < zero_frac] = 0.0
    np.fill_diagonal(assets, 0.0)
    gdp = np.round(rng.uniform(50.0, 500.0, size=n), 3)
    labels = tuple(f"C{i:02d}" for i in range(n))
    return AssetSlice(2007, labels, assets, gdp, 1.0)


def hand_slice() -> AssetSlice:
    """B holds 50 in A (portfolio 80, gdp 100); C holds 1 in each (gdp 100)."""
    assets = np.array(
        [
            [0.0, 0.0, 0.0],  # A
            [50.0, 0.0, 30.0],  # B
            [1.0, 1.0, 0.0],  # C
        ]
    )
    return AssetSlice(2007, ("A", "B", "C"), assets, np.array([100.0, 100.0, 100.0]), 1.0)


def load_scalefree64() -> BinaryNetwork:
    """Stored 64-node hub-heavy fixture used by the robustness tests."""
    text = (DATA_DIR / "scalefree64.csv").read_text().strip().splitlines()
    assert text[0] == "src,dst"
    n = 64
    adj = np.zeros((n, n), dtype=bool)
    for line in text[1:]:
        src, dst = line.split(",")
        adj[int(src), int(dst)] = True
    return net_from_adj(adj)


# ---------------------------------------------------------------------------
# oracles


def oracle_distances(adj: np.ndarray) -> np.ndarray:
    """Shortest directed distances by exhaustive simple-path enumeration."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)

    def walk(start: int, node: int, visited: frozenset[int], length: int) -> None:
        for nxt in range(n):
            if adj[node, nxt] and nxt not in visited:
                if length + 1 < dist[start, nxt]:
                    dist[start, nxt] = length + 1
                walk(start, nxt, visited | {nxt}, length + 1)

    for source in range(n):
        walk(source, source, frozenset({source}), 0)
    return dist


def oracle_bfs_distances(adj: np.ndarray) -> np.ndarray:
    """Shortest directed distances by breadth-first search over successor
    lists, level by level from each source."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    successors = [np.flatnonzero(row).tolist() for row in adj]
    dist = np.full((n, n), np.inf)
    for source in range(n):
        seen = {source: 0}
        frontier, length = [source], 0
        while frontier:
            length += 1
            reached = []
            for node in frontier:
                for nxt in successors[node]:
                    if nxt not in seen:
                        seen[nxt] = length
                        reached.append(nxt)
            frontier = reached
        for node, length in seen.items():
            dist[source, node] = length
    return dist


def oracle_distance_counts(adj: np.ndarray) -> tuple[int, int, int, int]:
    """Ordered pairs at distance 1, 2 and 3, and all ordered pairs: from
    simple-path enumeration up to 8 nodes, where it stays cheap, and from
    breadth-first search above."""
    dist = oracle_distances(adj) if adj.shape[0] <= 8 else oracle_bfs_distances(adj)
    n = adj.shape[0]
    off = ~np.eye(n, dtype=bool)
    values = dist[off]
    return (
        int((values == 1).sum()),
        int((values == 2).sum()),
        int((values == 3).sum()),
        n * (n - 1),
    )


def oracle_modified_aspl(adj: np.ndarray) -> float:
    c1, c2, c3, pairs = oracle_distance_counts(adj)
    return (c1 + 2 * c2 + 3 * c3 + SPL_CAP * (pairs - c1 - c2 - c3)) / pairs


def oracle_fraction_le(adj: np.ndarray, k: int) -> float:
    c1, c2, c3, pairs = oracle_distance_counts(adj)
    within = c1 + c2 if k == 2 else c1 + c2 + c3
    return within / pairs


def oracle_edge_transitivity(adj: np.ndarray) -> float:
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    two_paths = 0
    closed = 0
    for i in range(n):
        for j in range(n):
            if i == j or not adj[i, j]:
                continue
            for k in range(n):
                if k in (i, j) or not adj[j, k]:
                    continue
                two_paths += 1
                if adj[i, k]:
                    closed += 1
    if two_paths == 0:
        return math.nan
    return closed / two_paths


def oracle_avg_clustering(adj: np.ndarray) -> float:
    """Directed clustering by explicit triple enumeration."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    sym = adj.astype(int) + adj.T.astype(int)
    coeffs = []
    for i in range(n):
        triangles = 0
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                triangles += sym[i, j] * sym[j, k] * sym[k, i]
        triangles /= 2.0
        d_total = int(adj[i].sum() + adj[:, i].sum())
        d_bidir = int((adj[i] & adj[:, i]).sum())
        denom = d_total * (d_total - 1) - 2 * d_bidir
        coeffs.append(triangles / denom if denom > 0 else 0.0)
    return float(np.mean(coeffs))


def oracle_measure_vector(adj: np.ndarray) -> np.ndarray:
    """The six statistics in MEASURE_NAMES order, each from its own matrix
    formula with its own float cast and products: capped distances from
    boolean walk counts, assortativity from integer degree sums, clustering
    from diag(sym^3), transitivity from a fresh a @ a."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]

    a = adj.astype(float)
    w2 = a @ a
    w3 = w2 @ a
    off = ~np.eye(n, dtype=bool)
    le1 = adj & off
    le2 = (le1 | (w2 > 0)) & off
    le3 = (le2 | (w3 > 0)) & off
    c1 = int(le1.sum())
    c2 = int(le2.sum()) - c1
    c3 = int(le3.sum()) - c1 - c2
    pairs = n * (n - 1)
    capped = [
        (c1 + c2) / pairs,
        (c1 + c2 + c3) / pairs,
        (c1 + 2 * c2 + 3 * c3 + SPL_CAP * (pairs - c1 - c2 - c3)) / pairs,
    ]

    srcs, dsts = np.nonzero(adj)
    assortativity = math.nan
    if srcs.size:
        x = adj.sum(axis=1)[srcs].astype(float)
        y = adj.sum(axis=0)[dsts].astype(float)
        if np.ptp(x) != 0 and np.ptp(y) != 0:
            xc = x - x.mean()
            yc = y - y.mean()
            assortativity = float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))

    a = adj.astype(float)
    sym = a + a.T
    triangles = np.diagonal(sym @ sym @ sym) / 2.0
    d_total = a.sum(axis=0) + a.sum(axis=1)
    d_bidir = np.diagonal(a @ a)
    denom = d_total * (d_total - 1.0) - 2.0 * d_bidir
    clustering = float(np.divide(triangles, denom, out=np.zeros(n), where=denom > 0).mean())

    a = adj.astype(float)
    w2 = a @ a
    two_paths = float(w2.sum() - np.trace(w2))
    transitivity = math.nan if two_paths == 0 else float((w2 * a).sum()) / two_paths

    return np.array([*capped, assortativity, clustering, transitivity])


def oracle_losses(slice_: AssetSlice, defaulted: np.ndarray, haircut: float) -> np.ndarray:
    """Each country's loss: the haircut times the correctly rounded sum
    (math.fsum) of its exposures to the defaulted set, the sum the cascade
    kernel decides every threshold on."""
    return np.array([haircut * math.fsum(row[defaulted]) for row in slice_.assets])


def oracle_sequential_cascade(
    slice_: AssetSlice,
    initial: set[str],
    d1: float,
    d2: float,
    haircut: float,
    rng: np.random.Generator,
) -> frozenset[str]:
    """Sequential fixed point: default one qualifying country at a time in
    random order until none qualifies."""
    totals = slice_.assets.sum(axis=1)
    defaulted = np.zeros(slice_.n, dtype=bool)
    for code in initial:
        defaulted[slice_.index(code)] = True
    while True:
        loss = oracle_losses(slice_, defaulted, haircut)
        eligible = np.flatnonzero(~defaulted & (loss > d1 * totals) & (loss > d2 * slice_.gdp))
        if eligible.size == 0:
            return frozenset(slice_.countries[i] for i in np.flatnonzero(defaulted))
        defaulted[eligible[rng.integers(eligible.size)]] = True


def oracle_synchronous_rounds(
    slice_: AssetSlice,
    initial: set[str],
    d1: float,
    d2: float,
    haircut: float,
) -> list[frozenset[str]]:
    """Synchronous cascade one country-set at a time: the newly defaulting
    set of each round."""
    totals = slice_.assets.sum(axis=1)
    defaulted = np.zeros(slice_.n, dtype=bool)
    for code in initial:
        defaulted[slice_.index(code)] = True
    rounds = []
    while True:
        loss = oracle_losses(slice_, defaulted, haircut)
        newly = ~defaulted & (loss > d1 * totals) & (loss > d2 * slice_.gdp)
        if not newly.any():
            return rounds
        rounds.append(frozenset(slice_.countries[i] for i in np.flatnonzero(newly)))
        defaulted |= newly


def oracle_enumerate_impacts(slice_: AssetSlice, spec: lgd.LgdSpec, k_max: int = 3) -> list[lgd.ImpactSummary]:
    """Impact summaries with every combination's cascade run from its own
    initial set, BLOCK_ROWS rows per kernel call, sharing nothing between
    combinations or levels."""
    n = slice_.n
    summaries = []
    for k in range(1, k_max + 1):
        combos = combinations(range(n), k)
        counts = []
        while block := list(islice(combos, lgd.BLOCK_ROWS)):
            initial = np.zeros((len(block), n), dtype=bool)
            initial[np.arange(len(block))[:, None], np.array(block)] = True
            d1, d2 = np.full(len(block), spec.d1), np.full(len(block), spec.d2)
            counts.append(np.count_nonzero(lgd.cascade_rounds(slice_, initial, d1, d2, spec.haircut) >= 0, axis=1))
        impacts = np.concatenate(counts) / n
        worst = float(impacts.max())
        argmax = tuple(
            tuple(slice_.countries[i] for i in combo)
            for combo in compress(combinations(range(n), k), impacts == worst)
        )
        top = max(1, math.ceil(0.05 * impacts.size))
        summaries.append(
            lgd.ImpactSummary(
                year=slice_.year,
                spec=spec,
                k=k,
                n_combos=impacts.size,
                mean=float(impacts.mean()),
                worst5_mean=float(np.sort(impacts)[-top:].mean()),
                worst=worst,
                argmax=argmax,
            )
        )
    return summaries


def oracle_bernoulli_null(base: BinaryNetwork, kind: str, rng: np.random.Generator) -> BinaryNetwork:
    """An er, out-degree or in-degree null draw, cell by cell from one
    rng.random((n, n)) matrix: edge i->j when i != j and its uniform falls
    below d_bar / (n - 1) with d_bar the mean out-degree (er), below
    out_i / (n - 1) (out-degree) or below in_j / (n - 1) (in-degree)."""
    n = base.n
    d_bar = float(base.out_degrees().mean())
    out, into = base.out_degrees().tolist(), base.in_degrees().tolist()
    cell_prob = {
        "er": lambda i, j: d_bar / (n - 1),
        "out-degree": lambda i, j: out[i] / (n - 1),
        "in-degree": lambda i, j: into[j] / (n - 1),
    }[kind]
    uniforms = rng.random((n, n))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in product(range(n), repeat=2):
        adj[i, j] = i != j and uniforms[i, j] < cell_prob(i, j)
    return BinaryNetwork(base.countries, adj, kind)


def oracle_threshold_network(slice_: AssetSlice, name: str, t: float = DEFAULT_GDP_THRESHOLD) -> BinaryNetwork:
    """Rule A or B by a loop over the cells i != j: edge i->j when s_ij
    strictly exceeds the mean of row i over its n - 1 counterparties (A),
    or when s_ij / gdp_i strictly exceeds t (B)."""
    n = slice_.n
    adj = np.zeros((n, n), dtype=bool)
    for i, j in product(range(n), repeat=2):
        if i == j:
            continue
        if name == "A":
            adj[i, j] = slice_.assets[i, j] > sum(slice_.assets[i, k] for k in range(n) if k != i) / (n - 1)
        else:
            adj[i, j] = slice_.assets[i, j] / slice_.gdp[i] > t
    return BinaryNetwork(slice_.countries, adj, "A" if name == "A" else f"B(t={t:g})", slice_.year)


def oracle_rewired(net: BinaryNetwork, rng: np.random.Generator, swap_factor: int) -> BinaryNetwork:
    """Degree-preserving swaps on an edge-tuple list and an edge set, testing
    each rejection case explicitly."""
    rows, cols = np.nonzero(net.adj)
    edges = list(zip(rows.tolist(), cols.tolist()))
    m = len(edges)
    label = f"rewired[{net.rule}]"
    if m < 2:
        return BinaryNetwork(net.countries, net.adj, label, net.source_year)
    edge_set = set(edges)
    picks = rng.integers(0, m, size=(swap_factor * m, 2)).tolist()
    for i1, i2 in picks:
        if i1 == i2:
            continue
        a, b = edges[i1]
        c, d = edges[i2]
        if a == d or c == b:
            continue
        new1, new2 = (a, d), (c, b)
        if new1 in edge_set or new2 in edge_set:
            continue
        edge_set.remove((a, b))
        edge_set.remove((c, d))
        edge_set.add(new1)
        edge_set.add(new2)
        edges[i1] = new1
        edges[i2] = new2
    adj = np.zeros((net.n, net.n), dtype=bool)
    idx = np.array(edges)
    adj[idx[:, 0], idx[:, 1]] = True
    return BinaryNetwork(net.countries, adj, label, net.source_year)


def oracle_degree_class(adj: np.ndarray) -> set[bytes]:
    """Every loopless digraph with adj's in- and out-degree sequences, as
    ``adj.tobytes()`` keys, by enumerating all 2^(n(n-1)) edge sets; n <= 4."""
    n = adj.shape[0]
    assert n <= 4
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out_deg, in_deg = adj.sum(axis=1), adj.sum(axis=0)
    found = set()
    for bits in product((False, True), repeat=len(slots)):
        cand = np.zeros((n, n), dtype=bool)
        for (i, j), bit in zip(slots, bits):
            cand[i, j] = bit
        if np.array_equal(cand.sum(axis=1), out_deg) and np.array_equal(cand.sum(axis=0), in_deg):
            found.add(cand.tobytes())
    return found


def oracle_swap_component(adj: np.ndarray) -> set[bytes]:
    """The digraphs reachable from adj by double-edge swaps a->b, c->d to
    a->d, c->b that make no self-loop and no duplicate edge, by BFS, as
    ``adj.tobytes()`` keys."""
    adj = np.asarray(adj, dtype=bool)
    seen = {adj.tobytes()}
    queue = [adj]
    while queue:
        cur = queue.pop()
        for (a, b), (c, d) in combinations(zip(*np.nonzero(cur)), 2):
            if a == d or c == b or cur[a, d] or cur[c, b]:
                continue
            nxt = cur.copy()
            nxt[a, b] = nxt[c, d] = False
            nxt[a, d] = nxt[c, b] = True
            if nxt.tobytes() not in seen:
                seen.add(nxt.tobytes())
                queue.append(nxt)
    return seen


def oracle_knockout(net: BinaryNetwork, strategy: str, seed: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Knockout on a shrinking matrix, with no state shared between trials:
    the removal order and the ASPL series, with the same draws as
    run_knockout. The ASPL itself is the library's, so that the series can
    be compared byte for byte."""
    from finnet.metrics import modified_aspl_adj

    rng = np.random.default_rng(seed)
    adj = net.adj
    labels = list(net.countries)
    series = [modified_aspl_adj(adj)]
    order: list[str] = []
    while len(labels) > 1:
        if strategy == "error":
            victim = int(rng.integers(len(labels)))
        else:
            sums = adj.sum(axis=0) + adj.sum(axis=1)
            best = np.flatnonzero(sums == sums.max())
            victim = int(best[0]) if best.size == 1 else int(best[rng.integers(best.size)])
        order.append(labels.pop(victim))
        keep = np.ones(adj.shape[0], dtype=bool)
        keep[victim] = False
        adj = adj[keep][:, keep]
        series.append(modified_aspl_adj(adj))
    return tuple(order), np.array(series)


# ---------------------------------------------------------------------------
# panels as records


def asset_panel(records: dict[tuple[int, str, str], float]) -> AssetPanel:
    """The columnar panel of (year, holder, issuer) -> value records, rows in dict order."""
    codes = sorted({code for _, holder, issuer in records for code in (holder, issuer)})
    index = {code: k for k, code in enumerate(codes)}
    return AssetPanel(tuple(codes), [y for y, _, _ in records], [index[h] for _, h, _ in records],
                      [index[i] for _, _, i in records], list(records.values()))


def gdp_panel(records: dict[tuple[int, str], float]) -> GdpPanel:
    """The columnar panel of (year, country) -> gdp records, rows in dict order."""
    codes = sorted({country for _, country in records})
    index = {code: k for k, code in enumerate(codes)}
    return GdpPanel(tuple(codes), [y for y, _ in records], [index[c] for _, c in records], list(records.values()))


def asset_records(panel: AssetPanel) -> dict[tuple[int, str, str], float]:
    """A panel's rows as (year, holder, issuer) -> value records, in file order."""
    return {
        (int(y), panel.codes[h], panel.codes[i]): float(v)
        for y, h, i, v in zip(panel.years, panel.holder, panel.issuer, panel.values)
    }


def gdp_records(panel: GdpPanel) -> dict[tuple[int, str], float]:
    """A panel's rows as (year, country) -> gdp records, in file order."""
    return {(int(y), panel.codes[c]): float(g) for y, c, g in zip(panel.years, panel.country, panel.gdp)}


# ---------------------------------------------------------------------------
# the per-line parser: rows are read and checked one at a time into a dict


_ORACLE_SPECIAL = frozenset(',"\r\n')


def _oracle_float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: malformed {what} {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: non-finite {what} {text!r}")
    return value


def _oracle_year(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {lineno}: malformed year {text!r}") from None


def _oracle_rows(data: bytes, header: tuple[str, ...]):
    text = data.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise DataError(f"missing header; expected {','.join(header)}") from None
    if tuple(field.strip() for field in first) != header:
        raise DataError(f"unknown column header {','.join(first)!r}; expected {','.join(header)}")
    quoted = '"' in text
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            if quoted:
                for field in row:
                    if not _ORACLE_SPECIAL.isdisjoint(field):
                        raise DataError(f"line {lineno}: field {field!r} holds a comma, a double quote or a line break")
            yield lineno, [field.strip() for field in row]
    except csv.Error as exc:
        raise DataError(f"line {lineno + 1}: {exc}") from None


def oracle_parse_asset_table(data: bytes) -> dict[tuple[int, str, str], float]:
    """Asset records of a UTF-8 CSV, read one line at a time."""
    records: dict[tuple[int, str, str], float] = {}
    for lineno, (year_s, holder, issuer, value_s) in _oracle_rows(data, ASSET_HEADER):
        year = _oracle_year(year_s, lineno)
        if not holder or not issuer:
            raise DataError(f"line {lineno}: empty country code")
        if holder == issuer:
            raise DataError(f"line {lineno}: self-holding {holder}->{issuer} not allowed")
        value = _oracle_float(value_s, lineno, "value")
        if value < 0:
            raise DataError(f"line {lineno}: negative value {value_s!r}")
        key = (year, holder, issuer)
        if key in records:
            raise DataError(f"line {lineno}: duplicate record for ({year},{holder},{issuer})")
        records[key] = value
    return records


def oracle_parse_gdp_table(data: bytes) -> dict[tuple[int, str], float]:
    """GDP records of a UTF-8 CSV, read one line at a time."""
    records: dict[tuple[int, str], float] = {}
    for lineno, (year_s, country, gdp_s) in _oracle_rows(data, GDP_HEADER):
        year = _oracle_year(year_s, lineno)
        if not country:
            raise DataError(f"line {lineno}: empty country code")
        gdp = _oracle_float(gdp_s, lineno, "gdp")
        if gdp <= 0:
            raise DataError(f"line {lineno}: nonpositive gdp {gdp_s!r}")
        key = (year, country)
        if key in records:
            raise DataError(f"line {lineno}: duplicate record for ({year},{country})")
        records[key] = gdp
    return records


def oracle_core_slice(assets: AssetPanel, gdp: GdpPanel, year: int) -> AssetSlice:
    """Core slice by separate full scans of the records for the years, the
    holders and the matrix, summing the holders' total sequentially in
    record order; the coverage is exactly 1 when no holder has a positive
    value outside."""
    asset_rows, gdp_rows = asset_records(assets), gdp_records(gdp)
    if year not in {y for (y, _, _) in asset_rows}:
        raise DataError(f"year {year} absent from asset panel")
    if year not in {y for (y, _) in gdp_rows}:
        raise DataError(f"year {year} absent from gdp panel")
    holders = {h for (y, h, _) in asset_rows if y == year}
    countries = sorted(h for h in holders if (year, h) in gdp_rows)
    if len(countries) < 2:
        raise DataError(f"year {year}: fewer than 2 countries with both assets and gdp")
    index = {code: i for i, code in enumerate(countries)}
    matrix = np.zeros((len(countries), len(countries)))
    holders_total = 0.0
    for (y, holder, issuer), value in asset_rows.items():
        if y != year or holder not in index:
            continue
        holders_total += value
        if issuer in index:
            matrix[index[holder], index[issuer]] = value
    outside = any(
        value > 0 for (y, holder, issuer), value in asset_rows.items()
        if y == year and holder in index and issuer not in index
    )
    coverage = float(matrix.sum()) / holders_total if outside else 1.0
    gdp_vec = np.array([gdp_rows[(year, c)] for c in countries])
    return AssetSlice(year, tuple(countries), matrix, gdp_vec, coverage)


def oracle_quantile_midpoint(values: np.ndarray, q: float) -> float:
    """Empirical quantile with midpoint interpolation, from first principles."""
    ordered = np.sort(np.asarray(values, dtype=float))
    pos = q * (ordered.size - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    return float((ordered[lo] + ordered[hi]) / 2.0)


# ---------------------------------------------------------------------------
# worker pools


@pytest.fixture(autouse=True)
def three_usable_cpus(monkeypatch):
    """Every test sees a process that may use 3 CPUs, so a test asking for
    2 or 3 workers gets that pool and that split on any host, and none
    starts more than 3 worker processes."""
    monkeypatch.setattr(knockout, "USABLE_CPUS", 3)


# ---------------------------------------------------------------------------
# CLI fixture data


def fixture_panel_text() -> tuple[str, str]:
    """Deterministic two-year, eight-country panel as CSV text."""
    rng = np.random.default_rng(987654321)
    codes = ["AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"]
    asset_lines = ["year,holder,issuer,value_musd"]
    gdp_lines = ["year,country,gdp_musd"]
    for year in (2006, 2007):
        for country in codes:
            gdp_lines.append(f"{year},{country},{round(float(rng.uniform(100, 2000)), 1)}")
        for holder in codes:
            for issuer in codes:
                if holder == issuer:
                    continue
                if rng.random() < 0.35:
                    continue
                value = round(float(rng.lognormal(3.0, 1.4)), 1)
                asset_lines.append(f"{year},{holder},{issuer},{value}")
        # one out-of-core issuer so coverage < 1
        asset_lines.append(f"{year},AAA,XXX,{round(float(rng.uniform(5, 50)), 1)}")
    return "\n".join(asset_lines) + "\n", "\n".join(gdp_lines) + "\n"


@pytest.fixture(scope="session")
def fixture_data_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fixture_data")
    assets, gdp = fixture_panel_text()
    (path / "assets.csv").write_text(assets)
    (path / "gdp.csv").write_text(gdp)
    return path
