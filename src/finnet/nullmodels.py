"""Null-model graph families and the censored log-normal asset model.

Five families are matched to first-order statistics of an empirical
network: uniform edge probability (Erdos-Renyi), per-row and per-column
edge probabilities from the empirical out-/in-degree sequences,
degree-preserving edge rewiring, and a fitted log-normal asset model
whose generated slices are re-thresholded into binary networks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .ingest import AssetSlice, _freeze
from .netbuild import BinaryNetwork, ThresholdRule
from .seeding import child_rng

DEFAULT_SIGMA_CORRECTION = 1.183
DEFAULT_SWAP_FACTOR = 20
# 50 times the paper's 20; at the bound a draw over m edges peaks at 1000 * m * 32 bytes.
MAX_SWAP_FACTOR = 1000
CENSOR_FLOOR_MUSD = 0.5

NULL_MODEL_KINDS = ("er", "out-degree", "in-degree", "rewiring", "log-normal")


@dataclass(frozen=True)
class LogNormalFit:
    """Fitted two-way country-effect model of log asset positions.

    The model is ln(s_ij + 1) = alpha_i + beta_j + eps over ordered pairs
    i != j, with censored zeros included as ln(1) = 0. The issuer effect
    of ``countries[0]`` is pinned to zero to identify the coefficients;
    residuals and sigma do not depend on that choice.
    ``sigma_raw`` is the maximum-likelihood residual standard deviation
    (divisor N); ``sigma_corrected`` multiplies it by the censoring
    correction factor.
    """

    countries: tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    sigma_raw: float
    sigma_corrected: float
    correction_factor: float
    residuals: np.ndarray
    year: int | None = None
    gdp: np.ndarray | None = None

    def __post_init__(self) -> None:
        gdp = {} if self.gdp is None else {"gdp": np.float64}
        _freeze(self, "countries", alpha=np.float64, beta=np.float64, residuals=np.float64, **gdp)

    def residual_summary(self) -> dict[str, float]:
        res = self.residuals
        mean, m2, skew, kurt = _moments(res)
        if m2 > 0 and res.size >= 8:
            stat, p = jarque_bera(res)
        else:
            stat = p = math.nan
        return {
            "mean": mean,
            "std": float(res.std()),
            "skew": skew,
            "kurtosis": kurt,
            "jarque_bera": stat,
            "p_value": p,
        }

    def to_json_dict(self) -> dict:
        """The fit as JSON values; an undefined residual statistic is None (null)."""
        summary = {key: None if math.isnan(value) else value for key, value in self.residual_summary().items()}
        return {
            "countries": list(self.countries),
            "alpha": [float(a) for a in self.alpha],
            "beta": [float(b) for b in self.beta],
            "sigma_raw": self.sigma_raw,
            "sigma_corrected": self.sigma_corrected,
            "correction_factor": self.correction_factor,
            "baseline_issuer": self.countries[0],
            "year": self.year,
            "residual_summary": summary,
        }


def _offdiag_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the n*(n-1) ordered pairs, row-major."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _design_matrix(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Holder dummies plus issuer dummies with country 0's issuer column dropped."""
    x = np.zeros((rows.size, 2 * n - 1))
    x[np.arange(rows.size), rows] = 1.0
    keep = cols != 0
    x[keep, n - 1 + cols[keep]] = 1.0
    return x


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and residuals of the least-squares fit of ``y`` (a vector, or a column per fit) on ``x``."""
    theta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise ValueError("design matrix rank deficient beyond the dummy redundancy")
    return theta, y - x @ theta


def _fit(
    slices: list[AssetSlice],
    countries: tuple[str, ...],
    correction_factor: float,
    year: int | None = None,
    gdp: np.ndarray | None = None,
) -> LogNormalFit:
    """Least-squares fit of ln(s_ij + 1) over the ordered pairs of every
    slice, on holder and issuer effects indexed by ``countries``."""
    if not 0.0 <= correction_factor < math.inf:
        raise ValueError("correction_factor must be finite and >= 0")
    n = len(countries)
    if n < 3:
        raise ValueError("fit needs at least 3 countries")
    index = {c: i for i, c in enumerate(countries)}
    rows, cols, y = [], [], []
    for s in slices:
        i, j = _offdiag_pairs(s.n)
        local = np.array([index[c] for c in s.countries])
        rows.append(local[i])
        cols.append(local[j])
        y.append(np.log1p(s.assets[i, j]))
    x = _design_matrix(n, np.concatenate(rows), np.concatenate(cols))
    theta, residuals = _least_squares(x, np.concatenate(y))
    sigma_raw = float(np.sqrt((residuals**2).mean()))
    sigma_corrected = correction_factor * sigma_raw
    if not math.isfinite(sigma_corrected):
        raise ValueError(f"correction_factor {correction_factor:g} times sigma {sigma_raw:g} overflows")
    return LogNormalFit(
        countries=countries,
        alpha=theta[:n],
        beta=np.insert(theta[n:], 0, 0.0),
        sigma_raw=sigma_raw,
        sigma_corrected=sigma_corrected,
        correction_factor=correction_factor,
        residuals=residuals,
        year=year,
        gdp=gdp,
    )


def fit_lognormal(slice_: AssetSlice, correction_factor: float = DEFAULT_SIGMA_CORRECTION) -> LogNormalFit:
    """Least-squares fit of ln(s_ij + 1) on holder and issuer effects, in the slice's country order."""
    return _fit([slice_], slice_.countries, correction_factor, slice_.year, slice_.gdp)


def fit_lognormal_pooled(slices: list[AssetSlice], correction_factor: float = DEFAULT_SIGMA_CORRECTION) -> LogNormalFit:
    """One fit over several years with country effects shared across years,
    over the sorted union of their countries.

    Pooled fits have no single year or GDP vector, so a log-normal
    ``NullModelSpec`` refuses them; it needs a per-year fit.
    """
    if not slices:
        raise ValueError("need at least one slice")
    return _fit(slices, tuple(sorted({c for s in slices for c in s.countries})), correction_factor)


def draw_lognormal(mu: np.ndarray, sigma: float, shape: tuple[int, ...], rng: np.random.Generator,
                   censor_floor: float | None, rounding: bool) -> np.ndarray:
    """Positions expm1(mu + eps), eps ~ N(0, sigma) at ``shape``, zeroed
    below ``censor_floor`` (unless None) and rounded if ``rounding``: the
    generator that both the null model and the sigma correction draw from."""
    s = np.expm1(mu + rng.normal(0.0, sigma, size=shape))
    if censor_floor is not None:
        s = np.where(s < censor_floor, 0.0, s)
    if rounding:
        s = np.rint(s)
    return s


def sample_lognormal_matrix(fit: LogNormalFit, rng: np.random.Generator,
                            censor_floor: float | None = CENSOR_FLOOR_MUSD, rounding: bool = True) -> np.ndarray:
    """One draw of ``fit``'s asset matrix, with a zero diagonal.

    ``censor_floor=None`` disables the floor entirely (diagnostics; raw
    draws below exp(mu) = 1 can then be negative and the matrix cannot be
    wrapped in a slice).
    """
    n = len(fit.countries)
    mu = fit.alpha[:, None] + fit.beta[None, :]
    s = draw_lognormal(mu, fit.sigma_corrected, (n, n), rng, censor_floor, rounding)
    np.fill_diagonal(s, 0.0)
    return s


def estimate_sigma_correction(
    alpha: np.ndarray,
    beta: np.ndarray,
    sigma: float,
    censor_floor: float = CENSOR_FLOOR_MUSD,
    trials: int = 200,
    rng: np.random.Generator | None = None,
    rounding: bool = True,
) -> float:
    """Monte-Carlo estimate of the sigma bias factor due to censoring.

    Draws ``trials`` synthetic slices from (alpha, beta, sigma) through
    :func:`draw_lognormal`, refits, and returns the mean of
    sigma / sigma_refit. The refit sigma uses the degrees-of-freedom
    divisor N - k so an uncensored refit recovers the generating sigma in
    expectation and the returned factor isolates the censoring/rounding
    bias; it is finite only with 2 or more degrees of freedom, so n >= 4.
    All trials are one ``(trials, n(n-1))`` normal draw (the stream of one
    draw per trial) and one least-squares solve, a column per trial; the
    matrix is held at once, about 5.7 MB at n = 60 and 200 trials.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = alpha.size
    if beta.size != n or n < 4:
        raise ValueError("alpha and beta must both have length n >= 4")
    if rng is None:
        rng = np.random.default_rng()
    rows, cols = _offdiag_pairs(n)
    num_obs = rows.size
    mu = (alpha[:, None] + beta[None, :])[rows, cols]
    s = draw_lognormal(mu, sigma, (trials, num_obs), rng, censor_floor, rounding)
    _, residuals = _least_squares(_design_matrix(n, rows, cols), np.log1p(s).T)
    rss = (residuals**2).sum(axis=0)
    if not np.all(rss > 0):
        raise ValueError("degenerate refit: censoring removed all variation")
    return float((sigma / np.sqrt(rss / (num_obs - (2 * n - 1)))).mean())


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, second central moment, skewness and kurtosis of a sample;
    skewness and kurtosis are 0.0 when the second moment is not positive."""
    mean = float(x.mean())
    centered = x - mean
    m2 = float((centered**2).mean())
    if not m2 > 0:
        return mean, m2, 0.0, 0.0
    return mean, m2, float((centered**3).mean() / m2**1.5), float((centered**4).mean() / m2**2)


def jarque_bera(residuals: np.ndarray) -> tuple[float, float]:
    """Jarque-Bera normality statistic and its chi-squared(2) tail p-value.

    JB = (N/6) * (skew^2 + (kurtosis - 3)^2 / 4); with two degrees of
    freedom the upper tail is exp(-JB / 2).
    """
    x = np.asarray(residuals, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 residuals")
    _, m2, skew, kurt = _moments(x)
    if not m2 > 0:
        raise ValueError("zero variance residuals")
    jb = x.size / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return jb, math.exp(-jb / 2.0)


@dataclass(frozen=True)
class NullModelSpec:
    """One null-model family over the empirical network ``base``, of at
    least 2 nodes.

    er, out-degree and in-degree are one Bernoulli digraph: the spec reads
    its edge probability ``prob`` from ``base`` once, as the mean
    out-degree over n - 1 (a scalar), the out-degrees over n - 1 (a column,
    one per source) or the in-degrees over n - 1 (a row, one per target),
    an array read-only like ``swap_tables``. Log-normal re-thresholds by
    ``rule`` a slice of :func:`sample_lognormal_matrix` (censored,
    rounded, never negative) with the GDP of ``fit``, a per-year fit, and
    coverage 1.0; ``rule`` must carry ``base``'s rule label, and ``fit``
    its countries and year. The (seed, index) pair fully determines the
    draw, so ensembles are reproducible under any scheduling.

    Rewiring is degree-preserving randomization by pairwise edge swaps:
    ``swap_factor * m`` attempted swaps over the m edges of ``base``
    (a->b, c->d becomes a->d, c->b), rejecting any swap that would create
    a self-loop or a duplicate edge. Every node keeps its exact in- and
    out-degree, and a base with fewer than 2 edges comes back as a copy.
    The only random draw is one ``rng.integers(0, m, size=(swap_factor * m, 2))``;
    row t holds the two edges, numbered in row-major order, of attempt t.
    The spec builds the chain's start ``swap_tables`` once and never
    changes it: a read-only object array of the Python ints 0..m-1 (edge
    ids), each edge's source and target as tuples of ints, and the
    occupancy as a tuple of n row tuples of bools with the diagonal set.
    For edges a->b and c->d an attempt tests d in a's row and b in c's
    row. A self-loop hits the diagonal; two edges of one source, or one
    edge twice, share a row in which d is live, so the first test rejects
    them. The attempts' ids are gathered from the object array, so the
    loop reads ints that already exist instead of boxing a new one for
    every value past CPython's small-int cache (256). The picks are freed
    once gathered, so a draw peaks at 32 bytes per attempt
    (``tracemalloc``), about 114 MB at MAX_SWAP_FACTOR on a complete
    60-node graph.

    ``seed`` is an integer >= 0 and ``swap_factor`` one in
    1..MAX_SWAP_FACTOR; bools are refused and numpy integers are stored
    as ints, so a bad value fails when the spec is made, not at a draw in
    a worker.

    The chain stays in the start's swap component, which can be smaller
    than the set of all digraphs with its degrees: directed swaps need a
    3-cycle reorientation move to connect that set (Berger &
    Müller-Hannemann 2010). A directed 3-cycle, for one, has no valid
    swap and comes back unchanged, though its reverse has the same
    degrees.
    """

    kind: str
    seed: int
    base: BinaryNetwork
    swap_factor: int = DEFAULT_SWAP_FACTOR
    fit: LogNormalFit | None = None
    rule: ThresholdRule | None = None
    prob: float | np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    swap_tables: tuple[np.ndarray, tuple[int, ...], tuple[int, ...], tuple[tuple[bool, ...], ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in NULL_MODEL_KINDS:
            raise ValueError(f"unknown null-model kind {self.kind!r}")
        if self.kind == "log-normal" and (self.fit is None or self.rule is None):
            raise ValueError("log-normal model needs a fit and a thresholding rule")
        if self.kind == "log-normal" and self.fit.gdp is None:
            raise ValueError("fit has no gdp vector (pooled fit); refit on a single slice")
        if self.kind == "log-normal" and (self.rule.label, self.fit.countries, self.fit.year) != (
                self.base.rule, self.base.countries, self.base.source_year):
            raise ValueError("rule and fit do not describe base: its rule label, countries and year must match")
        for name in ("seed", "swap_factor"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if not 1 <= self.swap_factor <= MAX_SWAP_FACTOR:
            raise ValueError(f"swap_factor must be >= 1 and <= {MAX_SWAP_FACTOR}")
        n = self.base.n
        if n < 2:
            raise ValueError("null models need a base network of at least 2 nodes")
        if self.kind == "er":
            object.__setattr__(self, "prob", self.base.num_edges / n / (n - 1))
        elif self.kind == "out-degree":
            object.__setattr__(self, "prob", (self.base.out_degrees() / (n - 1))[:, None])
        elif self.kind == "in-degree":
            object.__setattr__(self, "prob", (self.base.in_degrees() / (n - 1))[None, :])
        if isinstance(self.prob, np.ndarray):
            self.prob.flags.writeable = False
        elif self.kind == "rewiring":
            sources, targets = (tuple(ends.tolist()) for ends in np.nonzero(self.base.adj))
            edge_ids = np.arange(len(sources)).astype(object)
            edge_ids.flags.writeable = False
            occupancy = tuple(map(tuple, (self.base.adj | np.eye(n, dtype=bool)).tolist()))
            object.__setattr__(self, "swap_tables", (edge_ids, sources, targets, occupancy))

    def sample(self, index: int) -> BinaryNetwork:
        rng = child_rng(self.seed, index)
        base = self.base
        if self.prob is not None:
            adj = rng.random((base.n, base.n)) < self.prob
            np.fill_diagonal(adj, False)
            return BinaryNetwork(base.countries, adj, self.kind)
        if self.kind == "rewiring":
            return self._rewire(rng)
        fit = self.fit
        return self.rule.apply(AssetSlice(fit.year, fit.countries, sample_lognormal_matrix(fit, rng), fit.gdp, 1.0))

    def _rewire(self, rng: np.random.Generator) -> BinaryNetwork:
        """Run the swap chain from ``swap_tables``, which it reads and does not change."""
        base = self.base
        edge_ids, sources, targets, occupancy = self.swap_tables
        m = len(targets)
        label = f"rewired[{base.rule}]"
        if m < 2:
            return BinaryNetwork(base.countries, base.adj, label, base.source_year)
        # The picks are a temporary: they are freed once their ids are gathered.
        ids = iter(edge_ids[rng.integers(0, m, size=(self.swap_factor * m, 2)).ravel()].tolist())
        occupied = list(map(list, occupancy))
        row_of = operator.itemgetter(*sources)(occupied)
        target = list(targets)
        for i1, i2 in zip(ids, ids):
            d = target[i2]
            row1 = row_of[i1]
            if row1[d]:
                continue
            b = target[i1]
            row2 = row_of[i2]
            if row2[b]:
                continue
            row1[b] = False
            row2[d] = False
            row1[d] = True
            row2[b] = True
            target[i1] = d
            target[i2] = b
        adj = np.frombuffer(bytearray().join(map(bytes, occupied)), dtype=bool).reshape(base.n, base.n)
        np.fill_diagonal(adj, False)
        return BinaryNetwork(base.countries, adj, label, base.source_year)
