"""Null-model graph families and the censored log-normal asset model.

Five families are matched to first-order statistics of an empirical
network: uniform edge probability (Erdos-Renyi), per-row and per-column
edge probabilities from the empirical out-/in-degree sequences,
degree-preserving edge rewiring, and a fitted log-normal asset model
whose generated slices are re-thresholded into binary networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import AssetSlice
from .netbuild import BinaryNetwork, ThresholdRule
from .seeding import child_rng

DEFAULT_SIGMA_CORRECTION = 1.183
DEFAULT_SWAP_FACTOR = 20
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
        alpha=theta[:n].copy(),
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

    Pooled fits have no single year or GDP vector, so they cannot seed
    slice generation; use a per-year fit for that.
    """
    if not slices:
        raise ValueError("need at least one slice")
    return _fit(slices, tuple(sorted({c for s in slices for c in s.countries})), correction_factor)


def _censor_and_round(s: np.ndarray, censor_floor: float | None, rounding: bool) -> np.ndarray:
    if censor_floor is not None:
        s = np.where(s < censor_floor, 0.0, s)
    if rounding:
        s = np.rint(s)
    return s


def sample_lognormal_matrix(
    fit: LogNormalFit,
    rng: np.random.Generator,
    censor_floor: float | None = CENSOR_FLOOR_MUSD,
    rounding: bool = True,
) -> np.ndarray:
    """Raw asset matrix draw: exp(alpha_i + beta_j + eps) - 1, zero diagonal.

    ``censor_floor=None`` disables the floor entirely (diagnostics; raw
    draws below exp(mu) = 1 can then be negative and the matrix cannot be
    wrapped in a slice).
    """
    n = len(fit.countries)
    mu = fit.alpha[:, None] + fit.beta[None, :]
    eps = rng.normal(0.0, fit.sigma_corrected, size=(n, n))
    s = np.expm1(mu + eps)
    s = _censor_and_round(s, censor_floor, rounding)
    np.fill_diagonal(s, 0.0)
    return s


def sample_lognormal_slice(fit: LogNormalFit, rng: np.random.Generator) -> AssetSlice:
    """Draw a synthetic asset slice from a fitted model.

    Positions follow :func:`sample_lognormal_matrix` with
    eps ~ Normal(0, sigma_corrected), censored below 0.5 and rounded to
    integer millions, so generated values are always nonnegative. The
    slice keeps the GDP vector captured at fit time and reports coverage
    1.0 (it is self-contained by construction).
    """
    if fit.gdp is None:
        raise ValueError("fit has no gdp vector (pooled fit); refit on a single slice")
    s = sample_lognormal_matrix(fit, rng)
    return AssetSlice(fit.year, fit.countries, s, fit.gdp, 1.0)


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

    Generates ``trials`` synthetic slices from (alpha, beta, sigma),
    censors and rounds them like reported data, refits, and returns the
    mean of sigma / sigma_refit. The refit sigma uses the
    degrees-of-freedom divisor N - k so an uncensored refit recovers the
    generating sigma in expectation and the returned factor isolates the
    censoring/rounding bias; it is finite only with 2 or more degrees of
    freedom, so n >= 4. All trials are one ``(trials, n(n-1))`` normal
    draw (the stream of one draw per trial) and one least-squares solve,
    a column per trial; the matrix is held at once, about 5.7 MB at
    n = 60 and 200 trials.
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
    s = _censor_and_round(np.expm1(mu + rng.normal(0.0, sigma, size=(trials, num_obs))), censor_floor, rounding)
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
    one per source) or the in-degrees over n - 1 (a row, one per target).
    Log-normal re-thresholds the slice model ``fit`` by ``rule``. The
    (seed, index) pair fully determines the draw, so ensembles are
    reproducible under any scheduling.

    Rewiring is degree-preserving randomization by pairwise edge swaps:
    ``swap_factor * m`` attempted swaps over the m edges of ``base``
    (a->b, c->d becomes a->d, c->b), rejecting any swap that would create
    a self-loop or a duplicate edge. Every node keeps its exact in- and
    out-degree, and a base with fewer than 2 edges comes back as a copy.
    The only random draw is one ``rng.integers(0, m, size=(swap_factor * m, 2))``;
    row t holds the two edges, numbered in row-major order, of attempt t.
    Each edge is its flat cell ``src * n + dst`` of a byte table with the
    diagonal marked occupied. For edges a->b, c->d and ``k = (a - c) * n``,
    a->d is ``cell[i2] + k`` and c->b is ``cell[i1] - k``: a swap is two
    byte tests, and the table is the result. A self-loop lands on the
    diagonal. A swap never changes an edge's source, so k comes from one
    vectorized subtraction over all picks, and the attempts with k = 0
    are dropped before the loop: two edges of one source (or one edge
    twice) would test a->d, the live edge c->d, and always fail. The spec
    builds the chain's start ``swap_tables`` once (each edge's source
    offset ``src * n``, the cells and the occupancy bytes), and each draw
    copies them.

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
    swap_tables: tuple[np.ndarray, list[int], bytes] | None = field(default=None, init=False, repr=False,
                                                                    compare=False)

    def __post_init__(self) -> None:
        if self.kind not in NULL_MODEL_KINDS:
            raise ValueError(f"unknown null-model kind {self.kind!r}")
        if self.kind == "log-normal" and (self.fit is None or self.rule is None):
            raise ValueError("log-normal model needs a fit and a thresholding rule")
        if self.swap_factor < 1:
            raise ValueError("swap_factor must be >= 1")
        n = self.base.n
        if n < 2:
            raise ValueError("null models need a base network of at least 2 nodes")
        if self.kind == "er":
            object.__setattr__(self, "prob", self.base.num_edges / n / (n - 1))
        elif self.kind == "out-degree":
            object.__setattr__(self, "prob", (self.base.out_degrees() / (n - 1))[:, None])
        elif self.kind == "in-degree":
            object.__setattr__(self, "prob", (self.base.in_degrees() / (n - 1))[None, :])
        elif self.kind == "rewiring":
            rows, cols = np.nonzero(self.base.adj)
            src = rows * n
            occupancy = (self.base.adj | np.eye(n, dtype=bool)).tobytes()
            object.__setattr__(self, "swap_tables", (src, (src + cols).tolist(), occupancy))

    def sample(self, index: int) -> BinaryNetwork:
        rng = child_rng(self.seed, index)
        base = self.base
        if self.prob is not None:
            adj = rng.random((base.n, base.n)) < self.prob
            np.fill_diagonal(adj, False)
            return BinaryNetwork(base.countries, adj, self.kind)
        if self.kind == "rewiring":
            return self._rewire(rng)
        return self.rule.apply(sample_lognormal_slice(self.fit, rng))

    def _rewire(self, rng: np.random.Generator) -> BinaryNetwork:
        """Run the swap chain from ``swap_tables``, which it reads and does not change."""
        base = self.base
        src, cells, occupancy = self.swap_tables
        m = src.size
        label = f"rewired[{base.rule}]"
        if m < 2:
            return BinaryNetwork(base.countries, base.adj, label, base.source_year)
        picks = rng.integers(0, m, size=(self.swap_factor * m, 2))
        offsets = src[picks]
        shift = offsets[:, 0] - offsets[:, 1]
        tried = np.flatnonzero(shift)
        occupied = bytearray(occupancy)
        cell = cells.copy()
        for i1, i2, k in zip(picks[tried, 0].tolist(), picks[tried, 1].tolist(), shift[tried].tolist()):
            ad = cell[i2] + k
            if occupied[ad]:
                continue
            cb = cell[i1] - k
            if occupied[cb]:
                continue
            occupied[cell[i1]] = 0
            occupied[cell[i2]] = 0
            occupied[ad] = 1
            occupied[cb] = 1
            cell[i1] = ad
            cell[i2] = cb
        adj = np.frombuffer(occupied, dtype=bool).reshape(base.n, base.n)
        np.fill_diagonal(adj, False)
        return BinaryNetwork(base.countries, adj, label, base.source_year)
