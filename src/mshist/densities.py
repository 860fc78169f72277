"""Reference densities, classical binning rules, and evaluation metrics for
benchmarking histogram estimators.  Of all this only a Gaussian mixture's
cdf loads scipy (``scipy.special.ndtr``)."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .dp import HistogramModel, essential_histogram
from .sample import SortedSample

#: interval masses p of the standardized interval-mass errors in ``metrics``
DEFAULT_P_GRID = (0.01, 0.05, 0.1, 0.25)
#: points of the quantile grid the interval-mass errors interpolate on
QUANTILE_GRID_SIZE = 4096
#: locations scanned when approximating the standardized interval-mass error
DP_GRID_SIZE = 2048


@dataclass(frozen=True)
class ReferenceDensity:
    """A known density with sampler and the analytic quantities the metrics
    need.  ``true_skewness`` is None when undefined; ``pdf_sq_integral``,
    the integral of pdf**2, is finite for all of them, the Cauchy one too."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, int], SortedSample]
    true_mode_count: int
    pdf_sq_integral: float
    true_skewness: Optional[float] = None

    @cached_property
    def quantile_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The (x, F(x)) grid the interval-mass errors interpolate on,
        built on first use and kept on the density."""
        return _quantile_grid(self)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# gaussian mixtures


def _normal_pdf(x, mu=0.0, sd=1.0):
    z = (x - mu) / sd
    return np.exp(-(z**2) / 2.0) / math.sqrt(2.0 * math.pi) / sd


def _gaussian_mixture(name, w, mu, sd, modes) -> ReferenceDensity:
    w, mu, sd = np.asarray(w), np.asarray(mu), np.asarray(sd)
    var = sd**2

    def pdf(x):
        x = np.asarray(x, dtype=float)[..., None]
        return np.sum(w * _normal_pdf(x, mu, sd), axis=-1)

    def cdf(x):
        # imported here so that only a mixture's cdf loads scipy.special
        from scipy.special import ndtr

        x = np.asarray(x, dtype=float)[..., None]
        return np.sum(w * ndtr((x - mu) / sd), axis=-1)

    def sampler(seed: int, n: int) -> SortedSample:
        rng = _rng(seed)
        comp = rng.choice(w.size, size=n, p=w)
        return SortedSample(rng.normal(mu[comp], sd[comp]))

    # int (sum_i w_i phi_i)^2 = sum_ij w_i w_j N(mu_i - mu_j | 0, sd_i^2 + sd_j^2)
    d = mu[:, None] - mu[None, :]
    v = var[:, None] + var[None, :]
    sq = w[:, None] * w[None, :] * _normal_pdf(d, sd=np.sqrt(v))
    m1 = np.sum(w * mu)
    m2 = np.sum(w * (mu**2 + var))
    m3 = np.sum(w * (mu**3 + 3 * mu * var))
    return ReferenceDensity(
        name=name,
        pdf=pdf,
        cdf=cdf,
        sampler=sampler,
        true_mode_count=modes,
        pdf_sq_integral=float(np.sum(sq)),
        true_skewness=float(_skewness(m1, m2, m3)),
    )


# ---------------------------------------------------------------------------
# piecewise-constant densities


def _piecewise(name, breaks, heights, modes) -> ReferenceDensity:
    model = HistogramModel(breaks, heights, n=2)  # it converts both to float arrays

    def sampler(seed: int, n: int) -> SortedSample:
        rng = _rng(seed)
        w = np.diff(model.breaks) * model.heights
        comp = rng.choice(w.size, size=n, p=w / w.sum())
        lo = model.breaks[comp]
        hi = model.breaks[comp + 1]
        return SortedSample(rng.uniform(lo, hi))

    return ReferenceDensity(
        name=name,
        pdf=model.pdf,
        cdf=model.cdf,
        sampler=sampler,
        true_mode_count=modes,
        pdf_sq_integral=float(np.sum(model.heights**2 * np.diff(model.breaks))),
        true_skewness=float(histogram_skewness(model)),
    )


@lru_cache(maxsize=None)
def _catalog() -> tuple:
    """The built-in reference densities, built once per process so that each
    keeps its cached quantile grid between lookups."""
    claw_w = [0.5] + [0.1] * 5
    claw_mu = [0.0] + [l / 2.0 - 1.0 for l in range(5)]
    claw_sd = [1.0] + [0.1] * 5
    harp = ([0.2] * 5, [0.0, 5.0, 15.0, 30.0, 60.0], [0.5, 1.0, 2.0, 4.0, 8.0])
    arr = partial(np.asarray, dtype=float)
    return (
        ReferenceDensity(
            name="uniform",
            pdf=lambda x: np.where((np.asarray(x) >= 0) & (np.asarray(x) <= 1), 1.0, 0.0),
            cdf=lambda x: np.clip(arr(x), 0.0, 1.0),
            sampler=lambda seed, n: SortedSample(_rng(seed).random(n)),
            true_mode_count=1,
            pdf_sq_integral=1.0,
            true_skewness=0.0,
        ),
        ReferenceDensity(
            name="exponential",
            pdf=lambda x: np.where(arr(x) >= 0, np.exp(-np.maximum(arr(x), 0.0)), 0.0),
            cdf=lambda x: np.where(arr(x) >= 0, -np.expm1(-np.maximum(arr(x), 0.0)), 0.0),
            sampler=lambda seed, n: SortedSample(_rng(seed).exponential(size=n)),
            true_mode_count=1,
            pdf_sq_integral=0.5,
            true_skewness=2.0,
        ),
        _piecewise(
            "histogram_mixture",
            [0.0, 0.75, 1.25, 2.0, 2.975, 3.025, 4.0, 6.0],
            [0.125, 0.375, 0.125, 0.0, 2.5, 0.0, 0.25],
            modes=3,
        ),
        _gaussian_mixture("claw", claw_w, claw_mu, claw_sd, modes=5),
        _gaussian_mixture("harp", *harp, modes=5),
        ReferenceDensity(
            name="cauchy",
            pdf=lambda x: 1.0 / (np.pi * (1.0 + arr(x) ** 2)),
            cdf=lambda x: 0.5 + np.arctan(arr(x)) / np.pi,
            sampler=lambda seed, n: SortedSample(_rng(seed).standard_cauchy(n)),
            true_mode_count=1,
            pdf_sq_integral=1.0 / (2.0 * np.pi),
            true_skewness=None,
        ),
        _gaussian_mixture("bimodal", [0.5, 0.5], [-3.0, 3.0], [1.0, 1.0], modes=2),
        _piecewise("step", [0.0, 0.5, 1.0], [1.5, 0.5], modes=1),
    )


def catalog() -> list:
    """All built-in reference densities, the same objects on every call."""
    return list(_catalog())


def get_density(name: str) -> ReferenceDensity:
    for d in _catalog():
        if d.name == name:
            return d
    raise KeyError(f"unknown density {name!r}; known: {[d.name for d in _catalog()]}")


# ---------------------------------------------------------------------------
# classical binning rules

SCOTT_CONSTANT = 3.49

CLASSICAL_RULES = ("sturges", "scott_width", "scott_area")


def _from_breaks(sample: SortedSample, breaks: np.ndarray) -> HistogramModel:
    """Histogram on given breaks; each run of adjacent empty bins merged."""
    x = sample.values
    n = sample.n
    # np.unique's sort and drop of equal neighbours, without its import of
    # numpy.ma
    breaks = np.sort(np.asarray(breaks, dtype=float))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    idx = np.clip(np.searchsorted(breaks, x, side="left") - 1, 0, breaks.size - 2)
    counts = np.bincount(idx, minlength=breaks.size - 1)
    # merge runs of adjacent empty bins into one empty bin
    keep = np.concatenate(([True], (counts[1:] != 0) | (counts[:-1] != 0)))
    starts = np.flatnonzero(keep)
    m_breaks = np.append(breaks[starts], breaks[-1])
    m_counts = np.add.reduceat(counts, starts)
    m_heights = m_counts / (n * np.diff(m_breaks))
    return HistogramModel(
        breaks=m_breaks, heights=m_heights, n=n, counts=m_counts.astype(np.int64)
    )


def classical_histogram(sample: SortedSample, rule: str) -> HistogramModel:
    """Equal-width or equal-count histogram by a textbook rule.

    sturges: ceil(log2 n) + 1 equal-width bins; scott_width: equal-width bins
    of width 3.49 * s * n^(-1/3); scott_area: the same number of bins placed
    at empirical quantiles.  Empty bins are merged with their neighbors.
    The sample is in scale, as ``SortedSample`` guarantees, so the breaks,
    heights and Scott's deviations stay finite.
    """
    x = sample.values
    n = sample.n
    span = x[-1] - x[0]
    if rule == "sturges":
        k = math.ceil(math.log2(n)) + 1
        breaks = np.linspace(x[0], x[-1], k + 1)
    elif rule in ("scott_width", "scott_area"):
        # s of the values scaled by a power of two, which is exact, so that
        # the squared deviations neither overflow nor underflow
        e = math.frexp(max(abs(x[0]), abs(x[-1])))[1]
        s = math.ldexp(float(np.std(np.ldexp(x, -e), ddof=1)), e)
        h = SCOTT_CONSTANT * s * n ** (-1.0 / 3.0)
        k = max(1, math.ceil(span / h))
        if rule == "scott_width":
            breaks = np.linspace(x[0], x[-1], k + 1)
        else:
            breaks = np.quantile(x, np.linspace(0.0, 1.0, k + 1))
    else:
        raise ValueError(f"unknown rule {rule!r}; use one of {CLASSICAL_RULES}")
    return _from_breaks(sample, breaks)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricSet:
    """Evaluation metrics of one fitted histogram against a known density."""

    mise_component: float
    kolmogorov: float
    skewness: float
    modes: int
    troughs: int
    n_bins: int
    d_p: Dict[float, float]


def _hist_raw_moment(fit: HistogramModel, r: int) -> float:
    b = fit.breaks
    return float(np.sum(fit.heights * (b[1:] ** (r + 1) - b[:-1] ** (r + 1)) / (r + 1)))


def histogram_skewness(fit: HistogramModel) -> float:
    return _skewness(*(_hist_raw_moment(fit, r) for r in (1, 2, 3)))


def _skewness(m1, m2, m3) -> float:
    """Skewness from the first three raw moments; 0 without spread."""
    v = m2 - m1**2
    if v <= 0:
        return 0.0
    return (m3 - 3.0 * m1 * v - m1**3) / v**1.5


def count_extrema(heights: np.ndarray) -> tuple[int, int]:
    """(modes, troughs) of a piecewise-constant density with zero height
    outside its support."""
    h = np.concatenate(([0.0], np.asarray(heights, dtype=float), [0.0]))
    modes = int(np.sum((h[1:-1] > h[:-2]) & (h[1:-1] > h[2:])))
    troughs = int(np.sum((h[1:-1] < h[:-2]) & (h[1:-1] < h[2:])))
    return modes, troughs


def _quantile_grid(truth: ReferenceDensity):
    """Monotone (x, F(x)) grid of QUANTILE_GRID_SIZE points covering all but
    1e-7 of the truth's mass, equally spaced in mass so heavy tails stay
    resolved."""
    u = np.linspace(1e-7, 1.0 - 1e-7, QUANTILE_GRID_SIZE)
    lo, hi = _invert_cdf(truth.cdf, u[[0, -1]], -1e12, 1e12, steps=100)
    x = _invert_cdf(truth.cdf, u, lo, hi, steps=60)
    F = np.asarray(truth.cdf(x), dtype=float)
    return x, F


def _invert_cdf(cdf, u, lo, hi, steps):
    """Bisection for cdf(x) = u, vectorized over u, inside [lo, hi]."""
    a = np.full(u.size, lo, dtype=float)
    b = np.full(u.size, hi, dtype=float)
    for _ in range(steps):
        mid = 0.5 * (a + b)
        high = np.asarray(cdf(mid), dtype=float) > u
        b = np.where(high, mid, b)
        a = np.where(high, a, mid)
    return 0.5 * (a + b)


def standardized_mass_error(
    fit: HistogramModel, truth: ReferenceDensity, p: float
) -> float:
    """sup over intervals of truth-mass p of |fit mass - p| / sqrt(p(1-p)),
    approximated on the truth's quantile grid."""
    xg, Fg = truth.quantile_grid
    u = np.linspace(Fg[0], Fg[-1] - p, DP_GRID_SIZE)
    left = np.interp(u, Fg, xg)
    right = np.interp(u + p, Fg, xg)
    mass = fit.cdf(right) - fit.cdf(left)
    return float(np.max(np.abs(mass - p)) / math.sqrt(p * (1.0 - p)))


def metrics(fit: HistogramModel, truth: ReferenceDensity) -> MetricSet:
    """Evaluate one fit against the truth: integrated squared error,
    sup-CDF distance, shape statistics, and standardized interval-mass
    errors at the masses of DEFAULT_P_GRID."""
    b = fit.breaks
    w = np.diff(b)
    F = np.asarray(truth.cdf(b), dtype=float)
    mise = float(
        truth.pdf_sq_integral
        - 2.0 * np.sum(fit.heights * np.diff(F))
        + np.sum(fit.heights**2 * w)
    )
    # sup |F - H| over breakpoints and a dense grid inside the support
    xs = np.concatenate([b] + [np.linspace(b[0], b[-1], 4096)])
    ks = float(np.max(np.abs(np.asarray(truth.cdf(xs)) - fit.cdf(xs))))
    ks = max(ks, float(F[0]), float(1.0 - F[-1]))
    modes, troughs = count_extrema(fit.heights)
    d_p = {p: standardized_mass_error(fit, truth, p) for p in DEFAULT_P_GRID}
    return MetricSet(
        mise_component=mise,
        kolmogorov=ks,
        skewness=float(histogram_skewness(fit)),
        modes=modes,
        troughs=troughs,
        n_bins=fit.nbins,
        d_p=d_p,
    )


# ---------------------------------------------------------------------------
# benchmark harness

#: the benchmark CSV's columns: the run, every metric of ``metrics``, the
#: fit's time
BENCHMARK_COLUMNS = (
    "density",
    "method",
    "alpha",
    "n",
    "rep",
    "n_bins",
    "modes",
    "troughs",
    "mise_sq",
    "kolmogorov",
    "skewness",
    *(f"d_{p}" for p in DEFAULT_P_GRID),
    "runtime_ms",
)


def benchmark_rows(
    density: ReferenceDensity,
    n: int,
    reps: int,
    methods: Sequence[str],
    alphas: Sequence[float],
    seed: int,
    table=None,
) -> list:
    """Replicated fits of each method on fresh samples; one dict per
    (rep, method, alpha) combination, keyed by ``BENCHMARK_COLUMNS``.

    ``table`` (a calibrated quantile table) is read by "essential" as
    ``essential_histogram`` reads it: required for n >= 9, not read below;
    classical rules ignore alpha (recorded as nan).
    """
    runs = []  # (method, alpha, fitter) of each row in a replication
    for method in methods:
        if method == "essential":
            runs += [
                (method, a, partial(essential_histogram, alpha=a, table=table))
                for a in alphas
            ]
        elif method in CLASSICAL_RULES:
            runs.append((method, float("nan"), partial(classical_histogram, rule=method)))
        else:
            raise ValueError(
                f"unknown method {method!r}; use 'essential' or one of {CLASSICAL_RULES}"
            )
    rows = []
    for rep in range(reps):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rep_seed = int(ss.generate_state(1)[0])
        sample = density.sampler(rep_seed, n)
        for method, alpha, fitter in runs:
            t0 = time.perf_counter()
            fit = fitter(sample)
            ms = (time.perf_counter() - t0) * 1000.0
            m = metrics(fit, density)
            cells = (
                density.name, method, alpha, n, rep,
                m.n_bins, m.modes, m.troughs, m.mise_component, m.kolmogorov,
                m.skewness, *(m.d_p[p] for p in DEFAULT_P_GRID), ms,
            )
            rows.append(dict(zip(BENCHMARK_COLUMNS, cells, strict=True)))
    return rows
