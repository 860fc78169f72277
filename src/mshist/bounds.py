"""Per-interval feasible bands: the set of constant densities an interval
admits at a given threshold.

For an interval with empirical mass p the constraint is
``sqrt(2*logLR(q, p)) - penalty(p) <= kappa`` in the hypothesized mass q.
The left side is strictly convex in q with its minimum at q = p, so the
feasible set is a single mass interval whose endpoints are the two roots of
a smooth scalar equation; dividing by the interval width turns it into a
density band.  The fit and the audit both read their bands from
:func:`constraint_table`, widened by the membership slack :func:`widen`
as it is built, and test membership with the plain :func:`in_band`; the
fit's stop tests and the audit's merge test take the band of a block from
:func:`block_band`, and the fit's first stop test takes that of (0, n]
from :func:`whole_band`, without a table.  Every sample is in scale, as
``SortedSample`` guarantees, so no width, band or density here overflows.
Every band table, the feature search's radius band included, is laid out
by :func:`band_table` from per-count mass bounds.  The per-count mass
roots depend on (n, kappa) alone and the row offsets on n alone, so both
are solved once and cached; per sample a table costs only its widths and
the per-row gathers and divisions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .intervals import count_extremes, count_groups, interval_arrays, level_counts
from .multiscale import log_likelihood_ratio, penalty
from .sample import SortedSample

#: relative slack for band membership tests (avoids boundary flapping)
BAND_SLACK = 1e-9


def widen(lo, hi):
    """The band [lo, hi] widened by the relative BAND_SLACK, as
    :func:`constraint_table` and :func:`whole_band` return it.  Each bound is
    scaled by a positive constant, which commutes with the max/min that
    combine bands, so bands may be widened before or after they are
    combined, and maps +-inf to itself.  Vectorized."""
    return lo * (1.0 - BAND_SLACK), hi * (1.0 + BAND_SLACK)


def in_band(mu, lo, hi):
    """Whether density ``mu`` lies in the band [lo, hi], which carries the
    membership slack already (see :func:`widen`).

    An empty band (lo = +inf, hi = -inf) admits nothing.  Vectorized.
    """
    return (mu >= lo) & (mu <= hi)


def mass_roots_batch(p_hat: np.ndarray, kappa: float, n: int):
    """Vectorized bisection for the two hypothesized-mass roots around each
    empirical mass.  Unsatisfiable entries come back nan."""
    p = np.asarray(p_hat, dtype=float)
    root_level = penalty(p) + kappa
    target = root_level**2
    # the lower roots in (0, p] and the upper ones in [p, 1), stacked and
    # bisected together: 2*logLR - target falls in q below p, rises above it
    upper = np.array([False, True]).reshape(-1, *[1] * p.ndim)
    a = np.where(upper, p, 1e-300)
    b = np.where(upper, 1.0 - 1e-16, p)
    for _ in range(64):
        mid = 0.5 * (a + b)
        up = (2.0 * log_likelihood_ratio(p, mid, n) - target > 0.0) != upper
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
    lo, hi = np.where(root_level > 0.0, 0.5 * (a + b), np.nan)
    return lo, hi


@dataclass(frozen=True)
class ConstraintTable:
    """Density bands of every system interval for one dataset, in system
    order (ascending right endpoint)."""

    a: np.ndarray  # left indices
    b: np.ndarray  # right indices, ascending
    lo: np.ndarray  # density lower bounds (+inf when the band is empty)
    hi: np.ndarray  # density upper bounds (-inf when the band is empty)
    start: np.ndarray  # start[i] .. start[i+1] rows have right endpoint i


@lru_cache(maxsize=4)
def _count_roots(n: int, kappa: float):
    """Mass roots ``(q_lo, q_hi)`` of every count of the system for sample
    size n, in the order of ``level_counts(n)``, with the unsatisfiable
    counts mapped to the empty band (+inf, -inf).

    They depend on (n, kappa) alone, not on the sample, so they are solved
    once per pair; cached for the last four pairs, arrays read-only.
    """
    q_lo, q_hi = mass_roots_batch(level_counts(n) / n, kappa, n)
    empty = np.isnan(q_lo)
    q_lo[empty], q_hi[empty] = np.inf, -np.inf
    for a in (q_lo, q_hi):
        a.flags.writeable = False
    return q_lo, q_hi


@lru_cache(maxsize=4)
def _row_starts(n: int) -> np.ndarray:
    """Row offsets of the system for n: rows ``start[i] .. start[i+1]`` have
    right endpoint i.  Cached for the last four n, read-only."""
    _, k, _ = interval_arrays(n)
    start = np.searchsorted(k, np.arange(n + 2))
    start.flags.writeable = False
    return start


def band_table(sample: SortedSample, q_lo, q_hi) -> ConstraintTable:
    """The system's density bands from the mass bounds ``(q_lo, q_hi)`` of
    every count, in the order of ``count_groups(n)``: each bound divided by
    the interval's width in ``sample``."""
    n = sample.n
    j, k, _ = interval_arrays(n)
    _, group = count_groups(n)
    xp = np.concatenate((sample.values[:1], sample.values))  # xp[i] = X_(i)
    width = xp[k] - xp[j]
    return ConstraintTable(
        a=j, b=k, lo=q_lo[group] / width, hi=q_hi[group] / width, start=_row_starts(n)
    )


def constraint_table(sample: SortedSample, kappa: float) -> ConstraintTable:
    """Feasible density band of every system interval at threshold
    ``kappa``, widened in place by :func:`widen`'s relative 1e-9."""
    table = band_table(sample, *_count_roots(sample.n, float(kappa)))
    np.multiply(table.lo, 1.0 - BAND_SLACK, out=table.lo)
    np.multiply(table.hi, 1.0 + BAND_SLACK, out=table.hi)
    return table


def whole_band(sample: SortedSample, kappa: float):
    """Band (lo, hi) of the block (0, n], widened by :func:`widen`, with no
    band table: a count's intervals share their mass roots and division is
    monotone in the divisor, so the tightest of their bands is ``q_lo`` over
    their least width and ``q_hi`` over their largest, bit for bit."""
    q_lo, q_hi = _count_roots(sample.n, float(kappa))
    least, most = count_extremes(sample.values)
    return widen(np.max(q_lo / least), np.min(q_hi / most))


def block_band(table: ConstraintTable, t, i):
    """Band (lo, hi) of each block (t, i]: the tightest over the table rows
    (a, b] with a >= t and b <= i, or (-inf, inf) when no row lies inside.

    Vectorized over ``t`` and ``i``, broadcast together; t may be n + 1.
    The rows are read once, in order of b: at each distinct end the new rows
    are scattered into per-left-end arrays, whose suffix max/min is read at t.
    """
    t, i = np.broadcast_arrays(t, i)
    ends = np.sort(i, axis=None)
    ends = ends[np.diff(ends, prepend=-1) != 0]  # distinct, ascending
    lo = np.empty(t.shape)
    hi = np.empty(t.shape)
    lmax = np.full(table.start.size, -np.inf)  # per left end, over the rows read
    umin = np.full(table.start.size, np.inf)
    done = 0
    for end in ends:
        rows = slice(done, table.start[end + 1])  # b in (previous end, end]
        done = rows.stop
        np.fmax.at(lmax, table.a[rows], table.lo[rows])
        np.fmin.at(umin, table.a[rows], table.hi[rows])
        q = i == end
        lo[q] = np.fmax.accumulate(lmax[::-1])[::-1][t[q]]
        hi[q] = np.fmin.accumulate(umin[::-1])[::-1][t[q]]
    return lo, hi
