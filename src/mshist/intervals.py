"""Multiscale system of order-statistic intervals.

The system is a union of dyadic levels.  At level ``l`` the admissible
interval lengths (in sample counts) lie in ``(m_l, 2*m_l]`` with
``m_l = n * 2**-l``, and both endpoints are restricted to the thinned grid
``{1 + i*d_l}`` with ``d_l = ceil(m_l / (6*sqrt(l)))``.  Levels run from 2 to
``floor(log2(n / log n))``, so the total size is O(n) up to a polylog factor
while still approximating the family of all intervals well enough for the
statistics built on top of it.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class IntervalSpec:
    """Order-statistic interval (X_(j), X_(k)] identified by its indices.

    ``j`` is the (exclusive) left order-statistic index, ``k`` the right one,
    1 <= j < k <= n.  ``scale`` is the dyadic level that produced it.  Only
    indices are stored, so one system serves any dataset of the same size.
    """

    j: int
    k: int
    scale: int

    @property
    def count(self) -> int:
        return self.k - self.j


class IntervalList(Sequence):
    """Read-only sequence of :class:`IntervalSpec` kept as three int64
    columns ``j``, ``k``, ``scale``: an item, of Python ints, is built only
    when read, so a long list costs no object per row.  Equal to any other
    sequence of the same intervals in order; two lists compare by column."""

    __slots__ = ("j", "k", "scale")

    def __init__(self, j=(), k=(), scale=()):
        for name, col in zip(self.__slots__, (j, k, scale)):
            col = np.asarray(col, dtype=np.int64).view()
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self) -> int:
        return self.j.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return IntervalList(self.j[i], self.k[i], self.scale[i])
        i = operator.index(i)
        return IntervalSpec(int(self.j[i]), int(self.k[i]), int(self.scale[i]))

    def __iter__(self):
        return map(IntervalSpec, self.j.tolist(), self.k.tolist(), self.scale.tolist())

    def __eq__(self, other):
        if isinstance(other, IntervalList):
            cols = zip((self.j, self.k, self.scale), (other.j, other.k, other.scale))
            return all(np.array_equal(a, b) for a, b in cols)
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"IntervalList(j={self.j!r}, k={self.k!r}, scale={self.scale!r})"


def max_scale(n: int) -> int:
    """Deepest dyadic level, floor(log2(n / log(n)))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return int(math.floor(math.log2(n / math.log(n))))


class Level(NamedTuple):
    """One dyadic level of the system as a lattice.

    Every left end is ``1 + i*step`` and every count is ``q*step`` for a lag
    ``q`` in ``lags``, a contiguous range; the intervals of lag q are the
    ``i < size - q``, where ``size`` is the number of grid points
    ``1 + i*step <= n``.
    """

    scale: int
    step: int
    lags: range
    size: int


@lru_cache(maxsize=4)
def levels(n: int) -> tuple[Level, ...]:
    """The levels of the system for sample size n that hold an interval,
    ascending in scale, so descending in count.

    The count ranges ``(m, 2m]`` of different levels are disjoint, so every
    count belongs to exactly one level.
    """
    out = []
    for lev in range(2, max_scale(n) + 1):
        m = n * 2.0 ** (-lev)
        d = int(math.ceil(m / (6.0 * math.sqrt(lev))))
        size = (n - 1) // d + 1
        # admissible counts are the multiples of d in (m, 2m] up to n - 1
        lags = range(int(m // d) + 1, min(int(2.0 * m // d), size - 1) + 1)
        if lags:
            out.append(Level(lev, d, lags, size))
    return tuple(out)


@lru_cache(maxsize=4)
def interval_arrays(n: int):
    """(j, k, scale) index arrays of the full system, sorted by (k, j).

    Laid out by counting, without a sort.  At a grid point ``p >= q0`` of a
    level with ``lags = q0 .. q1``, right end ``k = 1 + p*step`` closes one
    interval per lag ``q0 .. min(p, q1)``: a run of left ends ascending by
    ``step``.  Within one k the rows go by ascending j, which is ascending
    scale, then descending lag, so the rows are these runs ordered by right
    end, then scale.  Each run's slot comes from a count of the runs per
    right end; the runs are then expanded with ``np.repeat``, and j with a
    cumulative sum of its steps.

    Cached for the last four n used (one n = 3e4 holds about 22 MB); arrays
    are read-only.
    """
    system = levels(n)
    runs_per_k = np.zeros(n + 1, dtype=np.int64)
    for lev in system:
        runs_per_k[1 + np.arange(lev.lags[0], lev.size) * lev.step] += 1
    free = np.cumsum(runs_per_k) - runs_per_k  # next free run slot per right end
    # per run: its right end, length, first left end, step and scale
    end, length, first, step, scale = (
        np.empty(int(runs_per_k.sum()), dtype=np.int64) for _ in range(5)
    )
    for lev in system:
        p = np.arange(lev.lags[0], lev.size)
        right = 1 + p * lev.step
        slot = free[right]
        free[right] += 1
        top = np.minimum(p, lev.lags[-1])
        end[slot] = right
        length[slot] = top - lev.lags[0] + 1
        first[slot] = right - top * lev.step
        step[slot] = lev.step
        scale[slot] = lev.scale
    k = np.repeat(end, length)
    j = np.repeat(step, length)
    # a run's first row steps from the previous run's last left end
    last = first + step * (length - 1)
    j[np.cumsum(length) - length] = first - np.concatenate(([0], last[:-1]))
    np.cumsum(j, out=j)
    scale = np.repeat(scale, length)
    for a in (j, k, scale):
        a.flags.writeable = False
    return j, k, scale


@lru_cache(maxsize=4)
def level_counts(n: int) -> np.ndarray:
    """The distinct counts ``k - j`` of the system for sample size n,
    ascending: each level's ``lag*step``, read from :func:`levels` in
    descending scale, with no sort.  Cached for the last four n; read-only."""
    counts = np.array(
        [q * lev.step for lev in reversed(levels(n)) for q in lev.lags], dtype=np.int64
    )
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=4)
def _extent(n: int) -> tuple[int, int]:
    """NaN padding past X_(n) and largest level array of :func:`count_extremes`."""
    system = levels(n)
    pad = max(((len(lev.lags) - 1) * lev.step for lev in system), default=0)
    size = max((len(lev.lags) * (lev.size - lev.lags[0]) for lev in system), default=0)
    return pad, size


def count_extremes(values) -> np.ndarray:
    """Per count, in the order of :func:`level_counts`, the least and the
    largest ``X_(k) - X_(j)`` over the system intervals (X_(j), X_(k)] for
    the ascending ``values`` X_(1), ..., X_(n), as a ``(2, counts)`` array.
    Per level of :func:`levels`, one strided (lag, i) array is reduced along
    i; longer lags run past X_(n) into a NaN padding that ``np.fmin`` and
    ``np.fmax`` skip, exact as every lag holds an interval.  Levels in
    descending scale give ascending counts: one contiguous slice each."""
    values = np.asarray(values, dtype=float)
    pad, size = _extent(values.size)
    f = np.concatenate((values, np.full(pad, np.nan)))  # f[i] = X_(i+1)
    # one buffer for every level: a fresh array per level costs more in
    # page faults than the subtraction itself
    buf = np.empty(size)
    out = np.empty((2, level_counts(values.size).size))
    c = 0
    for lev in reversed(levels(values.size)):
        d, q0, nq = lev.step, lev.lags[0], len(lev.lags)
        width, s = lev.size - q0, f.itemsize * d
        # diff[a, i] = f[(i + q0 + a)*d] - f[i*d], the interval with left end
        # 1 + i*d and count (q0 + a)*d; row a ends in a NaN entries
        ahead = np.ndarray((nq, width), float, f, offset=q0 * s, strides=(s, s))
        diff = buf[: nq * width].reshape(nq, width)
        np.subtract(ahead, f[: width * d : d], out=diff)
        np.fmin.reduce(diff, axis=1, out=out[0, c : c + nq])
        np.fmax.reduce(diff, axis=1, out=out[1, c : c + nq])
        c += nq
    return out


@lru_cache(maxsize=4)
def count_groups(n: int):
    """The system for sample size n grouped by count ``k - j``.

    Returns ``(counts, group)``: the distinct counts of
    :func:`level_counts`, ascending, and the group index of every interval,
    in system order, so that ``counts[group] == k - j``.  Every
    per-interval quantity but the width depends on the count alone, so the
    band table and the radii each evaluate it once per group.  The groups
    are a lookup by count, so nothing is sorted.

    Cached for the last four n apart from :func:`interval_arrays`, which does
    not pay for it; arrays are read-only.
    """
    j, k, _ = interval_arrays(n)
    counts = level_counts(n)
    by_count = np.zeros(n + 1, dtype=np.intp)
    by_count[counts] = np.arange(counts.size)
    group = by_count[k - j]
    group.flags.writeable = False
    return counts, group

