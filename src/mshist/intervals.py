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
from dataclasses import dataclass
from functools import lru_cache

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


def max_scale(n: int) -> int:
    """Deepest dyadic level, floor(log2(n / log(n)))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return int(math.floor(math.log2(n / math.log(n))))


@lru_cache(maxsize=4)
def interval_arrays(n: int):
    """(j, k, scale) index arrays of the full system, sorted by (k, j).

    Cached for the last four n used (one n = 3e4 holds about 22 MB); arrays
    are read-only.
    """
    lmax = max_scale(n)
    js, ks, ls = [], [], []
    for lev in range(2, lmax + 1):
        m = n * 2.0 ** (-lev)
        d = int(math.ceil(m / (6.0 * math.sqrt(lev))))
        # admissible integer lengths are the multiples of d in (m, 2m]
        w = d * int(math.floor(m / d) + 1)
        while w <= 2.0 * m:
            j = np.arange(1, n - w + 1, d, dtype=np.int64)
            if j.size:
                js.append(j)
                ks.append(j + w)
                ls.append(np.full(j.size, lev, dtype=np.int64))
            w += d
    if not js:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    j = np.concatenate(js)
    k = np.concatenate(ks)
    lev = np.concatenate(ls)
    order = np.lexsort((lev, j, k))
    j, k, lev = j[order], k[order], lev[order]
    # adjacent levels produce disjoint length ranges, but keep the smallest
    # level defensively should a duplicate (j, k) ever arise
    keep = np.ones(j.size, dtype=bool)
    keep[1:] = (np.diff(k) != 0) | (np.diff(j) != 0)
    j, k, lev = j[keep], k[keep], lev[keep]
    for a in (j, k, lev):
        a.flags.writeable = False
    return j, k, lev


@lru_cache(maxsize=4)
def count_groups(n: int):
    """The system for sample size n grouped by count ``k - j``.

    Returns ``(counts, group, left, right, starts)``: the distinct counts,
    ascending; the group index of every interval, in system order, so that
    ``counts[group] == k - j``; the intervals' ``j`` and ``k`` in stable count
    order; and where each group starts in that order.  Every per-interval
    quantity but the width depends on the count alone, so the band table, the
    radii and the multiscale statistic each evaluate it once per group.

    Cached for the last four n apart from :func:`interval_arrays`, which does
    not pay for it; arrays are read-only.
    """
    j, k, _ = interval_arrays(n)
    counts, group = np.unique(k - j, return_inverse=True)
    order = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[order], np.arange(counts.size))
    out = (counts, group, j[order], k[order], starts)
    for a in out:
        a.flags.writeable = False
    return out
