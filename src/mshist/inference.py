"""Finite-sample confidence statements about the shape of the density.

For each interval of the multiscale system the empirical average density is
within half a computable radius of the true average density, simultaneously
over the whole system, with probability at least 1 - alpha.  Comparing two
disjoint intervals whose average densities differ by more than the sum of
half-radii therefore certifies a point of increase (or decrease) of the
density between them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSpec, count_groups, interval_arrays
from .multiscale import QuantileTable, lookup_kappa, penalty
from .sample import SortedSample


@dataclass(frozen=True)
class FeatureInterval:
    """Certified monotonicity stretch: the density has a point of increase
    (or decrease) inside ``hull``, the convex hull of the two witness
    intervals.  ``margin`` is the slack by which the certificate holds."""

    hull: tuple[float, float]
    direction: str  # "increase" | "decrease"
    margin: float
    witnesses: tuple[IntervalSpec, IntervalSpec]

    def __post_init__(self):
        if self.direction not in ("increase", "decrease"):
            raise ValueError("direction must be 'increase' or 'decrease'")
        if not self.margin > 0.0:
            raise ValueError("margin must be strictly positive")


def _radii(sample: SortedSample, kappa: float):
    """Simultaneous confidence radii of the system intervals' average
    densities, with those densities and the intervals' endpoints.

    With p an interval's empirical mass and c = penalty(p) + kappa:
    r = (2c/width) * (sqrt(p*(1-p)/n) + c/(2n)).  The penalty depends on the
    count alone, so it is evaluated once per count group.
    """
    n = sample.n
    j, k, _ = interval_arrays(n)
    counts, group, _, _, _ = count_groups(n)
    x = sample.values
    p = (k - j) / n
    c = (penalty(counts / n) + kappa)[group]
    width = x[k - 1] - x[j - 1]
    r = (2.0 * c / width) * (np.sqrt(p * (1.0 - p) / n) + c / (2.0 * n))
    dens = p / width
    return j, k, dens, r


def _max_left_end(j, vrank, t, c):
    """For each query q: the largest j[a] over the positions a < t[q] with
    vrank[a] < c[q], or -1 when there is none.

    ``vrank`` is a permutation of the positions.  A wavelet-matrix descent:
    level by level from the top bit of the rank, every block of the current
    arrangement is stably split by the next rank bit, so the block holding
    the ranks [B * 2**lev, (B + 1) * 2**lev) sits exactly at those indices,
    in position order.  A query keeps its node start and the number of the
    node's members with position < t; where c has a one bit, the zero child's
    first members all rank below c and give a candidate through a per-block
    running max.  Every level is a few array passes over the system.
    """
    m = j.size
    size = 1 << m.bit_length()  # a power of two above every c
    shift = size.bit_length()
    # left end + 1 in the high bits, rank in the low ones, so a running max
    # of the key is a running max of j; the padding ranks m.. have left end -1
    key = np.arange(size)
    key[:m] = (j + 1) << shift | vrank
    # queries in (c, t) order read each level's arrays front to back
    order = np.argsort(c * (m + 1) + t)
    c = c[order]
    count = t[order]
    start = np.zeros(t.size, dtype=np.int64)
    best = np.zeros(t.size, dtype=np.int64)
    zeros = np.zeros(size + 1, dtype=np.int64)
    run = np.zeros(size + 1, dtype=np.int64)  # run[-1] = 0 answers a miss
    for lev in range(shift - 2, -1, -1):
        half = 1 << lev
        one = (key & half).astype(bool)
        np.cumsum(~one, out=zeros[1:])
        # zeros in the query's node before its count; a node start holds
        # as many zeros as ones before it
        z = zeros[start + count] - (start >> 1)
        ones, zs = np.compress(one, key), np.compress(~one, key)
        split = key.reshape(-1, 2, half)
        split[:, 0] = zs.reshape(-1, half)
        split[:, 1] = ones.reshape(-1, half)
        np.maximum.accumulate(
            key.reshape(-1, half), axis=1, out=run[:-1].reshape(-1, half)
        )
        right = (c & half).astype(bool)
        best = np.maximum(best, run[np.where(right & (z > 0), start + z - 1, -1)])
        start += right * half
        count = np.where(right, count - z, z)
    out = np.empty_like(best)
    out[order] = (best >> shift) - 1
    return out


def significant_feature_intervals(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> list[FeatureInterval]:
    """All inclusion-minimal certified increase/decrease hulls at level alpha.

    A pair of disjoint system intervals (left, right) certifies an increase
    when the right average density exceeds the left one by more than the sum
    of the half-radii; decreases are symmetric.  All returned statements hold
    simultaneously with confidence at least 1 - alpha.

    For each right interval b the tightest hull needs the largest left end
    j[a] over the left intervals a with k[a] <= j[b] and a threshold below
    b's, a 2-D dominance query.  All m system intervals are answered at once
    by a wavelet-matrix descent over the bits of the threshold ranks, about
    log2(m) levels of a few O(m) array passes each.  Among the left intervals
    with that largest left end, the witness and margin reported are those a
    prefix-max binary indexed tree filled in threshold order would keep (the
    candidate in the first tree node its query visits, then the first
    inserted), so the output equals that of the tree search in
    ``tests/reference.py``.
    """
    n = sample.n
    _, _, scale = interval_arrays(n)
    if scale.size == 0:
        raise ValueError(f"interval system empty for n={n}")
    kappa = lookup_kappa(table, alpha, n)
    j, k, dens, r = _radii(sample, kappa)
    x = sample.values
    low = dens - 0.5 * r
    high = dens + 0.5 * r
    m = j.size
    # left candidates must end at or before the right interval starts: the
    # rows before the first one whose right end passes j
    t = np.searchsorted(k, np.arange(n + 2))[j + 1]
    # the system intervals with left end e: by_j[j_start[e] : j_start[e + 1]]
    by_j = np.argsort(j, kind="stable")
    j_start = np.searchsorted(j[by_j], np.arange(n + 1))

    out: list[FeatureInterval] = []
    for direction in ("increase", "decrease"):
        # pair (a, b) with k[a] <= j[b] certifies the direction iff
        # vals[a] < thr[b]; for each b the tightest hull comes from the
        # certifying a with the largest left endpoint j[a]
        if direction == "increase":
            vals, thr = high, low
        else:
            vals, thr = -low, -high
        # with vals ranked, a certifies b iff a < t[b] and vrank[a] < c[b]
        by_val = np.argsort(vals, kind="stable")
        vrank = np.empty_like(by_val)
        vrank[by_val] = np.arange(m)
        c = np.searchsorted(vals[by_val], thr, side="left")
        lowest = np.minimum.accumulate(np.concatenate(([m], vrank)))
        b = np.flatnonzero(lowest[t] < c)  # the right intervals with a partner
        b = b[np.argsort(thr[b], kind="stable")]
        left_end = _max_left_end(j, vrank, t[b], c[b])
        lo_v = x[left_end - 1]
        hi_v = x[k[b] - 1]
        # keep only hulls minimal under set inclusion: widest-left first,
        # a hull survives when its right end beats every earlier one
        order = np.lexsort((hi_v, -lo_v))
        hi_sorted = hi_v[order]
        earlier = np.minimum.accumulate(np.concatenate(([np.inf], hi_sorted[:-1])))
        for q in order[hi_sorted < earlier]:
            rb = int(b[q])
            tb = int(t[rb])
            cand = by_j[j_start[left_end[q]] : j_start[left_end[q] + 1]]
            cand = cand[(cand < tb) & (vrank[cand] < c[rb])]
            # the pick of a prefix-max Fenwick tree over positions, filled in
            # vals order: the first node its query visits, then the first in
            la = int(min(cand, key=lambda a: ((int(a) ^ tb).bit_length(), vrank[a])))
            out.append(
                FeatureInterval(
                    hull=(float(lo_v[q]), float(hi_v[q])),
                    direction=direction,
                    margin=float(thr[rb] - vals[la]),
                    witnesses=(
                        IntervalSpec(int(j[la]), int(k[la]), int(scale[la])),
                        IntervalSpec(int(j[rb]), int(k[rb]), int(scale[rb])),
                    ),
                )
            )
    out.sort(key=lambda f: f.hull)
    return out


def lower_bound_modes(features: list[FeatureInterval]) -> tuple[int, int]:
    """Certified lower bounds (modes, troughs) from a feature list.

    Greedily builds the longest direction-alternating chain of pairwise
    disjoint hulls (earliest right endpoint first); each adjacent
    (increase, decrease) pair certifies a mode, each (decrease, increase)
    pair a trough.  No certificates give (0, 0): no nontrivial bound.
    """
    feats = sorted(features, key=lambda f: (f.hull[1], f.hull[0]))
    modes = troughs = 0
    for start in ("increase", "decrease"):
        chain = []
        want = start
        right = -np.inf
        for f in feats:
            if f.direction == want and f.hull[0] >= right:
                chain.append(f.direction)
                right = f.hull[1]
                want = "decrease" if want == "increase" else "increase"
        m = sum(
            1 for a, b in zip(chain, chain[1:]) if (a, b) == ("increase", "decrease")
        )
        t = sum(
            1 for a, b in zip(chain, chain[1:]) if (a, b) == ("decrease", "increase")
        )
        if (m, t) > (modes, troughs):
            modes, troughs = m, t
    return modes, troughs
