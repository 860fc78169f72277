"""Finite-sample confidence statements about the shape of the density.

For each interval of the multiscale system the empirical average density is
within half a computable radius of the true average density, simultaneously
over the whole system, with probability at least 1 - alpha.  The radius in
mass depends on the interval's count alone, so it is evaluated once per
count as a mass band and laid out over the system by ``bounds.band_table``,
the builder of the fit's bands.  Comparing two disjoint intervals whose
average densities differ by more than the sum of half-radii therefore
certifies a point of increase (or decrease) of the density between them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstraintTable, band_table
from .intervals import (
    IntervalSpec,
    count_groups,
    interval_arrays,
    minimal_intervals,
)
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


def _radii(sample: SortedSample, kappa: float) -> ConstraintTable:
    """The radius band of every system interval: its empirical average
    density plus or minus half its simultaneous confidence radius.

    With p a count's empirical mass and c = penalty(p) + kappa, the half
    radius in mass is h = c * (sqrt(p*(1-p)/n) + c/(2n)); the mass band
    [p - h, p + h] of every count goes to :func:`bounds.band_table`, which
    divides it by each interval's width.
    """
    n = sample.n
    counts, _ = count_groups(n)
    p = counts / n
    c = penalty(p) + kappa
    h = c * (np.sqrt(p * (1.0 - p) / n) + c / (2.0 * n))
    return band_table(sample, p - h, p + h)


def _max_left_end(j, queries):
    """For each ``(vrank, t, c)`` in ``queries`` and each of its queries q:
    the largest j[a] over the positions a < t[q] with vrank[a] < c[q].
    Returns the final arrangement ``pos`` and per set ``(best, start, count)``:
    ``pos[start[q] : start[q] + count[q]]``, each query's last node, are the
    positions a < t[q] with j[a] == best[q], ascending.

    ``vrank`` is a permutation of the positions, and every query must have
    such an a.  A wavelet matrix over the bits of the left end: level by level
    from the top bit of j, the arrangement is stably split by that bit, zeros
    first, so every node (the positions whose j shares the bits above) is a
    contiguous run in position order.  A query keeps its node's start and the
    end of the node's members with position < t.  It takes the one child when
    the child's first members hold a rank below c, which a running max of the
    rank complements m - 1 - vrank within each node shows.  Its answer is the
    left end of its last node.

    Per set every position carries one packed word, ``node << shift | rank
    complement``, that moves with the arrangement.  After a level's split the
    arrangement is sorted by the bit-reversed prefix of j, so OR-ing the
    level's bit into the node code of the one-part keeps the codes ascending
    and distinct per node: the running max restarts at each node by itself.
    Queries read only the one-part, so the running max is taken there alone,
    into a buffer whose first slot stands before it, and the query updates
    are branch-free.  The split depends on j alone and serves every query
    set.  A set with no queries is not descended, and when no set has a query
    no level is built: ``pos`` is then the identity.
    """
    m = j.size
    shift = m.bit_length()
    low = (1 << shift) - 1
    # per set: packed words, node start, node end, complement of c
    sets = [
        [m - 1 - vrank, np.zeros_like(t), t.copy(), m - 1 - c]
        for vrank, t, c in queries
    ]
    busy = [s for s in sets if s[1].size]
    top = int(j.max()).bit_length() if busy else 0
    assert top + shift <= 62, "packed words overflow int64"
    key = j << shift | np.arange(m)  # left end and position, moved together
    ones = np.zeros(m + 1, dtype=np.int64)
    run = np.zeros(m + 1, dtype=np.int64)  # slot 0 stands before the one-part
    for level, bit in enumerate(range(top - 1, -1, -1)):
        one = (key & (1 << (shift + bit))) != 0
        np.cumsum(one, out=ones[1:])
        zeros = m - ones[m]
        split = np.concatenate((np.flatnonzero(~one), np.flatnonzero(one)))
        key = key[split]
        for s in busy:
            words, start, end, bar = s
            words = s[0] = words[split]
            words[zeros:] |= 1 << (shift + level)
            np.maximum.accumulate(words[zeros:], out=run[1 : m - zeros + 1])
            before = ones[start]
            after = ones[end]
            take = (after > before) & ((run[after] & low) > bar)
            start -= before
            start += take * (zeros + before - start)
            end -= after
            end += take * (zeros + after - end)
    found = [(key[start] >> shift, start, end - start) for _, start, end, _ in sets]
    key &= low
    return key, found


def significant_feature_intervals(
    sample: SortedSample, alpha: float, table: QuantileTable | None
) -> list[FeatureInterval]:
    """All inclusion-minimal certified increase/decrease hulls at level alpha.

    A pair of disjoint system intervals (left, right) certifies an increase
    when the right average density exceeds the left one by more than the sum
    of the half-radii; decreases are symmetric.  All returned statements hold
    simultaneously with confidence at least 1 - alpha.  A sample too small
    for the interval system (n < 9) has no pair, so nothing is certified:
    the list is empty and ``table`` is not read.

    The search reads the radius band table of :func:`_radii`.  For each
    right interval b the tightest hull needs the largest left end j[a] over
    the left intervals a with k[a] <= j[b] and a threshold below b's, a 2-D
    dominance query, answered for both directions by one wavelet-matrix
    descent over the bits of the left ends (log2(n) levels of a few O(m)
    array passes, see :func:`_max_left_end`).  The sample has no ties, so
    the hulls are filtered to the inclusion-minimal ones on their index ends
    by :func:`intervals.minimal_intervals`, in linear time; of equal hulls
    the one of lowest threshold, then lowest position, is kept.  Of the
    candidates in a query's last node, the witness and margin reported are
    those a prefix-max binary indexed tree filled in threshold order would
    keep (the first tree node its query visits, then the first inserted), as
    the tree search in ``tests/reference.py`` does.
    """
    n = sample.n
    kappa = lookup_kappa(table, alpha, n)
    if kappa is None:
        return []
    band = _radii(sample, kappa)
    j, k = band.a, band.b
    _, _, scale = interval_arrays(n)
    x = sample.values
    t = band.start[j + 1]  # left candidates end by the right one's start

    searches = []
    for vals, thr in ((band.hi, band.lo), (-band.lo, -band.hi)):
        # increase, then decrease: pair (a, b) with k[a] <= j[b] certifies
        # the direction iff vals[a] < thr[b]; for each b the tightest hull
        # comes from the certifying a with the largest left endpoint j[a].
        # A prefix min of vals finds the b with a partner; vals are ranked
        # only then: a certifies b iff a < t[b] and vrank[a] < c, however ties rank
        lowest = np.minimum.accumulate(np.concatenate(([np.inf], vals)))
        b = np.flatnonzero(lowest[t] < thr)  # the right intervals with a partner
        by_val = np.argsort(vals) if b.size else b
        vrank = np.empty_like(by_val)
        vrank[by_val] = np.arange(by_val.size)
        order = np.argsort(thr[b])  # per b, searched by ascending threshold
        c = np.empty_like(b)
        c[order] = np.searchsorted(vals[by_val], thr[b[order]], side="left")
        searches.append((vals, thr, vrank, c, b))
    pos, found = _max_left_end(j, [(vr, t[b], c) for _, _, vr, c, b in searches])

    out: list[FeatureInterval] = []
    for direction, (vals, thr, vrank, c, b), (left_end, start, count) in zip(
        ("increase", "decrease"), searches, found
    ):
        # keep only hulls minimal under set inclusion; equal ones share their
        # left end, and of those the lowest threshold, then position, survives
        keep = minimal_intervals(left_end, k[b])
        keep = keep[np.lexsort((thr[b[keep]], left_end[keep]))]
        lead = np.diff(left_end[keep], prepend=0) != 0  # left ends are >= 1
        for q in keep[lead]:
            rb = int(b[q])
            tb = int(t[rb])
            # the rows with that left end before t[rb], from the last node
            cand = pos[start[q] : start[q] + count[q]]
            cand = cand[vrank[cand] < c[q]]
            # the pick of a prefix-max Fenwick tree over positions, filled in
            # vals order, ties by position: the first node its query visits,
            # then the first in
            la = int(
                min(cand, key=lambda a: ((int(a) ^ tb).bit_length(), vals[a], a))
            )
            out.append(
                FeatureInterval(
                    hull=(float(x[left_end[q] - 1]), float(x[k[rb] - 1])),
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
    best = (0, 0)
    for start in ("increase", "decrease"):
        length = 0
        want = start
        right = -np.inf
        for f in feats:
            if f.direction == want and f.hull[0] >= right:
                length += 1
                right = f.hull[1]
                want = "decrease" if want == "increase" else "increase"
        # the chain alternates, so its first direction and its length give
        # both pair counts: L // 2 pairs start like it, (L - 1) // 2 do not
        pairs = (length // 2, max(length - 1, 0) // 2)
        best = max(best, pairs if start == "increase" else pairs[::-1])
    return best
