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

from .intervals import IntervalSpec, interval_arrays
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
    r = (2c/width) * (sqrt(p*(1-p)/n) + c/(2n)).
    """
    n = sample.n
    j, k, _ = interval_arrays(n)
    x = sample.values
    p = (k - j) / n
    c = penalty(p) + kappa
    width = x[k - 1] - x[j - 1]
    r = (2.0 * c / width) * (np.sqrt(p * (1.0 - p) / n) + c / (2.0 * n))
    dens = p / width
    return j, k, dens, r


def significant_feature_intervals(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> list[FeatureInterval]:
    """All inclusion-minimal certified increase/decrease hulls at level alpha.

    A pair of disjoint system intervals (left, right) certifies an increase
    when the right average density exceeds the left one by more than the sum
    of the half-radii; decreases are symmetric.  All returned statements hold
    simultaneously with confidence at least 1 - alpha.
    """
    n = sample.n
    jj, kk, scale = interval_arrays(n)
    if jj.size == 0:
        raise ValueError(f"interval system empty for n={n}")
    kappa = lookup_kappa(table, alpha, n)
    j, k, dens, r = _radii(sample, kappa)
    x = sample.values
    low = dens - 0.5 * r
    high = dens + 0.5 * r
    m = j.size

    out: list[FeatureInterval] = []
    for direction in ("increase", "decrease"):
        # pair (a, b) with k[a] <= j[b] certifies the direction iff
        # vals[a] < thr[b]; for each b the tightest hull comes from the
        # certifying a with the largest left endpoint j[a]
        if direction == "increase":
            vals = high
            thr = low
        else:
            vals = -low
            thr = -high
        # prefix-max tree over positions in k-order (k is ascending already):
        # insert left intervals in ascending vals, query max j over a prefix
        tree = np.full(m + 1, -1, dtype=np.int64)  # stores candidate index a

        def _insert(pos: int, a: int):
            i = pos + 1
            while i <= m:
                if tree[i] < 0 or j[a] > j[tree[i]]:
                    tree[i] = a
                i += i & (-i)

        def _query(t: int) -> int:
            best = -1
            i = t
            while i > 0:
                if tree[i] >= 0 and (best < 0 or j[tree[i]] > j[best]):
                    best = tree[i]
                i -= i & (-i)
            return best

        by_val = np.argsort(vals, kind="stable")
        by_thr = np.argsort(thr, kind="stable")
        hulls = []
        ins = 0
        for b in by_thr:
            while ins < m and vals[by_val[ins]] < thr[b]:
                _insert(int(by_val[ins]), int(by_val[ins]))
                ins += 1
            # left candidates must end at or before the right interval starts
            t = int(np.searchsorted(k, j[b], side="right"))
            a = _query(t)
            if a >= 0:
                margin = float(thr[b] - vals[a])
                hulls.append((float(x[j[a] - 1]), float(x[k[b] - 1]), margin, a, b))
        # keep only hulls minimal under set inclusion
        kept = []
        min_right = np.inf
        for lo_v, hi_v, margin, a, b in sorted(hulls, key=lambda h: (-h[0], h[1])):
            if hi_v < min_right:
                kept.append((lo_v, hi_v, margin, a, b))
                min_right = hi_v
        for lo_v, hi_v, margin, a, b in sorted(kept):
            out.append(
                FeatureInterval(
                    hull=(lo_v, hi_v),
                    direction=direction,
                    margin=float(margin),
                    witnesses=(
                        IntervalSpec(int(j[a]), int(k[a]), int(scale[a])),
                        IntervalSpec(int(j[b]), int(k[b]), int(scale[b])),
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
