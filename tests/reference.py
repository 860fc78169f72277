"""Reference implementations the library is checked against.

Plain and exhaustive versions of what ``mshist`` computes faster: the
scalar brentq band solver, the per-interval bands built on it, the list form
of the interval system, the plain Bellman recursion over all predecessors,
the one-bin test read from the whole band table, the exhaustive-search
oracle, the audit's violation test one system interval at a time in value
space, its merge test one window at a time and its document one violation
at a time, the results layer in its long form (the mode bounds from the
list of chain directions, a model's equality field by field, its pdf and
cdf with every index clamped, its step coordinates one bin at a time), the
feature search on a binary indexed (Fenwick) tree, its scan for the
inclusion-minimal hulls as a quadratic pair scan with a linear
inclusion-minimal filter, the multiscale statistic evaluated on every
system interval, the deterministic check of the paper's Proposition 1,
and the reader of features documents.  The oracle solves its own bands and
widens them by ``BAND_SLACK`` itself (:func:`widen`), so it shares only the
membership test :func:`mshist.bounds.in_band` with the fit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from mshist.bounds import BAND_SLACK, ConstraintTable, constraint_table, in_band
from mshist.densities import get_density
from mshist.dp import HistogramModel, _admits, _backtrack, _bellman_pruned, _model_from_cuts
from mshist.evaluate import MERGE_WINDOW, AuditReport
from mshist.inference import FeatureInterval, _radii
from mshist.intervals import IntervalSpec, interval_arrays, level_counts, row_index
from mshist.multiscale import QuantileTable, log_likelihood_ratio, lookup_kappa, penalty
from mshist.sample import SortedSample

#: absolute tolerance of the mass roots
ROOT_TOL = 1e-10


def build_interval_system(n: int) -> list[IntervalSpec]:
    """All intervals of the system for sample size n, sorted by right index
    then left index.  Empty when no level >= 2 exists (small n)."""
    j, k, lev = interval_arrays(n)
    return [IntervalSpec(int(a), int(b), int(s)) for a, b, s in zip(j, k, lev)]


def count_extremes_reference(values) -> np.ndarray:
    """:func:`mshist.intervals.count_extremes` from the per-interval index
    arrays: per count, the least and the largest X_(k) - X_(j) over the
    system intervals, as a ``(2, counts)`` array."""
    x = np.asarray(values, dtype=float)
    j, k, _ = interval_arrays(x.size)
    counts = level_counts(x.size)
    group, _ = row_index(x.size)
    diff = x[k - 1] - x[j - 1]
    out = np.stack((np.full(counts.size, np.inf), np.full(counts.size, -np.inf)))
    np.minimum.at(out[0], group, diff)
    np.maximum.at(out[1], group, diff)
    return out


# ---------------------------------------------------------------------------
# scalar bands


def widen(lo, hi):
    """The band [lo, hi] widened by the relative BAND_SLACK, which the
    library applies to each count's mass roots.  Each bound is scaled by a
    positive constant, so +-inf maps to itself.  Vectorized."""
    return lo * (1.0 - BAND_SLACK), hi * (1.0 + BAND_SLACK)


@dataclass(frozen=True)
class FeasibleBand:
    """Feasible constant-density band [lower, upper] of one interval.

    ``empty`` marks an unsatisfiable constraint (kappa below the negated
    penalty); lower/upper are then meaningless and set to +inf/-inf so any
    accidental membership test fails.
    """

    interval: IntervalSpec
    lower: float
    upper: float
    empty: bool = False

    def contains(self, mu: float) -> bool:
        if self.empty:
            return False
        return bool(in_band(mu, *widen(self.lower, self.upper)))


def _gap(q: float, p_hat: float, kappa: float, n: int) -> float:
    return 2.0 * log_likelihood_ratio(p_hat, q, n) - (penalty(p_hat) + kappa) ** 2


def mass_roots(p_hat: float, kappa: float, n: int) -> tuple[float, float]:
    """The two hypothesized-mass roots around p_hat, or (nan, nan) when the
    constraint is unsatisfiable."""
    if kappa <= -penalty(p_hat):
        return (np.nan, np.nan)
    tiny = 1e-300
    lo = brentq(_gap, tiny, p_hat, args=(p_hat, kappa, n), xtol=ROOT_TOL)
    hi = brentq(_gap, p_hat, 1.0 - 1e-16, args=(p_hat, kappa, n), xtol=ROOT_TOL)
    return (float(lo), float(hi))


def constraint_interval(
    interval: IntervalSpec, sample: SortedSample, kappa: float
) -> FeasibleBand:
    """Feasible density band of one interval at threshold ``kappa``.

    The band always contains the interval's own empirical average density;
    an unsatisfiable constraint is returned as an explicit empty marker, not
    an error.
    """
    p_hat = interval.count / sample.n
    q_lo, q_hi = mass_roots(p_hat, kappa, sample.n)
    if np.isnan(q_lo):
        return FeasibleBand(interval, np.inf, -np.inf, empty=True)
    x = sample.values
    width = x[interval.k - 1] - x[interval.j - 1]
    return FeasibleBand(interval, q_lo / width, q_hi / width)


def feasible_bands(sample: SortedSample, kappa: float) -> list[FeasibleBand]:
    """Bands for every interval of the system, in system order."""
    return [
        constraint_interval(iv, sample, kappa)
        for iv in build_interval_system(sample.n)
    ]


# ---------------------------------------------------------------------------
# plain recursion


def _block_geometry(x: np.ndarray, n: int, i: int):
    """counts and widths of blocks (j, i] for j = 0 .. i-1."""
    counts = np.empty(i, dtype=np.int64)
    counts[0] = i
    counts[1:] = i - np.arange(1, i)
    left = np.empty(i)
    left[0] = x[0]
    left[1:] = x[: i - 1]
    widths = x[i - 1] - left
    return counts, widths


def _bellman_unpruned(sample: SortedSample, kappa: float):
    """Plain recursion over all predecessors at threshold ``kappa``;
    reference for the pruned solver."""
    table = constraint_table(sample, kappa)
    x = sample.values
    n = sample.n
    big = n + 2
    K = np.full(n + 1, big, dtype=np.int64)
    V = np.full(n + 1, np.inf)
    pred = np.full(n + 1, -1, dtype=np.int64)
    K[0] = 0
    V[0] = 0.0
    # lmax[a] / umin[a]: tightest band among processed intervals with left
    # endpoint a; suffix aggregation over a >= j gives the block constraint
    lmax = np.full(n + 1, -np.inf)
    umin = np.full(n + 1, np.inf)
    for i in range(1, n + 1):
        for r in range(table.start[i], table.start[i + 1]):
            a = table.a[r]
            if table.lo[r] > lmax[a]:
                lmax[a] = table.lo[r]
            if table.hi[r] < umin[a]:
                umin[a] = table.hi[r]
        # slo[j], shi[j] for j = 0..i-1 (j = 0 aggregates a >= 1, same as j = 1)
        slo = np.maximum.accumulate(lmax[i - 1 :: -1])[::-1]
        shi = np.minimum.accumulate(umin[i - 1 :: -1])[::-1]
        slo[0] = slo[1] if i > 1 else lmax[0]
        shi[0] = shi[1] if i > 1 else umin[0]
        counts, widths = _block_geometry(x, n, i)
        with np.errstate(divide="ignore"):
            mu = counts / (n * widths)
        feas = in_band(mu, slo, shi) & (widths > 0.0) & (K[:i] < big)
        if not feas.any():
            continue
        kmin = K[:i][feas].min() + 1
        cand = feas & (K[:i] == kmin - 1)
        cost = V[:i] - counts * np.log(mu)
        cost = np.where(cand, cost, np.inf)
        jbest = int(np.argmin(cost))  # argmin takes the smallest index on ties
        K[i] = kmin
        V[i] = cost[jbest]
        pred[i] = jbest
    return K, V, pred


def unpruned_histogram(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> HistogramModel:
    """:func:`mshist.essential_histogram` with the plain recursion."""
    n = sample.n
    j, _, _ = interval_arrays(n)
    if j.size == 0:
        return _model_from_cuts(sample, [0, n])
    kappa = lookup_kappa(table, alpha, n)
    _, _, pred = _bellman_unpruned(sample, kappa)
    return _model_from_cuts(sample, _backtrack(pred, n))


def table_band(table: ConstraintTable):
    """Band of the block (0, n]: one max and one min over the whole band
    table; reference for :func:`mshist.bounds.whole_band`."""
    return np.max(table.lo, initial=-np.inf), np.min(table.hi, initial=np.inf)


def table_histogram(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> HistogramModel:
    """:func:`mshist.essential_histogram` with the one bin (0, n] tested
    against :func:`table_band`: the band table is built before that test."""
    n = sample.n
    kappa = lookup_kappa(table, alpha, n)
    if kappa is None:
        return _model_from_cuts(sample, [0, n])
    edge = np.concatenate((sample.values[:1], sample.values))
    if _admits(edge, n, 0, n, *table_band(constraint_table(sample, kappa))):
        return _model_from_cuts(sample, [0, n])
    _, pred = _bellman_pruned(sample, kappa)
    return _model_from_cuts(sample, _backtrack(pred, n))


# ---------------------------------------------------------------------------
# exhaustive oracle


def segment_cost(
    j: int, i: int, sample: SortedSample, bands: list[FeasibleBand]
) -> float:
    """Cost of block (j, i], or +inf when some contained interval's band
    excludes the block's average density.

    Exhaustive containment semantics; the DP sweep reproduces this exactly.
    """
    if not 0 <= j < i <= sample.n:
        raise ValueError("need 0 <= j < i <= n")
    x = sample.values
    if j == 0:
        count = i
        width = x[i - 1] - x[0]
    else:
        count = i - j
        width = x[i - 1] - x[j - 1]
    if width <= 0.0:
        return np.inf
    mu = count / (sample.n * width)
    for band in bands:
        if band.interval.j >= max(j, 1) and band.interval.k <= i:
            if not band.contains(mu):
                return np.inf
    return -count * np.log(mu)


def brute_force_histogram(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> HistogramModel:
    """Exhaustive-search oracle over all segmentations; n <= 16.

    Ties: minimal block count, then minimal total cost, then the
    lexicographically smallest breakpoint index sequence.
    """
    n = sample.n
    if n > 16:
        raise ValueError("brute force limited to n <= 16")
    j, _, _ = interval_arrays(n)
    if j.size == 0:
        return _model_from_cuts(sample, [0, n])
    kappa = lookup_kappa(table, alpha, n)
    bands = feasible_bands(sample, kappa)
    cost = np.full((n + 1, n + 1), np.inf)
    for jj in range(0, n):
        for ii in range(jj + 1, n + 1):
            cost[jj, ii] = segment_cost(jj, ii, sample, bands)
    best = None  # (nblocks, total_cost, cuts)
    interior = range(2, n)  # a cut at 1 would leave a zero-width first block
    for r in range(0, n - 1):
        for combo in combinations(interior, r):
            nodes = (0,) + combo + (n,)
            total = 0.0
            ok = True
            for a, b in zip(nodes, nodes[1:]):
                c = cost[a, b]
                if not np.isfinite(c):
                    ok = False
                    break
                total += c
            if not ok:
                continue
            key = (len(nodes) - 1, total, combo)
            if best is None or key < best:
                best = key
        if best is not None and best[0] == r + 1:
            break  # minimal block count found; larger r only adds blocks
    if best is None:
        raise RuntimeError("no feasible segmentation found (should be impossible)")
    return _model_from_cuts(sample, [0, *best[2], n])


# ---------------------------------------------------------------------------
# the audit


def violation_reference(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> list[IntervalSpec]:
    """:func:`mshist.evaluate.violation_intervals` one system interval at a
    time, in value space.  The pieces are (-inf, e_0], (e_0, e_1], ...,
    (e_nb, inf), the two outside the support at height 0; an interval
    (X_(j), X_(k)] inside one piece is flagged when the piece's height lies
    outside its band."""
    n = sample.n
    j, k, scale = interval_arrays(n)
    if j.size == 0:
        return []
    ctab = constraint_table(sample, lookup_kappa(table, alpha, n))
    x = sample.values
    edges = [-np.inf, *estimator.breaks.tolist(), np.inf]
    pieces = list(zip(edges, edges[1:], [0.0, *estimator.heights.tolist(), 0.0]))
    out = []
    for r in range(j.size):
        lo, hi = x[j[r] - 1], x[k[r] - 1]
        for left, right, height in pieces:
            if left <= lo and hi <= right:
                if not in_band(height, ctab.lo[r], ctab.hi[r]):
                    out.append(IntervalSpec(int(j[r]), int(k[r]), int(scale[r])))
                break
    return out




def _merge_admissible(sample, estimator, first, last, ctab) -> bool:
    """True when segments first..last (inclusive), pooled into one block
    whose density is the sample's count over it, lie in the band of every
    system interval inside the block."""
    n = sample.n
    x = sample.values
    lo_v, hi_v = estimator.breaks[first], estimator.breaks[last + 1]
    count = int(
        np.searchsorted(x, hi_v, side="right") - np.searchsorted(x, lo_v, side="right")
    )
    if first == 0:
        count += int(np.sum(x == lo_v))
    mu = count / (n * (hi_v - lo_v))
    # rows (a, b] with x[a-1] >= lo_v and x[b-1] <= hi_v: the first
    # start[b_max + 1] rows end by b_max, and of those the left end decides
    a_min = np.searchsorted(x, lo_v, side="left") + 1
    b_max = np.searchsorted(x, hi_v, side="right")
    rows = slice(0, ctab.start[b_max + 1])
    inside = ctab.a[rows] >= a_min
    return bool(np.all(in_band(mu, ctab.lo[rows][inside], ctab.hi[rows][inside])))


def removable_reference(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> tuple[tuple[int, int], ...]:
    """:func:`mshist.evaluate.removable_changepoints` one merge window and
    one system row at a time, with multiplicities by a scan of all windows."""
    nb = estimator.nbins
    if nb < 2:
        return ()
    n = sample.n
    j, _, _ = interval_arrays(n)
    if j.size == 0:
        return ()
    ctab = constraint_table(sample, lookup_kappa(table, alpha, n))
    admissible = {}
    for first in range(nb):
        for last in range(first + 1, min(first + MERGE_WINDOW, nb)):
            admissible[(first, last)] = _merge_admissible(
                sample, estimator, first, last, ctab
            )
    out = []
    for cp in range(1, nb):  # interior breakpoints
        if not admissible[(cp - 1, cp)]:
            continue
        mult = sum(
            1
            for (first, last), ok in admissible.items()
            if ok and first < cp <= last
        )
        out.append((cp, mult))
    return tuple(out)


def audit_document_reference(report: AuditReport, sample: SortedSample) -> dict:
    """:func:`mshist.io.audit_document` one violation at a time: every
    flagged interval read as an ``IntervalSpec`` and its ends looked up
    one by one."""
    x = sample.values
    return {
        "type": "audit",
        "alpha": report.alpha,
        "kappa": report.kappa,
        "clean": report.clean,
        "violations": [
            {
                "j": v.j,
                "k": v.k,
                "scale": v.scale,
                "left": float(x[v.j - 1]),
                "right": float(x[v.k - 1]),
            }
            for v in report.violations
        ],
        "removable": [
            {"index": cp, "multiplicity": mult} for cp, mult in report.removable
        ],
    }


# ---------------------------------------------------------------------------
# the results layer in its long form


def lower_bound_modes_reference(features: list[FeatureInterval]) -> tuple[int, int]:
    """:func:`mshist.inference.lower_bound_modes` with each greedy chain kept
    as its list of directions and every adjacent pair counted."""
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


def models_equal_reference(a: HistogramModel, b: HistogramModel) -> bool:
    """``HistogramModel.__eq__`` field by field: n, breaks, heights, and
    counts that are both missing or both present and equal."""
    counts_equal = (a.counts is None) == (b.counts is None) and (
        a.counts is None or np.array_equal(a.counts, b.counts)
    )
    return (
        a.n == b.n
        and np.array_equal(a.breaks, b.breaks)
        and np.array_equal(a.heights, b.heights)
        and counts_equal
    )


def pdf_reference(model: HistogramModel, x) -> np.ndarray:
    """``HistogramModel.pdf`` with the left end of the first bin a special
    case and the bin index clipped."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(model.breaks, x, side="left") - 1
    idx = np.where(x == model.breaks[0], 0, idx)
    inside = (idx >= 0) & (idx < model.nbins) & (x <= model.breaks[-1])
    return np.where(inside, model.heights[np.clip(idx, 0, model.nbins - 1)], 0.0)


def cdf_reference(model: HistogramModel, x) -> np.ndarray:
    """``HistogramModel.cdf`` with every index clamped where it is read."""
    x = np.asarray(x, dtype=float)
    nb = model.nbins
    cum = np.concatenate(([0.0], np.cumsum(model.heights * np.diff(model.breaks))))
    idx = np.clip(np.searchsorted(model.breaks, x, side="right") - 1, 0, nb)
    left = model.breaks[np.minimum(idx, nb)]
    h = np.where(idx < nb, model.heights[np.minimum(idx, nb - 1)], 0.0)
    val = cum[np.minimum(idx, nb)] + h * np.maximum(x - left, 0.0)
    val = np.where(x < model.breaks[0], 0.0, val)
    return np.minimum(val, 1.0)


def histogram_steps_reference(fit: HistogramModel) -> list[tuple[float, float]]:
    """:func:`mshist.io.histogram_steps` one bin at a time."""
    pts = []
    for i in range(fit.nbins):
        h = float(fit.heights[i])
        pts.append((float(fit.breaks[i]), h))
        pts.append((float(fit.breaks[i + 1]), h))
    return pts


# ---------------------------------------------------------------------------
# feature search on a Fenwick tree


def feature_intervals_tree(
    sample: SortedSample, alpha: float, table: QuantileTable
) -> list[FeatureInterval]:
    """:func:`mshist.inference.significant_feature_intervals` on a prefix-max
    binary indexed tree, one system interval at a time.

    Among the certifying left intervals with the largest left end, the query
    keeps the one in the first tree node it visits, and within a node the
    one inserted first; the reported margin and witnesses follow that rule.
    """
    n = sample.n
    jj, kk, scale = interval_arrays(n)
    if jj.size == 0:
        raise ValueError(f"interval system empty for n={n}")
    kappa = lookup_kappa(table, alpha, n)
    band = _radii(sample, kappa)
    j, k = band.a, band.b
    x = sample.values
    m = j.size

    out: list[FeatureInterval] = []
    for direction in ("increase", "decrease"):
        # pair (a, b) with k[a] <= j[b] certifies the direction iff
        # vals[a] < thr[b]; for each b the tightest hull comes from the
        # certifying a with the largest left endpoint j[a]
        if direction == "increase":
            vals = band.hi
            thr = band.lo
        else:
            vals = -band.lo
            thr = -band.hi
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


# ---------------------------------------------------------------------------
# inclusion-minimal hulls of one direction by a quadratic pair scan


def minimal_intervals(left, right):
    """Positions of the inclusion-minimal intervals among ``[left[i],
    right[i]]``, ascending: those containing no other interval of the set but
    equal ones, which all survive together for the caller to choose from.

    Ends are nonnegative integer indices.  An interval is minimal iff its
    right end is the least of its left end's and lies strictly below every
    right end of a larger left end; a per-left-end minimum and its suffix
    minimum give both in O(Q + max(left)) time, without a sort.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.size == 0:
        return np.empty(0, dtype=np.intp)
    least = np.full(int(left.max()) + 2, int(right.max()) + 1, dtype=np.int64)
    np.minimum.at(least, left, right)
    beyond = np.minimum.accumulate(least[::-1])[::-1]  # over left ends >= l
    return np.flatnonzero((right == least[left]) & (right < beyond[left + 1]))


def minimal_hull_pairs(j, k, vals, thr) -> list[tuple[int, int]]:
    """:func:`mshist.inference._minimal_hulls` by a quadratic pair scan.

    Row a certifies row b when k[a] <= j[b] and vals[a] < thr[b].  Each b
    with a partner gets the hull from its certifying left end furthest
    right; :func:`minimal_intervals` keeps the inclusion-minimal hulls, and
    of equal ones the lowest threshold, then position, survives.  The
    witness is the certifying row at that left end which a prefix-max
    Fenwick tree over positions, filled in vals order, would keep: the first
    tree node the query visits, then the least vals, then the position.
    Returns (witness, right interval) pairs in ascending right end.
    """
    j, k = np.asarray(j), np.asarray(k)
    cert = (k[None, :] <= j[:, None]) & (vals[None, :] < thr[:, None])  # [b, a]
    b = np.flatnonzero(cert.any(axis=1))
    if not b.size:
        return []
    left = np.where(cert[b], j, -1).max(axis=1)
    keep = minimal_intervals(left, k[b])
    keep = keep[np.lexsort((b[keep], thr[b[keep]], left[keep]))]
    keep = keep[np.diff(left[keep], prepend=-2) != 0]
    out = []
    for q in keep.tolist():
        rb = int(b[q])
        t = int(np.searchsorted(k, j[rb], side="right"))  # rows ending by j[b]
        cand = np.flatnonzero(cert[rb] & (j == left[q])).tolist()
        out.append((min(cand, key=lambda a: ((a ^ t).bit_length(), vals[a], a)), rb))
    return out


# ---------------------------------------------------------------------------
# multiscale statistic over the whole system


def multiscale_statistic_full(sample: SortedSample, *, cdf) -> float:
    """:func:`mshist.multiscale.multiscale_statistic` with the penalized
    root-LR evaluated on every system interval, not on the extremes of each
    count group."""
    n = sample.n
    j, k, _ = interval_arrays(n)
    if j.size == 0:
        raise ValueError(f"interval system empty for n={n}; sample too small")
    x = sample.values
    p0 = cdf(x[k - 1]) - cdf(x[j - 1])
    p_hat = (k - j) / n
    stat = np.sqrt(2.0 * log_likelihood_ratio(p_hat, p0, n)) - penalty(p_hat)
    return float(stat.max())


# ---------------------------------------------------------------------------
# the paper's Proposition 1


def proposition1_check(k_n: int) -> tuple[float, float]:
    """Deterministic lower-bound check for the population equal-width
    histogram of the two-level step density on [0, 1].

    For odd k_n the bin straddling 1/2 averages the two density levels; the
    interval of truth-mass p = 1/(4 k_n) just right of 1/2 then shows a
    standardized mass error of at least sqrt(p/(1-p)) > p-free bound
    0.5*sqrt(p).  Returns (lhs, rhs) with lhs >= rhs always.
    """
    if k_n < 3 or k_n % 2 == 0:
        raise ValueError("k_n must be odd and >= 3")
    truth = get_density("step")
    breaks = np.linspace(0.0, 1.0, k_n + 1)
    mass = np.diff(np.asarray(truth.cdf(breaks), dtype=float))
    model = HistogramModel(breaks=breaks, heights=mass * k_n, n=2)
    p = 1.0 / (4.0 * k_n)
    # truth-mass p immediately right of the jump at 1/2: width 2p there
    left, right = 0.5, 0.5 + 2.0 * p
    h_mass = float(model.cdf(right) - model.cdf(left))
    lhs = abs(h_mass - p) / math.sqrt(p * (1.0 - p))
    rhs = 0.5 * math.sqrt(p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# features documents


def read_features(path) -> list[FeatureInterval]:
    """The features of a :func:`mshist.io.feature_document` file."""
    doc = json.loads(Path(path).read_text())
    return [
        FeatureInterval(
            hull=(f["left"], f["right"]),
            direction=f["direction"],
            margin=f["margin"],
            witnesses=tuple(
                IntervalSpec(w["j"], w["k"], w["scale"]) for w in f["witnesses"]
            ),
        )
        for f in doc["features"]
    ]
