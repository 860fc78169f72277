"""Fewest-bins histogram under the multiscale constraint via a pruned
dynamic program over the order statistics.

Blocks are index ranges (j, i] of order statistics.  The virtual node j = 0
denotes the left edge at X_(1): block (0, i] spans [X_(1), X_(i)] with count
i and width X_(i) - X_(1); every other block (j, i] has count i - j and
width X_(i) - X_(j).  A block is feasible when its average density lies in
the feasible band of every system interval it contains; its cost is the
negative log-likelihood contribution -count*log(count / (n*width)), so among
all segmentations with minimal block count the solver returns the one of
maximal likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import BAND_SLACK, ConstraintTable, constraint_table, in_band
from .intervals import interval_arrays
from .multiscale import QuantileTable, lookup_kappa
from .sample import SortedSample

#: relative tolerance for merging equal-height neighbor bins
MERGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class HistogramModel:
    """Histogram density: ascending breakpoints and per-bin heights.

    The first bin is closed on the left, all bins are right-closed.  Heights
    integrate to one; adjacent heights differ (equal-height neighbors are
    merged at construction when counts are available).
    """

    breaks: np.ndarray
    heights: np.ndarray
    n: int
    counts: np.ndarray | None = None
    cut_indices: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must be strictly increasing, length >= 2")
        if heights.size != breaks.size - 1 or np.any(heights < 0):
            raise ValueError("need one nonnegative height per bin")
        total = float(np.sum(heights * np.diff(breaks)))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total!r}")
        counts = self.counts
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.size != heights.size:
                raise ValueError("counts must match bins")
        for a in (breaks, heights):
            a.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HistogramModel):
            return NotImplemented
        counts_equal = (self.counts is None) == (other.counts is None) and (
            self.counts is None or np.array_equal(self.counts, other.counts)
        )
        return (
            self.n == other.n
            and np.array_equal(self.breaks, other.breaks)
            and np.array_equal(self.heights, other.heights)
            and counts_equal
        )

    @property
    def nbins(self) -> int:
        return self.heights.size

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="left") - 1
        idx = np.where(x == self.breaks[0], 0, idx)
        inside = (idx >= 0) & (idx < self.nbins) & (x <= self.breaks[-1])
        return np.where(inside, self.heights[np.clip(idx, 0, self.nbins - 1)], 0.0)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.heights * np.diff(self.breaks))))
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.nbins)
        left = self.breaks[np.minimum(idx, self.nbins)]
        h = np.where(idx < self.nbins, self.heights[np.minimum(idx, self.nbins - 1)], 0.0)
        val = cum[np.minimum(idx, self.nbins)] + h * np.maximum(x - left, 0.0)
        val = np.where(x < self.breaks[0], 0.0, val)
        return np.minimum(val, 1.0)

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "breaks": [float(b) for b in self.breaks],
            "heights": [float(h) for h in self.heights],
        }
        if self.counts is not None:
            d["counts"] = [int(c) for c in self.counts]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HistogramModel":
        return cls(
            breaks=np.asarray(d["breaks"], dtype=float),
            heights=np.asarray(d["heights"], dtype=float),
            n=int(d["n"]),
            counts=np.asarray(d["counts"], dtype=np.int64) if "counts" in d else None,
        )


# ---------------------------------------------------------------------------
# Bellman solver


def _bellman_pruned(sample: SortedSample, table: ConstraintTable):
    """Round-based recursion with search-set restriction and the empty-band
    stopping rule; output-identical to the plain recursion over all
    predecessors (kept in tests/reference.py)."""
    x = sample.values
    n = sample.n
    big = n + 2
    K = np.full(n + 1, big, dtype=np.int64)
    V = np.full(n + 1, np.inf)
    pred = np.full(n + 1, -1, dtype=np.int64)
    K[0] = 0
    V[0] = 0.0
    active = np.array([0], dtype=np.int64)
    k = 1
    while K[n] == big:
        base = int(active[0])  # smallest candidate left endpoint
        lmax = np.full(n + 1, -np.inf)
        umin = np.full(n + 1, np.inf)
        v_active = V[active]
        assigned = []
        for i in range(base + 1, n + 1):
            for r in range(table.start[i], table.start[i + 1]):
                a = table.a[r]
                if table.lo[r] > lmax[a]:
                    lmax[a] = table.lo[r]
                if table.hi[r] < umin[a]:
                    umin[a] = table.hi[r]
            lo_sl = lmax[base : i]
            hi_sl = umin[base : i]
            slo = np.maximum.accumulate(lo_sl[::-1])[::-1]
            shi = np.minimum.accumulate(hi_sl[::-1])[::-1]
            if base == 0:
                # the virtual node aggregates a >= 1 like node 1 does
                if i - base > 1:
                    slo[0] = slo[1]
                    shi[0] = shi[1]
            usable = active[active < i]
            slo_a = slo[usable - base]
            shi_a = shi[usable - base]
            if np.all(slo_a * (1.0 - BAND_SLACK) > shi_a * (1.0 + BAND_SLACK)):
                break  # no constant density fits any candidate block anymore
            if K[i] < big:
                continue
            if usable.size == 0:
                continue
            xi = x[i - 1]
            left = np.where(usable == 0, x[0], x[np.maximum(usable, 1) - 1])
            widths = xi - left
            counts = np.where(usable == 0, i, i - usable)
            with np.errstate(divide="ignore", invalid="ignore"):
                mu = counts / (n * widths)
            feas = (widths > 0.0) & in_band(mu, slo_a, shi_a)
            if not feas.any():
                continue
            cost = v_active[: usable.size] - counts * np.log(mu)
            cost = np.where(feas, cost, np.inf)
            pos = int(np.argmin(cost))
            K[i] = k
            V[i] = cost[pos]
            pred[i] = usable[pos]
            assigned.append(i)
        if not assigned:
            raise RuntimeError("dynamic program stalled; constraint table inconsistent")
        active = np.asarray(assigned, dtype=np.int64)
        k += 1
    return K, V, pred


def _backtrack(pred: np.ndarray, n: int) -> list[int]:
    cuts = [n]
    i = n
    while i > 0:
        i = int(pred[i])
        cuts.append(i)
    return cuts[::-1]


def _model_from_cuts(sample: SortedSample, cuts: list[int]) -> HistogramModel:
    """Histogram from segmentation nodes [0, t1, ..., n]; merges equal-height
    neighbors (pure representation cleanup, counts re-aggregated)."""
    x = sample.values
    n = sample.n
    counts = [cuts[1]] + [b - a for a, b in zip(cuts[1:], cuts[2:])]
    edges = [x[0]] + [x[t - 1] for t in cuts[1:]]
    heights = [
        c / (n * (r - l)) for c, l, r in zip(counts, edges[:-1], edges[1:])
    ]
    # merge neighbors whose heights coincide
    m_counts, m_edges = [counts[0]], [edges[0], edges[1]]
    for c, e, h_prev, h in zip(counts[1:], edges[2:], heights[:-1], heights[1:]):
        if abs(h - h_prev) <= MERGE_RTOL * max(h, h_prev):
            m_counts[-1] += c
            m_edges[-1] = e
        else:
            m_counts.append(c)
            m_edges.append(e)
    m_heights = [
        c / (n * (r - l)) for c, l, r in zip(m_counts, m_edges[:-1], m_edges[1:])
    ]
    return HistogramModel(
        breaks=np.asarray(m_edges),
        heights=np.asarray(m_heights),
        n=n,
        counts=np.asarray(m_counts, dtype=np.int64),
        cut_indices=tuple(cuts),
    )


def essential_histogram(
    sample: SortedSample, alpha: float, table: QuantileTable | None
) -> HistogramModel:
    """The fewest-bins histogram whose every constant stretch passes the
    local constraints at level alpha; ties resolved by maximal likelihood.

    Falls back to a single bin when the interval system is empty (sample too
    small for multiscale calibration); ``table`` is not read then.
    """
    n = sample.n
    j, _, _ = interval_arrays(n)
    if j.size == 0:
        return _model_from_cuts(sample, [0, n])
    kappa = lookup_kappa(table, alpha, n)
    _, _, pred = _bellman_pruned(sample, constraint_table(sample, kappa))
    return _model_from_cuts(sample, _backtrack(pred, n))
