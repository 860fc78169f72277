"""Audit an arbitrary histogram estimator against the multiscale constraint.

Two complementary diagnostics: system intervals inside a constant stretch of
the estimator where the estimator's value fails the local likelihood-ratio
test (features the estimator missed), and change-points whose neighborhoods
could be merged into one feasible block (structure the data do not support).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import block_band, constraint_table, in_band
from .dp import HistogramModel
from .intervals import IntervalSpec, interval_arrays, levels
from .multiscale import QuantileTable, lookup_kappa
from .sample import SortedSample

#: longest run of adjacent segments considered when counting merges
MERGE_WINDOW = 5


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing one estimator on one sample at one level."""

    violations: list[IntervalSpec]
    removable: list[tuple[int, int]]  # (change-point index, merge multiplicity)
    alpha: float
    kappa: float | None  # None when the system is empty and no table is read

    @property
    def clean(self) -> bool:
        return not self.violations and not self.removable


def _piece_values(estimator: HistogramModel, lo: np.ndarray, hi: np.ndarray):
    """Constant estimator value on each value interval (lo, hi], or nan when
    the interval straddles a breakpoint.

    Regions outside the estimator's support count as zero-height pieces, so
    an interval beyond the last break is constant at 0.
    """
    breaks = estimator.breaks
    # piece id: -1 left of support, nbins right of support
    id_lo = np.searchsorted(breaks, lo, side="right") - 1
    id_hi = np.searchsorted(breaks, hi, side="left") - 1
    same = id_lo == id_hi
    ext = np.concatenate(([0.0], estimator.heights, [0.0]))
    vals = ext[np.clip(id_lo, -1, estimator.nbins) + 1]
    return np.where(same, vals, np.nan)


def _violations(
    sample: SortedSample, estimator: HistogramModel, ctab
) -> list[IntervalSpec]:
    x = sample.values
    c = _piece_values(estimator, x[ctab.a - 1], x[ctab.b - 1])
    viol = ~np.isnan(c) & ~in_band(c, ctab.lo, ctab.hi)
    _, _, scale = interval_arrays(sample.n)
    cols = (ctab.a[viol].tolist(), ctab.b[viol].tolist(), scale[viol].tolist())
    return [IntervalSpec(a, b, s) for a, b, s in zip(*cols)]


def _removable(
    sample: SortedSample, estimator: HistogramModel, ctab
) -> list[tuple[int, int]]:
    nb = estimator.nbins
    n = sample.n
    # every run of segments first..last, 2..MERGE_WINDOW long
    first = np.repeat(np.arange(nb), MERGE_WINDOW - 1)
    last = first + np.tile(np.arange(1, MERGE_WINDOW), nb)
    keep = last < nb
    first, last = first[keep], last[keep]
    x = sample.values
    lo_v, hi_v = estimator.breaks[first], estimator.breaks[last + 1]
    left = np.searchsorted(x, lo_v, side="left")
    b_max = np.searchsorted(x, hi_v, side="right")
    count = b_max - np.where(first == 0, left, np.searchsorted(x, lo_v, side="right"))
    mu = count / (n * (hi_v - lo_v))
    # the system intervals inside the block are the rows (a, b] with
    # x[a-1] >= lo_v and x[b-1] <= hi_v
    ok = in_band(mu, *block_band(ctab, left + 1, b_max))
    # merges covering change-point cp: first < cp <= last
    cover = np.cumsum(
        np.bincount(first[ok] + 1, minlength=nb + 1)
        - np.bincount(last[ok] + 1, minlength=nb + 1)
    )
    cps = last[ok & (last == first + 1)]
    return list(zip(cps.tolist(), cover[cps].tolist()))


def violation_intervals(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> list[IntervalSpec]:
    """System intervals inside one constant piece of the estimator whose
    value lies outside the interval's feasible band at level alpha.

    The bands and their slack are the ones the fit obeys, so a zero-height
    piece over sample points, for instance, is always flagged.
    """
    n = sample.n
    if not levels(n):
        return []
    ctab = constraint_table(sample, lookup_kappa(table, alpha, n))
    return _violations(sample, estimator, ctab)


def removable_changepoints(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> list[tuple[int, int]]:
    """Change-points of the estimator that the data do not require.

    A change-point is removable when pooling its two adjacent segments into
    one constant block passes all contained constraints; its multiplicity
    counts every admissible contiguous merge of 2..MERGE_WINDOW segments
    covering it.  As in the fit, a pooled block's density counts the sample
    (a model's ``counts`` play no part).  Returned as (breakpoint index into
    estimator.breaks, multiplicity).
    """
    if estimator.nbins < 2:
        return []
    n = sample.n
    if not levels(n):
        return []
    ctab = constraint_table(sample, lookup_kappa(table, alpha, n))
    return _removable(sample, estimator, ctab)


def audit(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> AuditReport:
    """Full audit: violation intervals plus removable change-points, from
    one band table.  A sample too small for the interval system gets the
    empty report with ``kappa`` None; ``table`` is not read then."""
    if not levels(sample.n):
        return AuditReport(violations=[], removable=[], alpha=alpha, kappa=None)
    kappa = lookup_kappa(table, alpha, sample.n)
    ctab = constraint_table(sample, kappa)
    return AuditReport(
        violations=_violations(sample, estimator, ctab),
        removable=_removable(sample, estimator, ctab),
        alpha=alpha,
        kappa=kappa,
    )
