"""Audit an arbitrary histogram estimator against the multiscale constraint.

Two complementary diagnostics: system intervals inside a constant stretch of
the estimator where the estimator's value fails the local likelihood-ratio
test (features the estimator missed), and change-points whose neighborhoods
could be merged into one feasible block (structure the data do not support).

Every band the audit tests is indexed by order statistics, so the breaks are
placed among the sample once per audit and both diagnostics read that map:
``below[e]`` and ``upto[e]`` count the sample points below break e and up to
it, and ``piece[i]`` is the piece just right of X_(i+1), 0 left of the support
and nbins + 1 right of it.  A system row (a, b] lies in the piece p of X_(a)
when ``b <= upto[p]``, or always past the support; a merge window of segments
first..last is the sample range (below[first], upto[last + 1]].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import block_band, constraint_table, in_band
from .dp import HistogramModel
from .intervals import IntervalList, interval_arrays
from .multiscale import QuantileTable, lookup_kappa
from .sample import SortedSample

#: longest run of adjacent segments considered when counting merges
MERGE_WINDOW = 5


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing one estimator on one sample at one level; the
    flagged intervals are the read-only index columns of an
    :class:`IntervalList` and ``removable`` a tuple, so neither can change."""

    violations: IntervalList
    removable: tuple[tuple[int, int], ...]  # (change-point index, merge multiplicity)
    alpha: float
    kappa: float | None  # None when the system is empty and no table is read

    @property
    def clean(self) -> bool:
        return not self.violations and not self.removable


def _prologue(sample: SortedSample, estimator: HistogramModel, alpha, table):
    """``(kappa, band table, (below, upto, piece))`` for both halves, or None
    when the interval system is empty; ``table`` is not read then."""
    kappa = lookup_kappa(table, alpha, sample.n)
    if kappa is None:
        return None
    x, e = sample.values, estimator.breaks
    below, upto = (np.searchsorted(x, e, side=s) for s in ("left", "right"))
    piece = np.searchsorted(e, x, side="right")
    return kappa, constraint_table(sample, kappa), (below, upto, piece)


def _violations(sample, estimator, ctab, where) -> IntervalList:
    _, upto, piece = where
    p = piece[ctab.a - 1]
    inside = ctab.b <= np.append(upto, sample.n)[p]
    height = np.concatenate(([0.0], estimator.heights, [0.0]))[p]
    viol = inside & ~in_band(height, ctab.lo, ctab.hi)
    _, _, scale = interval_arrays(sample.n)
    return IntervalList(ctab.a[viol], ctab.b[viol], scale[viol])


def _removable(sample, estimator, ctab, where) -> tuple[tuple[int, int], ...]:
    below, upto, _ = where
    nb = estimator.nbins
    # every run of segments first..last, 2..MERGE_WINDOW long
    first = np.repeat(np.arange(nb), MERGE_WINDOW - 1)
    last = first + np.tile(np.arange(1, MERGE_WINDOW), nb)
    keep = last < nb
    first, last = first[keep], last[keep]
    lo_v, hi_v = estimator.breaks[first], estimator.breaks[last + 1]
    # the first segment is closed on the left
    count = upto[last + 1] - np.where(first == 0, below[0], upto[first])
    mu = count / (sample.n * (hi_v - lo_v))
    ok = in_band(mu, *block_band(ctab, below[first] + 1, upto[last + 1]))
    # merges covering change-point cp: first < cp <= last
    cover = np.cumsum(
        np.bincount(first[ok] + 1, minlength=nb + 1)
        - np.bincount(last[ok] + 1, minlength=nb + 1)
    )
    cps = last[ok & (last == first + 1)]
    return tuple(zip(cps.tolist(), cover[cps].tolist()))


def violation_intervals(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> IntervalList:
    """System intervals inside one constant piece of the estimator whose
    value lies outside the interval's feasible band at level alpha, in
    system order, as the index columns of an :class:`IntervalList`.

    The bands and their slack are the ones the fit obeys, so a zero-height
    piece over sample points, for instance, is always flagged.
    """
    setup = _prologue(sample, estimator, alpha, table)
    return IntervalList() if setup is None else _violations(sample, estimator, *setup[1:])


def removable_changepoints(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> tuple[tuple[int, int], ...]:
    """Change-points of the estimator that the data do not require.

    A change-point is removable when pooling its two adjacent segments into
    one constant block passes all contained constraints; its multiplicity
    counts every admissible contiguous merge of 2..MERGE_WINDOW segments
    covering it.  As in the fit, a pooled block's density counts the sample
    (a model's ``counts`` play no part).  Returned as a tuple of (breakpoint
    index into estimator.breaks, multiplicity) pairs.
    """
    setup = _prologue(sample, estimator, alpha, table)
    return () if setup is None else _removable(sample, estimator, *setup[1:])


def audit(
    sample: SortedSample,
    estimator: HistogramModel,
    alpha: float,
    table: QuantileTable,
) -> AuditReport:
    """Full audit: violation intervals plus removable change-points, from
    one band table and one placement of the breaks.  A sample too small for
    the interval system gets the empty report with ``kappa`` None; ``table``
    is not read then."""
    setup = _prologue(sample, estimator, alpha, table)
    if setup is None:
        return AuditReport(violations=IntervalList(), removable=(), alpha=alpha, kappa=None)
    kappa, *rest = setup
    return AuditReport(
        violations=_violations(sample, estimator, *rest),
        removable=_removable(sample, estimator, *rest),
        alpha=alpha,
        kappa=kappa,
    )
