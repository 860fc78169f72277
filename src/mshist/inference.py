"""Finite-sample confidence statements about the shape of the density.

For each interval of the multiscale system the empirical average density is
within half a computable radius of the true average density, simultaneously
over the whole system, with probability at least 1 - alpha.  The radius in
mass depends on the interval's count alone, so it is evaluated once per
count as a mass band and laid out over the system by ``bounds.band_table``,
the builder of the fit's bands.  Comparing two disjoint intervals whose
average densities differ by more than the sum of half-radii therefore
certifies a point of increase (or decrease) of the density between them.
Only the inclusion-minimal such hulls are reported, and one forward scan
over right ends per direction finds exactly those.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstraintTable, band_table
from .intervals import IntervalSpec, interval_arrays
from .multiscale import QuantileTable, count_lattice, lookup_kappa
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

    With c = penalty(p) + kappa, where p and penalty(p) are a count's mass
    and penalty from :func:`multiscale.count_lattice`, the half radius in
    mass is h = c * (sqrt(p*(1-p)/n) + c/(2n)); :func:`bounds.band_table`
    divides the mass band [p - h, p + h] of every count by each width.
    """
    n = sample.n
    p, pen = count_lattice(n)
    c = pen + kappa
    h = c * (np.sqrt(p * (1.0 - p) / n) + c / (2.0 * n))
    return band_table(sample, p - h, p + h)


def _minimal_hulls(j, k, start, vals, thr) -> list[tuple[int, int]]:
    """The inclusion-minimal hulls of one direction as (left witness, right
    interval) row pairs, in ascending right end.

    Row a certifies row b when k[a] <= j[b] and vals[a] < thr[b], with the
    hull [j[a], k[b]].  Rows are sorted by right end and, within one, by
    strictly ascending left end; rows ``start[s] .. start[s+1]`` end at s,
    for every s up to max(k) + 1.

    Let G(r) be the largest left end over the certifying pairs whose right
    interval ends at or before r.  The minimal hulls are the [G(r), r] at the
    right ends where G jumps, so one forward scan over right ends finds them.
    With g the current G, b raises it iff a row with j > g and k <= j[b] lies
    below thr[b]; those rows are a suffix of each right end's run, so the
    least of them is the run's suffix minimum at the first row past g, and
    a prefix minimum over right ends answers each b.  The scan extends that
    prefix minimum in windows that double until a b passes; at the jump it
    re-reads the new hull's interior under the new g.  At a jump, the last
    row below thr[b] at each right end of the interior is a search in the
    run's ascending suffix minima, so the largest left end is exact.  Of the
    right intervals reaching G(r) the lowest threshold, then position, is
    kept; its witness is the certifying row at left end G(r) that a prefix-max
    binary indexed tree filled in vals order would keep (the first tree node
    its query visits, then the first inserted), as the tree search in
    ``tests/reference.py`` does.
    """
    width = start.size  # above every end, so k * width + j orders the rows
    # per right end s, for the rows with j > g: the least vals ending at s,
    # and its prefix minimum over right ends; g starts below every left end
    held = start[:-1] < start[1:]
    at_end = np.full(width - 1, np.inf)
    at_end[held] = np.minimum.reduceat(vals, start[:-1][held])
    upto = np.minimum.accumulate(at_end)
    cand = np.flatnonzero(upto[j] < thr)  # the right intervals with a partner
    if not cand.size:
        return []
    jc, kc, tc = j[cand], k[cand], thr[cand]
    # per row, (right end, least vals from the row to its run's end) as one
    # complex number: complex order is lexicographic, so the array ascends
    m = j.size
    suffix = np.empty(m + 1, dtype=complex)
    suffix.real[:m], suffix.imag[:m] = k, vals
    suffix.real[m], suffix.imag[m] = width, np.inf
    suffix = np.minimum.accumulate(suffix[::-1])[::-1]
    least = suffix.imag
    order = k * width + j
    ends = np.arange(width)
    out = []
    g = -1
    done = last = int(kc[-1])  # upto holds for the right ends <= done
    i = 0  # the candidates before i are settled
    grow = 64  # right ends read past the next candidate, doubled on a miss
    while i < cand.size:
        stop = min(max(done, int(kc[i]) - 1) + grow, last)
        first = order.searchsorted(ends[done + 1 : stop + 1] * width + g + 1)
        fresh = least[first]
        fresh[first >= start[done + 2 : stop + 2]] = np.inf  # no row past g
        at_end[done + 1 : stop + 1] = upto[done + 1 : stop + 1] = fresh
        np.minimum.accumulate(upto[done : stop + 1], out=upto[done : stop + 1])
        done = stop
        reach = int(kc.searchsorted(stop, side="right"))
        hit = np.flatnonzero(upto[jc[i:reach]] < tc[i:reach])
        if not hit.size:
            i = reach
            grow *= 2
            continue
        hit += i
        r = int(kc[hit[0]])
        i = int(kc.searchsorted(r, side="right"))
        hit = hit[hit < i]  # the candidates that end at r and raise G
        jb, tb = jc[hit], tc[hit]
        # per such b and right end s in (g + 1, j[b]] with a row past g below
        # thr[b]: the last row below thr[b] there, whose left end is above g
        lo, hi = g + 2, int(jb[-1]) + 1
        q, s = ((at_end[lo:hi] < tb[:, None]) & (ends[lo:hi] <= jb[:, None])).nonzero()
        s += lo
        probe = np.empty(s.size, dtype=complex)
        probe.real, probe.imag = s, tb[q]
        row = suffix.searchsorted(probe) - 1
        left = j[row]
        g_new = int(left.max())
        top = left == g_new
        qt = q[top]
        keep = qt[tb[qt].argmin()]  # lowest threshold, then position
        b = int(cand[hit[keep]])
        t_b = int(start[j[b] + 1])  # the rows that end by j[b]
        a = min(
            row[top][qt == keep].tolist(),
            key=lambda a: ((a ^ t_b).bit_length(), vals[a], a),
        )
        out.append((a, b))
        upto[g + 1 : g_new + 2] = np.inf
        g = g_new
        done = g + 1
        grow = 64
    return out


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

    The search reads the radius band table of :func:`_radii`.  A right
    interval b's tightest hull starts at the largest left end j[a] over the
    left intervals a with k[a] <= j[b] and a bound beyond b's threshold.  The
    sample has no ties, so only the hulls minimal on their index ends are
    kept, and :func:`_minimal_hulls` finds exactly those, per direction, in
    one forward scan over right ends: it settles a right interval only where
    the largest certified left end jumps.  Of equal hulls the one of lowest
    threshold, then lowest position, is kept, with the witness and margin
    that the tree search in ``tests/reference.py`` reports.
    """
    n = sample.n
    kappa = lookup_kappa(table, alpha, n)
    if kappa is None:
        return []
    band = _radii(sample, kappa)
    j, k = band.a, band.b
    _, _, scale = interval_arrays(n)
    x = sample.values

    out: list[FeatureInterval] = []
    for direction, vals, thr in (
        ("increase", band.hi, band.lo),
        ("decrease", -band.lo, -band.hi),
    ):
        for a, b in _minimal_hulls(j, k, band.start, vals, thr):
            out.append(
                FeatureInterval(
                    hull=(float(x[j[a] - 1]), float(x[k[b] - 1])),
                    direction=direction,
                    margin=float(thr[b] - vals[a]),
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
