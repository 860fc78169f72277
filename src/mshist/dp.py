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

The solver works in rounds, as SMUCE does (Frick, Munk & Sieling, JRSSB
2014): round k starts only from the nodes that round k - 1 reached first
and reaches every node that k blocks reach but k - 1 do not.  A round
sweeps the nodes left to right in chunks of CHUNK columns, with array
operations on (column x candidate) grids and no loop over single nodes or
table rows.  Its invariants:

- the band of block (t, i] is the tightest over the system intervals [a, b]
  with a >= t and b <= i, so it only narrows as i grows or as t falls;
- so a candidate with an empty band stays dead for the rest of the round,
  and the dead candidates are a prefix of the sorted active nodes: the live
  ones are a suffix;
- a round stops only when no live candidate is left, or at n.  Candidates
  right of the sweep are live: K is not monotone in the node index, so they
  may reach further than those already dead.

A chunk's table rows (a, b] bind the live nodes t <= a, so the bands they
add change along the nodes only at the held nodes, the last live node at or
left of some row's a.  The rows are combined on a (column x held node) grid,
a prefix over the columns and a suffix over the held nodes, and each live
node reads the first held node at or right of it.  The band carried from
earlier chunks is already monotone along the nodes (it only narrows as t
falls), so one max/min with it after that read gives the exact band.  The
bands are carried widened by the membership slack (``bounds.widen``), which
commutes with max and min, so the membership and death tests are plain
comparisons.

Node n needs only the bands of the blocks (t, n], so each round first tries
to reach n and sweeps only if it cannot.  The first round starts from node 0
alone, and the band of (0, n] is one max and one min over the whole table;
the bands of every (t, n] are taken once by ``bounds.block_band``, and only
when that round misses n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstraintTable, block_band, constraint_table, widen
from .multiscale import QuantileTable, lookup_kappa
from .sample import SortedSample

#: relative tolerance for merging equal-height neighbor bins
MERGE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class HistogramModel:
    """Histogram density: ascending breakpoints and per-bin heights.

    The first bin is closed on the left, all bins are right-closed.  Heights
    integrate to one.  The model holds read-only copies of the arrays it is
    given, so neither it nor its caller can change the other's.  Fits from
    ``essential_histogram`` have no equal-height neighbors: the model builder
    merges them before construction.
    """

    breaks: np.ndarray
    heights: np.ndarray
    n: int
    counts: np.ndarray | None = None
    cut_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        breaks = np.array(self.breaks, dtype=float)
        heights = np.array(self.heights, dtype=float)
        # NaN fails every comparison below, so it must be caught first
        if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(heights))):
            raise ValueError("breaks and heights must be finite")
        if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must be strictly increasing, length >= 2")
        if heights.size != breaks.size - 1 or np.any(heights < 0):
            raise ValueError("need one nonnegative height per bin")
        total = float(np.sum(heights * np.diff(breaks)))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total!r}")
        counts = self.counts
        if counts is not None:
            counts = np.array(counts, dtype=np.int64)
            if counts.size != heights.size:
                raise ValueError("counts must match bins")
            counts.flags.writeable = False
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

#: columns (right-end nodes) one step of a round's sweep handles at once
CHUNK = 64


def _block_cost(edge, V, n, t, i, lo, hi):
    """Cost V[t] - count*log(mu) of blocks (t, i] (broadcast over t and i);
    +inf where the block has no width or its density mu leaves the widened
    band [lo, hi] (see ``bounds.widen``)."""
    w = edge[i] - edge[t]
    ok = w > 0.0
    # float counts are exact (indices stay far below 2**53) and spare the
    # grid two int-to-float casts; the passes below reuse their operands'
    # memory, as each is a full pass over a round's (column x candidate) grid
    counts = np.asarray(i, dtype=float) - np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.divide(counts, np.multiply(w, n, out=w), out=w)
        ok &= mu >= lo
        ok &= mu <= hi
        cost = np.log(mu, out=mu)
        cost *= counts
        np.subtract(V[t], cost, out=cost)
    cost[~ok] = np.inf
    return cost


def _sweep(table: ConstraintTable, edge, K, V, pred, active, k: int):
    """One round: every node not reached yet that a feasible block from an
    active node reaches gets K = k, its cost and its predecessor.  Returns
    those nodes, ascending."""
    n = edge.size - 1
    big = n + 2
    live = active
    lo_t = np.full(live.size, -np.inf)  # widened band of (t, i0 - 1], t in live
    hi_t = np.full(live.size, np.inf)
    reached = []
    i0 = 1
    while live.size:
        i0 = max(i0, int(live[0]) + 1)  # no block ends at or before live[0]
        if i0 > n:
            break
        i1 = min(i0 + CHUNK, n + 1)
        todo = i0 + np.flatnonzero(K[i0:i1] == big)  # columns not reached yet
        # one bucket per such column, and the chunk's last column for the
        # death test
        cols = np.append(todo, i1 - 1)
        # blocks from nodes at or right of i1 - 1 end past this chunk and
        # hold no table row yet: their band stays (-inf, inf)
        m = int(np.searchsorted(live, i1 - 1))
        lv = live[:m]
        rows = slice(table.start[i0], table.start[i1])
        g = np.searchsorted(lv, table.a[rows], "right") - 1
        keep = g >= 0  # rows left of every live node bound none of them
        g = g[keep]
        # a row (a, b] binds the live nodes t <= a and is held by the last
        # of them; a node reads the first held node at or right of it, and
        # the slot past the last held node holds no row
        held = np.zeros(m, dtype=bool)
        held[g] = True
        rank = np.cumsum(held)
        first = rank - held
        slots = int(rank[-1]) + 1
        cell = np.searchsorted(cols, table.b[rows][keep]) * slots + first[g]
        lo, hi = widen(table.lo[rows][keep], table.hi[rows][keep])
        L = np.full((cols.size, slots), -np.inf)
        H = np.full((cols.size, slots), np.inf)
        np.fmax.at(L.reshape(-1), cell, lo)
        np.fmin.at(H.reshape(-1), cell, hi)
        # prefix over columns, then suffix over held nodes: the band of
        # (t, i] is the tightest over rows with a >= t and b <= i
        np.fmax.accumulate(L, axis=0, out=L)
        np.fmin.accumulate(H, axis=0, out=H)
        L = np.fmax.accumulate(L[:, ::-1], axis=1)[:, ::-1]
        H = np.fmin.accumulate(H[:, ::-1], axis=1)[:, ::-1]
        # exact: the carried band is already monotone along the nodes
        L, H = L[:, first], H[:, first]
        np.fmax(L, lo_t[:m], out=L)
        np.fmin(H, hi_t[:m], out=H)
        if todo.size:
            cost = _block_cost(
                edge, V, n, lv, todo[:, None], L[: todo.size], H[: todo.size]
            )
            pos = np.argmin(cost, axis=1)  # first index on ties
            best = cost[np.arange(todo.size), pos]
            hit = best < np.inf
            got = todo[hit]
            K[got] = k
            V[got] = best[hit]
            pred[got] = lv[pos[hit]]
            reached.append(got)
        lo_t[:m] = L[-1]
        hi_t[:m] = H[-1]
        # an empty band stays empty as i grows (L never falls, H never
        # rises) and empties every longer block too: the dead are a prefix
        alive = lo_t <= hi_t
        live, lo_t, hi_t = live[alive], lo_t[alive], hi_t[alive]
        i0 = i1
    return np.concatenate(reached) if reached else np.empty(0, dtype=np.int64)


def _bellman_pruned(sample: SortedSample, table: ConstraintTable):
    """K (fewest blocks), V (cost) and pred (predecessor) of every node, by
    rounds; identical at node n to the plain recursion over all predecessors
    (kept in tests/reference.py).  Nodes that only the last round would
    reach are left unset: the last round reaches n without a sweep."""
    x = sample.values
    n = sample.n
    big = n + 2
    K = np.full(n + 1, big, dtype=np.int64)
    V = np.full(n + 1, np.inf)
    pred = np.full(n + 1, -1, dtype=np.int64)
    K[0] = 0
    V[0] = 0.0
    # block (t, i] spans [edge[t], edge[i]] and holds i - t points; t = 0
    # is the virtual left edge at X_(1)
    edge = np.concatenate((x[:1], x))
    active = np.zeros(1, dtype=np.int64)
    # the band of block (0, n], the tightest over the whole table
    band = widen(np.max(table.lo, initial=-np.inf), np.min(table.hi, initial=np.inf))
    k = 1
    while True:
        cost = _block_cost(edge, V, n, active, n, *band)
        pos = int(np.argmin(cost))
        if cost[pos] < np.inf:
            K[n], V[n], pred[n] = k, cost[pos], active[pos]
            return K, V, pred
        active = _sweep(table, edge, K, V, pred, active, k)
        if not active.size:
            raise RuntimeError("dynamic program stalled; constraint table inconsistent")
        if k == 1:
            lo_n, hi_n = widen(*block_band(table, np.arange(n + 1), n))  # (t, n]
        band = lo_n[active], hi_n[active]
        k += 1


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
    cuts = np.asarray(cuts)
    counts = np.diff(cuts)
    edges = np.concatenate((x[:1], x[cuts[1:] - 1]))
    heights = counts / (n * np.diff(edges))
    # merge runs of neighbors whose heights coincide
    h_prev, h = heights[:-1], heights[1:]
    same = np.abs(h - h_prev) <= MERGE_RTOL * np.maximum(h, h_prev)
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    m_counts = np.add.reduceat(counts, starts)
    m_edges = np.append(edges[starts], edges[-1])
    m_heights = m_counts / (n * np.diff(m_edges))
    return HistogramModel(
        breaks=m_edges,
        heights=m_heights,
        n=n,
        counts=m_counts,
        cut_indices=tuple(int(t) for t in cuts),
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
    kappa = lookup_kappa(table, alpha, n)
    if kappa is None:
        return _model_from_cuts(sample, [0, n])
    _, _, pred = _bellman_pruned(sample, constraint_table(sample, kappa))
    return _model_from_cuts(sample, _backtrack(pred, n))
