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
sweeps the nodes left to right in steps, with array operations on (column
x candidate) grids and no loop over single nodes or table rows.  A step
starting at a column not reached yet (an open column) covers CHUNK columns;
a run of columns that earlier rounds reached only narrows the bands, so one
step covers it whole.  Its invariants:

- the band of block (t, i] is the tightest over the system intervals [a, b]
  with a >= t and b <= i, so it only narrows as i grows or as t falls;
- so a candidate with an empty band stays dead for the rest of the round,
  and the dead candidates are a prefix of the sorted active nodes: the live
  ones are a suffix;
- a round stops when no live candidate is left, or no open column right of
  the sweep.  Candidates right of the sweep are live: K is not monotone in
  the node index, so they may reach further than those already dead.

A step's table rows (a, b] bind the live nodes t <= a, so the bands they
add change along the nodes only at the held nodes, the last live node at or
left of some row's a.  The rows are combined on a (column x held node) grid,
a prefix over the columns and a suffix over the held nodes, and each live
node reads the first held node at or right of it.  The band carried from
earlier steps is already monotone along the nodes (it only narrows as t
falls), so one max/min with it after that read gives the exact band.  The
sweep reads ``bounds.constraint_table``'s own table, whose bands carry the
membership slack, so the membership and death tests are plain comparisons.

Every cell of the cost grid is costed, but the band is tested only at each
open column's winner, its cheapest cell, first on ties (``np.argmin``).
The feasible cells are a subset of all cells, so a feasible winner is the
cheapest feasible cell, and the first of them on ties: a feasible cell of
equal cost lies right of the winner, which is the first of all.  Only a
column whose winner fails reads its whole band row and takes the cheapest
feasible cell.  A pair with t >= i is no block: t = i cannot occur, since
the candidates are reached and the open columns are not, and a pair with
t > i has a negative width, which the band test rejects, so if it wins,
its column only falls back.  The death test and the carried band read the
band of the step's last column alone, because the band only narrows as i
grows: a candidate dead there is dead at every column to its right, and
one alive there is alive at every column of the step.

Node n needs only the bands of the blocks (t, n], so every round first
tests those from its start nodes and sweeps only if none fits; the sweep
reads the same bands, so this stop test is the one place n is reached.
Round 1 starts from node 0 alone, with the band of (0, n] from each count's
least and largest width (``bounds.whole_band``): a one-bin fit builds no
band table and fills no per-node array.  The table and the bands of every
(t, n], from ``bounds.block_band``, are built once, when round 1 misses n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import ConstraintTable, block_band, constraint_table, in_band, whole_band
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
        """Equal n, breaks, heights and counts; ``cut_indices`` play no part."""
        if not isinstance(other, HistogramModel):
            return NotImplemented
        a, b = self.counts, other.counts
        return (
            self.n == other.n
            and np.array_equal(self.breaks, other.breaks)
            and np.array_equal(self.heights, other.heights)
            and (a is None) == (b is None)
            and (a is None or np.array_equal(a, b))
        )

    @property
    def nbins(self) -> int:
        return self.heights.size

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks[1:-1], x, side="left")
        inside = (x >= self.breaks[0]) & (x <= self.breaks[-1])
        return np.where(inside, self.heights[idx], 0.0)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.heights * np.diff(self.breaks))))
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.nbins)
        h = np.append(self.heights, 0.0)[idx]
        left = self.breaks[idx]
        val = cum[idx] + h * (np.clip(x, left, self.breaks[-1]) - left)
        return np.minimum(val, 1.0)


# ---------------------------------------------------------------------------
# Bellman solver

#: columns (right-end nodes) one step of a round's sweep handles at once
CHUNK = 64


def _block_cost(edge, V, n, t, i):
    """Cost V[t] - count*log(mu) of blocks (t, i], with mu the density
    count/(n*width), broadcast over t and i.

    No band is tested (see :func:`_admits`): a block of no width costs
    -inf, and a pair with t >= i gives no cost (NaN or a number)."""
    w = edge[i] - edge[t]
    # float counts are exact (indices stay far below 2**53) and spare the
    # grid two int-to-float casts; the passes below reuse their operands'
    # memory, as each is a full pass over a round's (column x candidate) grid
    counts = np.asarray(i, dtype=float) - np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.divide(counts, np.multiply(w, n, out=w), out=w)
        cost = np.log(mu, out=mu)
    cost *= counts
    return np.subtract(V[t], cost, out=cost)


def _admits(edge, n, t, i, lo, hi):
    """Whether each block (t, i] has a positive width and its density, as
    :func:`_block_cost` computes it, lies in the band [lo, hi] (see
    ``bounds.in_band``).  Broadcast over all arguments."""
    w = edge[i] - edge[t]
    counts = np.asarray(i, dtype=float) - np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = counts / (w * n)
    return (w > 0.0) & in_band(mu, lo, hi)


def _sweep(table: ConstraintTable, edge, K, V, pred, active, k: int):
    """One round: every node not reached yet that a feasible block from an
    active node reaches gets K = k, its cost and its predecessor.  Returns
    those nodes, ascending.

    Each open column takes its cheapest block over the live candidates with
    no band, and only that winner is tested against the band; a column
    whose winner fails takes the cheapest over its feasible blocks.  Exact,
    ties included: see the module docstring."""
    n = edge.size - 1
    big = n + 2
    # index in ``active`` of the last active node at or left of each node
    last = np.cumsum(np.bincount(active, minlength=n + 1)) - 1
    # the open columns, not reached yet: a round reaches only swept ones
    unreached = np.flatnonzero(K == big)
    dead = 0  # active[:dead] are dead, active[dead:] live
    lo_t = np.full(active.size, -np.inf)  # band of (t, i0 - 1]
    hi_t = np.full(active.size, np.inf)
    reached = []
    i0 = 1
    while dead < active.size:
        live = active[dead:]
        i0 = max(i0, int(live[0]) + 1)  # no block ends at or before live[0]
        p = int(np.searchsorted(unreached, i0))
        if p == unreached.size:
            break  # no open column left to reach
        # reached columns up to the next open one only narrow the bands: one
        # step, with no open column, carries them all
        i1 = int(unreached[p]) if unreached[p] > i0 else min(i0 + CHUNK, n + 1)
        todo = unreached[p : np.searchsorted(unreached, i1)]
        # blocks from nodes at or right of i1 - 1 end past this step and
        # hold no table row yet: their band stays (-inf, inf)
        m = int(np.searchsorted(live, i1 - 1))
        lv = live[:m]
        lo_c, hi_c = lo_t[dead : dead + m], hi_t[dead : dead + m]
        rows = slice(table.start[i0], table.start[i1])
        g = last[table.a[rows]] - dead
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
        # one grid row per open column, for the rows (a, b] that end after
        # the previous open column and by this one, and a last row, up to
        # the step's last column i1 - 1, which feeds the death test
        bucket = np.searchsorted(todo, np.arange(i0, i1)) * slots
        cell = bucket[table.b[rows][keep] - i0] + first[g]
        L = np.full((todo.size + 1, slots), -np.inf)
        H = np.full((todo.size + 1, slots), np.inf)
        np.fmax.at(L.reshape(-1), cell, table.lo[rows][keep])
        np.fmin.at(H.reshape(-1), cell, table.hi[rows][keep])
        # prefix over columns, then suffix over held nodes: the band of
        # (t, i] is the tightest over rows with a >= t and b <= i
        np.fmax.accumulate(L, axis=0, out=L)
        np.fmin.accumulate(H, axis=0, out=H)
        np.fmax.accumulate(L[:, ::-1], axis=1, out=L[:, ::-1])
        np.fmin.accumulate(H[:, ::-1], axis=1, out=H[:, ::-1])
        if todo.size:
            cost = _block_cost(edge, V, n, lv, todo[:, None])
            pos = np.argmin(cost, axis=1)  # first index on ties
            col = np.arange(todo.size)
            best = cost[col, pos]
            # the band at each column's winner; exact, because the carried
            # band is already monotone along the nodes
            f = first[pos]
            lo = np.fmax(L[col, f], lo_c[pos])
            hi = np.fmin(H[col, f], hi_c[pos])
            fb = np.flatnonzero(~_admits(edge, n, lv[pos], todo, lo, hi))
            if fb.size:  # the cheapest feasible cell over each whole row
                lo = np.fmax(np.take(L[fb], first, axis=1), lo_c)
                hi = np.fmin(np.take(H[fb], first, axis=1), hi_c)
                ok = _admits(edge, n, lv, todo[fb, None], lo, hi)
                c = np.where(ok, cost[fb], np.inf)
                pos[fb] = np.argmin(c, axis=1)
                best[fb] = c[np.arange(fb.size), pos[fb]]
            hit = best < np.inf
            got = todo[hit]
            K[got] = k
            V[got] = best[hit]
            pred[got] = lv[pos[hit]]
            reached.append(got)
        np.fmax(L[-1, first], lo_c, out=lo_c)
        np.fmin(H[-1, first], hi_c, out=hi_c)
        # an empty band stays empty as i grows (L never falls, H never
        # rises) and empties every longer block too: the dead are a prefix
        dead += int(np.count_nonzero(lo_c > hi_c))
        i0 = i1
    return np.concatenate(reached) if reached else np.empty(0, dtype=np.int64)


def _bellman_pruned(sample: SortedSample, kappa: float):
    """K (fewest blocks), V (cost) and pred (predecessor) of every node, by
    rounds at threshold ``kappa``; identical at node n to the plain
    recursion over all predecessors (kept in tests/reference.py).  Each
    round first tests its blocks (t, n] and sweeps only if none fits.  A
    one-bin fit sets only nodes 0 and n and leaves the rest of the arrays
    uninitialised; otherwise the nodes that only the last round would
    reach are left unset."""
    x = sample.values
    n = sample.n
    big = n + 2
    # touched only when one bin fails: a one-bin fit fills no per-node array
    K = np.empty(n + 1, dtype=np.int64)
    V = np.empty(n + 1)
    pred = np.empty(n + 1, dtype=np.int64)
    K[0] = 0
    V[0] = 0.0
    # block (t, i] spans [edge[t], edge[i]] and holds i - t points; t = 0
    # is the virtual left edge at X_(1)
    edge = np.concatenate((x[:1], x))
    active = np.zeros(1, dtype=np.int64)
    lo, hi = whole_band(sample, kappa)  # of (0, n], with no band table
    k = 1
    while True:
        ok = _admits(edge, n, active, n, lo, hi)
        cost = np.where(ok, _block_cost(edge, V, n, active, n), np.inf)
        pos = int(np.argmin(cost))
        if cost[pos] < np.inf:
            K[n], V[n], pred[n] = k, cost[pos], active[pos]
            return K, V, pred
        if k == 1:
            K[1:], V[1:], pred[:] = big, np.inf, -1
            table = constraint_table(sample, kappa)
            lo_n, hi_n = block_band(table, np.arange(n + 1), n)  # (t, n]
        active = _sweep(table, edge, K, V, pred, active, k)
        if not active.size:
            raise RuntimeError("dynamic program stalled; constraint table inconsistent")
        lo, hi = lo_n[active], hi_n[active]
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
    _, _, pred = _bellman_pruned(sample, kappa)
    return _model_from_cuts(sample, _backtrack(pred, n))
