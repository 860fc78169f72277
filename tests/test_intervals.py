import math

import numpy as np
import pytest

from mshist import intervals
from mshist.bounds import _count_roots, constraint_table
from mshist.intervals import (
    IntervalList,
    IntervalSpec,
    _extent,
    count_extremes,
    interval_arrays,
    level_counts,
    levels,
    max_scale,
    row_index,
)
from mshist.sample import SortedSample

from conftest import level_block
from reference import build_interval_system, count_extremes_reference, minimal_intervals


def reference_system(n):
    """Independent straightforward construction used as an oracle."""
    out = set()
    lmax = int(math.floor(math.log2(n / math.log(n))))
    for lev in range(2, lmax + 1):
        m = n * 2.0 ** (-lev)
        d = math.ceil(m / (6.0 * math.sqrt(lev)))
        for j in range(1, n + 1, d):
            for k in range(j + d, n + 1, d):
                if m < k - j <= 2 * m and (j - 1) % d == 0 and (k - 1) % d == 0:
                    out.add((j, k))
    return out


def test_small_sizes_have_no_intervals():
    for n in range(2, 9):
        assert build_interval_system(n) == []


def test_n16_count_is_38():
    assert len(build_interval_system(16)) == 38


@pytest.mark.parametrize("n", [9, 16, 50, 137, 500, 1024])
def test_matches_reference_construction(n):
    got = {(iv.j, iv.k) for iv in build_interval_system(n)}
    assert got == reference_system(n)


def test_pairs_unique_and_ordered():
    j, k, lev = interval_arrays(300)
    assert j.size == np.unique(np.stack([j, k]), axis=1).shape[1]
    assert np.all(j >= 1) and np.all(k <= 300) and np.all(j < k)
    order = np.lexsort((j, k))
    assert np.array_equal(order, np.arange(j.size))


@pytest.mark.parametrize("n", [16, 100, 500, 3000, 10000])
def test_size_linear_in_n(n):
    j, _, _ = interval_arrays(n)
    assert j.size <= 40 * n


def test_counts_match_level_ranges():
    n = 500
    j, k, lev = interval_arrays(n)
    m = n * 2.0 ** (-lev.astype(float))
    assert np.all(k - j > m) and np.all(k - j <= 2 * m)


def test_max_scale_values():
    assert max_scale(16) == math.floor(math.log2(16 / math.log(16)))
    assert max_scale(1000) == math.floor(math.log2(1000 / math.log(1000)))
    with pytest.raises(ValueError):
        max_scale(1)


def test_interval_spec_count():
    assert IntervalSpec(3, 10, 2).count == 7


class TestIntervalList:
    SPECS = [IntervalSpec(1, 5, 2), IntervalSpec(3, 9, 3), IntervalSpec(4, 6, 4)]

    def columns(self):
        return IntervalList([1, 3, 4], [5, 9, 6], [2, 3, 4])

    def test_equality_in_both_orders(self):
        got = self.columns()
        assert got == self.SPECS and self.SPECS == got
        assert got == tuple(self.SPECS) and not got != self.SPECS
        assert got == self.columns() and self.columns() == got
        assert IntervalList() == [] and [] == IntervalList()

    def test_inequality(self):
        got = self.columns()
        for other in (self.SPECS[:2], self.SPECS + self.SPECS[:1],
                      [self.SPECS[0], IntervalSpec(3, 9, 2), self.SPECS[2]]):
            assert got != other and other != got
            assert got != IntervalList(*zip(*((s.j, s.k, s.scale) for s in other)))
        assert got != IntervalList([1, 3, 4], [5, 9, 6], [2, 3, 5])
        assert got != [(1, 5, 2), (3, 9, 3), (4, 6, 4)]
        assert IntervalList() != "" and IntervalList() != b""

    def test_indexing(self):
        got = self.columns()
        assert len(got) == 3
        assert got[0] == self.SPECS[0] and got[-1] == self.SPECS[2]
        assert got[np.int64(1)] == self.SPECS[1]
        assert isinstance(got[1:], IntervalList) and got[1:] == self.SPECS[1:]
        assert got[::-1] == self.SPECS[::-1] and got[5:] == []
        assert list(got) == self.SPECS
        for i in (3, -4):
            with pytest.raises(IndexError):
                got[i]
        with pytest.raises(TypeError):
            got[1.0]

    def test_read_only(self):
        got = self.columns()
        source = np.array([1, 3, 4])
        kept = IntervalList(source, source + 4, source)
        source[0] = 7  # the caller's array stays writable
        for cols in (got, got[1:], kept):
            for col in (cols.j, cols.k, cols.scale):
                assert col.dtype == np.int64
                with pytest.raises(ValueError):
                    col[0] = 2
        assert not hasattr(got, "append")
        with pytest.raises(AttributeError):
            got.extra = 1

    def test_repr_shows_the_columns(self):
        assert repr(self.columns()) == (
            "IntervalList(j=array([1, 3, 4]), k=array([5, 9, 6]), scale=array([2, 3, 4]))"
        )


def test_arrays_read_only():
    """Read-only for every n, the empty system included."""
    for n in (8, 100):
        assert not any(a.flags.writeable for a in interval_arrays(n))
    with pytest.raises(ValueError):
        interval_arrays(100)[0][0] = 5


def per_width_levels(n):
    """Each level's scale, grid step and counts as the system was first
    built: the multiples of the step in (m, 2m], stepped one width at a time,
    that leave room for an interval."""
    out = []
    for lev in range(2, max_scale(n) + 1):
        m = n * 2.0 ** (-lev)
        d = int(math.ceil(m / (6.0 * math.sqrt(lev))))
        w = d * int(math.floor(m / d) + 1)
        widths = []
        while w <= 2.0 * m:
            if w < n:
                widths.append(w)
            w += d
        if widths:
            out.append((lev, d, widths))
    return out


@pytest.mark.parametrize(
    "n",
    # around the steps of max_scale (9, 27, 68, 4282) and of the dyadic counts
    [2, 8, 9, 10, 26, 27, 60, 61, 64, 65, 67, 68, 1000, 1023, 1024, 1025, 4099,
     4281, 4282, 10000, 30000],
)
def test_levels_materialize_to_the_system(n):
    system = levels(n)
    assert [
        (lev.scale, lev.step, [q * lev.step for q in lev.lags]) for lev in system
    ] == per_width_levels(n)
    js, ks, ls = [], [], []
    for lev in system:
        # size counts the grid points 1 + i*step <= n
        assert 1 + (lev.size - 1) * lev.step <= n < 1 + lev.size * lev.step
        # 2m <= n/2 <= n - 1, so the top lag never reaches size - 1
        assert lev.lags[-1] < lev.size - 1
        for q in lev.lags:
            for i in range(lev.size - q):
                js.append(1 + i * lev.step)
                ks.append(1 + (i + q) * lev.step)
                ls.append(lev.scale)
    order = np.lexsort((js, ks))
    j, k, lev = interval_arrays(n)
    assert np.array_equal(j, np.array(js, dtype=np.int64)[order])
    assert np.array_equal(k, np.array(ks, dtype=np.int64)[order])
    assert np.array_equal(lev, np.array(ls, dtype=np.int64)[order])
    for a in (j, k, lev):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert np.array_equal(row_index(n)[1], np.searchsorted(ks, np.arange(n + 2), sorter=order))
    # every count belongs to exactly one level, and counts fall with scale
    counts = [q * lev.step for lev in system for q in reversed(lev.lags)]
    assert counts == sorted(set(counts), reverse=True)
    assert (len(system) == 0) == (n < 9)


@pytest.mark.parametrize("n", [8, 9, 60, 1000, 10000, 30000, 100000])
def test_row_index(n):
    """Each row's position in ``level_counts``, the distinct counts in
    ascending order, and the offsets of the rows of each right end."""
    j, k, _ = interval_arrays(n)
    counts = level_counts(n)
    group, start = row_index(n)
    assert np.array_equal(counts, np.unique(k - j))
    assert np.array_equal(counts[group], k - j)
    assert np.array_equal(start, np.searchsorted(k, np.arange(n + 2)))
    assert counts.dtype == np.int64 and group.dtype == np.intp
    for a in (counts, group, start):
        assert not a.flags.writeable
    assert (counts.size == 0) == (n < 9)


def tied_exponential(n):
    """n sorted exponential values with a constant stretch in the middle."""
    x = np.sort(np.random.default_rng(n).exponential(size=n))
    x[n // 3 : n // 2] = x[n // 3]
    return x


@pytest.mark.parametrize("n", [8, 9, 10, 60, 1000, 4099, 30000, 100000])
def test_count_extremes_are_the_per_count_extremes(n):
    """Per count, the least and the largest X_(k) - X_(j) over the system
    intervals, in the order of ``level_counts``; ties and a constant stretch
    included.  At n = 30000 the step-1 level is reduced in blocks of two
    rows, at 1e5 of one row."""
    x = tied_exponential(n)
    got = count_extremes(x)
    assert got.shape == (2, level_counts(n).size)
    assert np.array_equal(got, count_extremes_reference(x))


@pytest.mark.parametrize("entries", [1, 7, 64])
@pytest.mark.parametrize("n", [60, 1000, 4099])
def test_count_extremes_in_small_blocks(n, entries):
    """A block budget that splits every level, most with a short last block,
    gives the same extremes bit for bit."""
    x = tied_exponential(n)
    with level_block(entries):
        shapes = [(len(lev.lags), lev.size - lev.lags[0]) for lev in levels(n)]
        assert all(nq > max(1, entries // w) for nq, w in shapes)
        assert _extent(n)[1] == max(w * max(1, entries // w) for _, w in shapes)
        got = count_extremes(x)
    assert np.array_equal(got, count_extremes_reference(x))


@pytest.mark.parametrize("n", [9, 60, 1000, 30000, 100000, 200000])
def test_level_buffer_holds_one_block(n):
    """The buffer the levels share holds at most ``LEVEL_BLOCK`` entries,
    unless a single row is wider, and then one row: at n = 30000 the step-1
    level's 15 rows of 29,985 entries pass two at a time, at 1e5 one."""
    widths = [lev.size - lev.lags[0] for lev in levels(n)]
    size = _extent(n)[1]
    if max(widths) > intervals.LEVEL_BLOCK:
        assert size == max(widths)
    else:
        assert size <= intervals.LEVEL_BLOCK


def test_layout_sorts_nothing(monkeypatch):
    """The system and its row index are laid out by counting: a fresh n
    builds with numpy's sorts unavailable."""
    layout = (interval_arrays, row_index)
    for cache in layout:
        cache.cache_clear()

    def no_sort(*args, **kwargs):
        raise AssertionError("the layout sorted")

    for name in ("lexsort", "argsort", "sort", "unique"):
        monkeypatch.setattr(np, name, no_sort)
    n = 4099
    j, k, _ = interval_arrays(n)
    group, start = row_index(n)
    assert all(cache.cache_info().misses == 1 for cache in layout)
    assert np.array_equal(level_counts(n)[group], k - j) and start[-1] == j.size


def test_band_tables_share_the_cached_grouping():
    sample = SortedSample(np.linspace(0.0, 1.0, 777))
    constraint_table(sample, 1.0)
    misses = row_index.cache_info().misses
    constraint_table(sample, 0.5)
    assert row_index.cache_info().misses == misses


def test_per_n_caches_are_bounded():
    """The system's caches, its row index, the extent of its level arrays,
    and the band table's per-(n, kappa) roots."""
    caches = (interval_arrays, row_index, levels, level_counts, _extent, _count_roots)
    bound = interval_arrays.cache_info().maxsize
    assert all(cache.cache_info().maxsize == bound for cache in caches)
    assert bound is not None and bound <= 4
    for n in range(20, 22 + 2 * bound):
        constraint_table(SortedSample(np.linspace(0.0, 1.0, n)), 1.0)
        for cache in caches:
            assert cache.cache_info().currsize <= bound


def minimal_scan(left, right):
    """Positions of the intervals that contain no other, unequal interval of
    the set: an O(Q**2) containment scan."""
    pairs = list(zip(left.tolist(), right.tolist()))
    return [
        i
        for i, (a, b) in enumerate(pairs)
        if not any((c, d) != (a, b) and a <= c and d <= b for c, d in pairs)
    ]


class TestMinimalIntervals:
    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        got = minimal_intervals(empty, empty)
        assert got.size == 0 and got.dtype == np.intp

    @pytest.mark.parametrize("q", [1, 2, 5, 40, 400])
    def test_matches_containment_scan(self, q):
        """Random index intervals, from a small range of ends so that equal
        and nested intervals are common."""
        rng = np.random.default_rng(q)
        for span in (3, 30, 1000):
            left = rng.integers(0, span, size=q)
            right = left + rng.integers(0, span // 3 + 2, size=q)
            got = minimal_intervals(left, right)
            assert got.tolist() == minimal_scan(left, right)

    def test_nested_runs_and_duplicates(self):
        """Two nested runs, each with its innermost interval twice; a third
        interval inside neither survives too."""
        left = np.array([0, 1, 2, 3, 3, 10, 11, 12, 12, 7])
        right = np.array([9, 8, 7, 6, 6, 19, 18, 17, 17, 11])
        got = minimal_intervals(left, right)
        assert got.tolist() == [3, 4, 7, 8, 9] == minimal_scan(left, right)

    def test_equal_intervals_left_to_the_caller(self):
        """Equal minimal intervals all come back, in position order, so a
        caller that sorts them stably by its own key and keeps the first per
        left end keeps the lowest key, then the lowest position."""
        left = np.array([5, 2, 5, 2, 5, 2, 9])
        right = np.array([8, 4, 8, 4, 8, 6, 12])
        key = np.array([0.3, 0.1, 0.2, 0.1, 0.2, 0.0, 1.0])
        got = minimal_intervals(left, right)
        assert got.tolist() == [0, 1, 2, 3, 4, 6]
        kept = got[np.lexsort((key[got], left[got]))]
        kept = kept[np.diff(left[kept], prepend=-1) != 0]
        assert kept.tolist() == [1, 2, 6]
