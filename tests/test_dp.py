import json
import math
import re

import numpy as np
import pytest

from mshist.bounds import block_band, constraint_table
from mshist.densities import get_density
from mshist.dp import (
    CHUNK,
    HistogramModel,
    _backtrack,
    _bellman_pruned,
    _model_from_cuts,
    _sweep,
    essential_histogram,
)
from mshist.intervals import IntervalSpec, interval_arrays, row_index
from mshist.io import histogram_document, histogram_from_document
from mshist.multiscale import lookup_kappa
from mshist.sample import SortedSample

from reference import (
    FeasibleBand,
    _bellman_unpruned,
    brute_force_histogram,
    cdf_reference,
    feasible_bands,
    models_equal_reference,
    pdf_reference,
    segment_cost,
    table_histogram,
    unpruned_histogram,
)

from conftest import kappa_table


def gapped_sample(seed, n=100):
    """Spacings spread over five orders of magnitude: the reached-in-k-blocks
    count K is far from monotone in the node index on such data."""
    rng = np.random.default_rng(seed)
    return SortedSample(
        np.cumsum(rng.exponential(size=n) * 10.0 ** rng.choice([-3, 0, 2], n))
    )


def bumps_sample(n):
    """Uniform bulk and two narrow bumps right of it: a round starts from
    almost every bulk node, and in most chunks few of those live nodes hold
    a table row."""
    rng = np.random.default_rng(0)
    k = n // 50
    return SortedSample(np.concatenate([
        rng.random(n - 2 * k), 1 + 0.001 * rng.random(k), 1.01 + 0.1 * rng.random(k)
    ]))


def blocks(pred, nodes):
    """Block count of each node's backtracked path: the pruned solver keeps
    no count, and a node's fewest blocks is its best path's length."""
    return np.array([len(_backtrack(pred, int(i))) - 1 for i in nodes])


def assert_set_nodes_match(sample, kappa):
    """The block counts, V and pred of the pruned solver equal the plain
    recursion's on every node the pruned one sets, not only on n; a one-bin
    fit sets only nodes 0 and n, and any other fit leaves V = +inf on the
    nodes it does not set."""
    n = sample.n
    V, pred = _bellman_pruned(sample, kappa)
    K_ref, V_ref, pred_ref = _bellman_unpruned(sample, kappa)
    set_ = np.array([0, n]) if pred[n] == 0 else np.flatnonzero(V < np.inf)
    assert set_[-1] == n
    assert np.array_equal(blocks(pred, set_), K_ref[set_])
    assert np.array_equal(V[set_], V_ref[set_])
    assert np.array_equal(pred[set_], pred_ref[set_])


def solve(solver, sample, kappa):
    """Fit, V[n] and fewest blocks of one Bellman solver at threshold kappa:
    K[n] of the plain recursion, the backtracked path's length of the pruned
    solver, which keeps no count."""
    *K, V, pred = solver(sample, kappa)  # only the plain recursion returns K
    n = sample.n
    cuts = _backtrack(pred, n)
    return _model_from_cuts(sample, cuts), V[n], K[0][n] if K else len(cuts) - 1


class TestHistogramModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramModel(np.array([0.0, 1.0]), np.array([0.5]), 10)  # mass 0.5
        with pytest.raises(ValueError):
            HistogramModel(np.array([1.0, 0.0]), np.array([1.0]), 10)
        with pytest.raises(ValueError):
            HistogramModel(np.array([0.0, 1.0]), np.array([-1.0]), 10)

    @pytest.mark.parametrize("n", [2.5, True, None, "7", np.float64(2.0), np.True_])
    def test_n_is_an_integer(self, n):
        """A model holds no n that its own document reader would refuse."""
        message = re.escape(f"n must be an integer, got {n!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            HistogramModel([0.0, 1.0], [1.0], n)

    def test_numpy_integer_n_is_a_python_int(self):
        """An n of a numpy integer type is held as a Python int, so the
        model's document is JSON and reads back to the model."""
        m = HistogramModel([0.0, 1.0], [1.0], np.int64(7), np.array([7]), (0, 7))
        assert type(m.n) is int and m.n == 7
        doc = json.loads(json.dumps(histogram_document(m)))
        assert histogram_from_document(doc) == m

    def test_counts_must_match_bins(self):
        with pytest.raises(ValueError, match="counts must match bins"):
            HistogramModel(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]), 10, [10])

    @pytest.mark.parametrize("counts", [[2.7, -1], [2, -1], [1.9, 3.2], [True, False]])
    def test_counts_are_nonnegative_integers(self, counts):
        """A model holds no count that its own document reader would refuse
        or truncate."""
        b, h = [0.0, 1.0, 2.0], [0.5, 0.5]
        with pytest.raises(ValueError, match="nonnegative integers"):
            HistogramModel(b, h, 4, counts)
        assert HistogramModel(b, h, 4, [4, 0]).counts.tolist() == [4, 0]

    @pytest.mark.parametrize(
        "cuts",
        # the last two: too few cuts for the breaks, and cuts that do not
        # step by the counts, which cuts need not do where no counts are given
        [(0, 5, 3), (0, 2), (1, 4), (0, 2, 2, 4), (0, 2.0, 4), (0, True, 4), (0,),
         (0, 4), (0, 1, 4)],
    )
    def test_cut_indices_rise_from_zero_to_n(self, cuts):
        b, h = [0.0, 1.0, 2.0], [0.5, 0.5]
        with pytest.raises(ValueError, match="cut_indices must be integers rising"):
            HistogramModel(b, h, 4, [2, 2], cuts)
        assert HistogramModel(b, h, 4, [2, 2], [0, 2, 4]).cut_indices == (0, 2, 4)
        assert HistogramModel(b, h, 4, None, [0, 1, 4]).cut_indices == (0, 1, 4)

    @pytest.mark.parametrize(
        "field, bad",
        [("breaks", {"a": 1}), ("breaks", ["0", "1"]), ("breaks", [[0.0], [1.0, 2.0]]),
         ("heights", "tall"), ("heights", [True])],
    )
    def test_non_numeric_field_is_named(self, field, bad):
        fields = {"breaks": [0.0, 1.0], "heights": [1.0], field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be an array of numbers"):
            HistogramModel(fields["breaks"], fields["heights"], 4)

    @pytest.mark.parametrize(
        "breaks, heights",
        [([0.0, math.nan, 1.0], [0.5, 0.5]), ([0.0, 1.0], [math.nan]),
         ([0.0, math.inf], [0.0])],
    )
    def test_rejects_non_finite(self, breaks, heights):
        # NaN passes every ordering and mass comparison, so only an explicit
        # finiteness check catches it
        with pytest.raises(ValueError, match="finite"):
            histogram_from_document({"breaks": breaks, "heights": heights, "n": 10})

    def test_pdf_cdf(self):
        m = HistogramModel(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25]), 10)
        assert m.pdf([-0.1, 0.0, 0.5, 1.0, 2.0, 3.0, 3.1]).tolist() == [
            0.0, 0.5, 0.5, 0.5, 0.25, 0.25, 0.0,
        ]
        assert m.cdf([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]).tolist() == [
            0.0, 0.0, 0.5, 0.75, 1.0, 1.0,
        ]

    def test_pdf_cdf_match_reference(self):
        """Random models, on a coarse grid or not, a third with empty bins,
        at their breaks, inside and beyond them, at NaN and at both
        infinities, and at a scalar point."""
        rng = np.random.default_rng(24)
        for r in range(3000):
            nb = int(rng.integers(1, 8))
            if r % 2:
                breaks = np.sort(rng.choice(np.arange(-6, 7) / 2, nb + 1, replace=False))
            else:
                breaks = np.unique(rng.normal(0.0, 10.0 ** rng.integers(-3, 4), nb + 1))
            heights = rng.random(breaks.size - 1)
            if r % 3 == 0:
                heights *= rng.random(heights.size) < 0.5
                heights[rng.integers(heights.size)] = 1.0
            m = HistogramModel(breaks, heights / np.sum(heights * np.diff(breaks)), 10)
            span = breaks[-1] - breaks[0]
            x = np.concatenate((
                breaks, rng.uniform(breaks[0] - span, breaks[-1] + span, 12),
                [np.nan, np.inf, -np.inf],
            ))
            # the reference's cdf reads 0 * inf = NaN at +inf, with a warning
            x_cdf = x[x != np.inf]
            for got, want in (
                (m.pdf(x), pdf_reference(m, x)),
                (m.cdf(x_cdf), cdf_reference(m, x_cdf)),
                (m.pdf(x[r % x.size]), pdf_reference(m, x[r % x.size])),
                (m.cdf(breaks[-1]), cdf_reference(m, breaks[-1])),
            ):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want, equal_nan=True), m

    def test_cdf_is_flat_past_the_support(self):
        """At +inf the cdf is its value at the last break, not 0 * inf."""
        m = HistogramModel(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25]), 10)
        assert m.cdf([3.0, 1e308, np.inf]).tolist() == [1.0, 1.0, 1.0]
        assert m.cdf(np.inf) == m.cdf(3.0) == 1.0

    def test_equality_matches_reference(self):
        """Missing against present counts, -0.0 against 0.0 in breaks and
        heights, another n, and every pair of a few nearby models."""
        b, h = np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25])
        models = [
            HistogramModel(b, h, 10),
            HistogramModel(b, h, 10, counts=[5, 5]),
            HistogramModel(b, h, 10, counts=[5, 4]),
            HistogramModel(b, h, 11),
            HistogramModel(b, h, 11, counts=[5, 5]),
            HistogramModel(b - 1.0, h, 10),
            HistogramModel(np.array([0.0, 1.0, 2.5]), np.array([0.5, 1.0 / 3.0]), 10),
            HistogramModel(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0]), 4),
            HistogramModel(np.array([-1.0, -0.0, 1.0]), np.array([-0.0, 1.0]), 4),
            HistogramModel(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0]), 4, [0, 4]),
        ]
        for a in models:
            for c in models:
                assert (a == c) is models_equal_reference(a, c)
                assert (a != c) is not models_equal_reference(a, c)
        assert models[7] == models[8]
        assert models[0] != models[1] and models[0] != models[3]
        assert models[0].__eq__("x") is NotImplemented and models[0] != "x"

    def test_roundtrip(self):
        m = HistogramModel(
            np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25]), 10,
            counts=np.array([5, 5]),
        )
        assert histogram_from_document(histogram_document(m)) == m

    def test_freezes_copies_not_the_callers_arrays(self):
        b = np.array([0.0, 1.0])
        h = np.array([1.0])
        c = np.array([2])
        m = HistogramModel(b, h, n=2, counts=c)
        b[0], h[0], c[0] = -1.0, 3.0, 7  # the caller's arrays stay writable
        assert m.breaks.tolist() == [0.0, 1.0]
        assert m.heights.tolist() == [1.0]
        assert m.counts.tolist() == [2]
        for a in (m.breaks, m.heights, m.counts):
            with pytest.raises(ValueError):
                a[0] = 99


class TestSegmentCost:
    def test_degenerate_first_block_is_infeasible(self):
        sample = SortedSample(np.linspace(0.0, 1.0, 16))
        assert segment_cost(0, 1, sample, []) == math.inf

    def test_cost_formula_without_constraints(self):
        sample = SortedSample(np.linspace(0.0, 2.0, 16))
        x = sample.values
        got = segment_cost(3, 9, sample, [])
        mu = 6 / (16 * (x[8] - x[2]))
        assert got == pytest.approx(-6 * math.log(mu), rel=1e-12)

    def test_infinite_when_band_violated(self):
        rng = np.random.default_rng(0)
        sample = SortedSample(rng.random(16))
        bands = feasible_bands(sample, -0.5)  # harsh threshold
        costs = [segment_cost(0, 16, sample, bands)]
        assert math.inf in costs or np.isfinite(costs[0])
        # with an empty band everything containing it is infeasible
        dead = FeasibleBand(IntervalSpec(2, 8, 2), math.inf, -math.inf, empty=True)
        assert segment_cost(0, 16, sample, [dead]) == math.inf
        assert segment_cost(8, 16, sample, [dead]) < math.inf

    def test_bad_indices(self):
        sample = SortedSample(np.linspace(0.0, 1.0, 16))
        for j, i in [(-1, 5), (5, 5), (5, 17)]:
            with pytest.raises(ValueError):
                segment_cost(j, i, sample, [])


class TestEssentialHistogram:
    def test_stalled_round_is_a_numeric_failure(self, tables, monkeypatch):
        """A round that reaches no node raises instead of looping."""
        from mshist import dp

        monkeypatch.setattr(dp, "_sweep", lambda *args: np.empty(0, dtype=np.int64))
        with pytest.raises(RuntimeError, match="dynamic program stalled"):
            essential_histogram(get_density("claw").sampler(0, 1000), 0.1, tables(1000))

    def test_single_bin_below_system_threshold(self):
        sample = SortedSample([0.1, 0.4, 0.5, 0.9])
        fit = essential_histogram(sample, 0.1, kappa_table(4, 1.6))
        assert fit.nbins == 1
        assert fit.breaks.tolist() == [0.1, 0.9]
        assert fit.heights[0] == pytest.approx(1.0 / 0.8)

    def test_density_integrates_to_one(self, tables):
        rng = np.random.default_rng(5)
        sample = SortedSample(rng.exponential(size=200))
        fit = essential_histogram(sample, 0.1, tables(200))
        assert float(np.sum(fit.heights * np.diff(fit.breaks))) == pytest.approx(1.0)
        assert int(fit.counts.sum()) == 200

    def test_breaks_are_order_statistics(self, tables):
        rng = np.random.default_rng(6)
        sample = SortedSample(rng.random(300))
        fit = essential_histogram(sample, 0.1, tables(300))
        assert set(fit.breaks).issubset(set(sample.values))
        assert fit.breaks[0] == sample.values[0]
        assert fit.breaks[-1] == sample.values[-1]

    def test_no_adjacent_equal_heights(self, tables):
        from mshist.densities import get_density

        sample = get_density("bimodal").sampler(3, 500)
        fit = essential_histogram(sample, 0.1, tables(500))
        assert np.all(np.diff(fit.heights) != 0.0)

    def test_model_keeps_equal_height_neighbors(self):
        """One bin per block: unit spacing gives bins (4, 7], (7, 10] and
        (10, 12] one height, 1/12, and none of them is merged."""
        sample = SortedSample(np.arange(12.0))
        model = _model_from_cuts(sample, [0, 4, 7, 10, 12])
        assert model.counts.tolist() == [4, 3, 3, 2]
        assert model.breaks.tolist() == [0.0, 3.0, 6.0, 9.0, 11.0]
        assert model.heights.tolist() == [4 / 36, 1 / 12, 1 / 12, 1 / 12]
        assert model.cut_indices == (0, 4, 7, 10, 12)

    def test_alpha_monotone_bins(self, tables):
        from mshist.densities import get_density

        for seed in range(5):
            sample = get_density("claw").sampler(seed, 500)
            bins = [
                essential_histogram(sample, a, tables(500)).nbins
                for a in (0.05, 0.1, 0.3, 0.5, 0.9)
            ]
            assert bins == sorted(bins)

    def test_pruned_equals_unpruned(self, tables):
        from mshist.densities import get_density

        for seed in range(10):
            sample = get_density("exponential").sampler(seed, 150)
            a = essential_histogram(sample, 0.1, tables(150))
            b = unpruned_histogram(sample, 0.1, tables(150))
            assert a.cut_indices == b.cut_indices
            assert np.array_equal(a.breaks, b.breaks)
            assert np.array_equal(a.heights, b.heights)

    def test_round_continues_past_dead_usable_candidates(self):
        # round 4 starts from nodes 24-29 and 44-55; the blocks from 24-29
        # are all dead at node 44, but node 55 still reaches n in one block
        sample = gapped_sample(4)
        table = kappa_table(100, 0.5)
        fit = essential_histogram(sample, 0.1, table)
        assert fit.cut_indices == (0, 34, 39, 55, 100)
        assert fit.cut_indices == unpruned_histogram(sample, 0.1, table).cut_indices

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
    def test_pruned_equals_unpruned_on_gapped_data(self, kappa):
        for seed in range(60):
            sample = gapped_sample(seed)
            a, va, ka = solve(_bellman_pruned, sample, kappa)
            b, vb, kb = solve(_bellman_unpruned, sample, kappa)
            assert a.cut_indices == b.cut_indices, seed
            assert np.array_equal(a.heights, b.heights), seed
            assert (va, ka) == (vb, kb), seed

    @pytest.mark.parametrize("family", ["claw", "harp"])
    def test_many_chunks_and_rounds_match_reference(self, family):
        n = 1500
        assert n > 20 * CHUNK
        for seed in range(2):
            sample = get_density(family).sampler(seed, n)
            for kappa in (0.5, 1.2):
                a, va, ka = solve(_bellman_pruned, sample, kappa)
                b, vb, kb = solve(_bellman_unpruned, sample, kappa)
                assert ka >= 8  # rounds
                assert a.cut_indices == b.cut_indices
                assert np.array_equal(a.heights, b.heights)
                assert (va, ka) == (vb, kb)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.5])
    def test_every_set_node_matches_reference_on_gapped_data(self, kappa):
        for seed in range(60):
            assert_set_nodes_match(gapped_sample(seed), kappa)

    @pytest.mark.parametrize("family", ["claw", "harp"])
    def test_every_set_node_matches_reference_in_many_chunks(self, family):
        for seed in range(2):
            for kappa in (0.5, 1.2):
                assert_set_nodes_match(get_density(family).sampler(seed, 1500), kappa)

    def test_every_set_node_matches_reference_with_few_held_nodes(self):
        # round 2 starts from about 1450 nodes, of which about 130 hold a
        # row in a chunk
        for kappa in (0.5, 1.2):
            assert_set_nodes_match(bumps_sample(1500), kappa)

    def test_only_the_stop_test_reaches_n(self, monkeypatch):
        """No sweep sets node n: each round's stop test rejected every block
        (t, n] from the round's start nodes, and the sweep reads the same
        bands, so the stop test is the only place where n is reached.  Every
        round but the last sweeps once: one sweep per block but the last."""
        from mshist import dp

        sweep = dp._sweep
        rounds = []

        def checked(table, edge, V, pred, active):
            reached = sweep(table, edge, V, pred, active)
            n = edge.size - 1
            assert (V[n], pred[n]) == (np.inf, -1)
            rounds.append(active)
            return reached

        monkeypatch.setattr(dp, "_sweep", checked)
        cases = [(gapped_sample(seed), kappa)
                 for seed in range(60) for kappa in (0.5, 1.0, 1.5)]
        cases += [(get_density(family).sampler(seed, 1500), kappa)
                  for family in ("claw", "harp", "exponential", "bimodal")
                  for seed in range(2) for kappa in (0.5, 1.2)]
        cases += [(bumps_sample(1500), kappa) for kappa in (0.5, 1.2)]
        for sample, kappa in cases:
            del rounds[:]
            _, pred = dp._bellman_pruned(sample, kappa)
            assert len(rounds) == blocks(pred, [sample.n])[0] - 1
            # only round 1 starts from node 0, which keys its branch
            assert [a[0] == 0 for a in rounds] == [i == 0 for i in range(len(rounds))]

    def test_the_sweep_reads_the_table_constraint_table_built(self, monkeypatch):
        """A multi-bin fit builds one band table: the sweep and the bands of
        the blocks (t, n] read the very arrays ``constraint_table`` returned,
        with no widened copy beside them."""
        from mshist import dp

        built, read = [], []

        def build(sample, kappa):
            built.append(constraint_table(sample, kappa))
            return built[-1]

        def band(table, t, i):
            read.append(table)
            return block_band(table, t, i)

        def sweep(table, *args):
            read.append(table)
            return _sweep(table, *args)

        monkeypatch.setattr(dp, "constraint_table", build)
        monkeypatch.setattr(dp, "block_band", band)
        monkeypatch.setattr(dp, "_sweep", sweep)
        for sample in (get_density("claw").sampler(0, 1500), gapped_sample(0)):
            del built[:], read[:]
            _, pred = dp._bellman_pruned(sample, 1.0)
            k = blocks(pred, [sample.n])[0]
            assert k > 2 and len(built) == 1
            assert len(read) == k  # (t, n] once, then one per sweep
            for table in read:
                assert table.lo is built[0].lo and table.hi is built[0].hi

    def test_both_paths_of_the_sweep_match_the_reference(self, monkeypatch):
        """The sweep tests the band only at each column's cheapest block and
        falls back to the column's whole band row when that block fails.
        Most columns of gapped data fall back and most of claw's do not, and
        both match the plain recursion on every set node."""
        from mshist import dp

        admits = dp._admits
        columns = {"tested": 0, "fell back": 0}

        def spy(edge, n, t, i, lo, hi):
            ok = admits(edge, n, t, i, lo, hi)
            if np.ndim(i) == 1:  # each open column's winner
                columns["tested"] += ok.size
            elif np.ndim(i) == 2:  # the columns whose winner failed
                columns["fell back"] += ok.shape[0]
            return ok

        monkeypatch.setattr(dp, "_admits", spy)
        for sample, kappa, falls_back in (
            (gapped_sample(0), 1.0, True),
            (gapped_sample(1), 0.5, True),
            (get_density("harp").sampler(0, 1500), 1.2, False),
            (get_density("claw").sampler(1, 3000), 0.6, False),
        ):
            columns.update({"tested": 0, "fell back": 0})
            assert_set_nodes_match(sample, kappa)
            assert (columns["fell back"] > columns["tested"] / 2) is falls_back

    def test_all_t_block_bands_only_past_the_first_round(self, tables, monkeypatch):
        """The first round tests the one bin (0, n] from each count's width
        extremes; the bands of every (t, n] are built once, when that round
        misses n."""
        from mshist import dp
        from mshist.bounds import block_band

        calls = []

        def counting(*args):
            calls.append(args)
            return block_band(*args)

        monkeypatch.setattr(dp, "block_band", counting)
        for family, want_calls in (("uniform", 0), ("claw", 1)):
            sample = get_density(family).sampler(0, 1000)
            del calls[:]
            fit = essential_histogram(sample, 0.1, tables(1000))
            assert (fit.nbins == 1) == (family == "uniform")
            assert len(calls) == want_calls, family

    def test_one_bin_fit_builds_no_band_table(self, monkeypatch):
        """A one-bin fit reads the level lattice alone: no per-interval
        array, row offset or band table; a multi-bin fit builds the table
        once."""
        from mshist import dp

        built = []

        def counting(*args):
            built.append(args)
            return constraint_table(*args)

        monkeypatch.setattr(dp, "constraint_table", counting)
        caches = (interval_arrays, row_index)
        n = 4111  # a size no other test uses
        table = kappa_table(n, 1.6)
        before = [cache.cache_info() for cache in caches]
        fit = essential_histogram(get_density("uniform").sampler(0, n), 0.1, table)
        assert fit.nbins == 1
        assert [cache.cache_info() for cache in caches] == before
        assert built == []
        fit = essential_histogram(get_density("claw").sampler(0, n), 0.1, table)
        assert fit.nbins > 1 and len(built) == 1

    def test_one_bin_test_matches_the_table_oracle(self, tables):
        """Near the one-to-two-bin threshold, the fit equals the one that
        tests (0, n] against the whole band table."""
        nbins = set()
        for n in (9, 10, 60, 1000, 3000):
            for family in ("uniform", "claw", "harp"):
                for seed in range(2):
                    sample = get_density(family).sampler(seed, n)
                    for alpha in (0.01, 0.1, 0.5, 0.9):
                        fit = essential_histogram(sample, alpha, tables(n))
                        want = table_histogram(sample, alpha, tables(n))
                        assert fit == want and fit.cut_indices == want.cut_indices
                        nbins.add(min(fit.nbins, 2))
        assert nbins == {1, 2}

    @pytest.mark.parametrize("family", ["uniform", "claw"])
    def test_extreme_magnitudes_match_the_table_oracle(self, tables, family):
        """x * 2**e with widths that go subnormal or overflow: the sample is
        refused when built, or the fit returns or raises what the table
        oracle does, with floating-point warnings off.  With them on as
        errors, the lattice divides a subset of the table's quotients, so it
        can only warn less."""
        x = get_density(family).sampler(0, 1000).values
        refused = set()

        def outcome(fit, sample, alpha):
            try:
                model = fit(sample, alpha, tables(1000))
            except (ArithmeticError, RuntimeError, ValueError, RuntimeWarning) as e:
                return type(e), str(e)
            return model.cut_indices, model.breaks.tolist(), model.heights.tolist()

        for e in (-1040, -1022, 500, 1000, 1015, 1018, 1020):
            try:
                sample = SortedSample(np.ldexp(x, e))
            except ValueError as err:
                assert str(err).startswith("sample scale out of range"), (e, err)
                refused.add(e)
                continue
            for alpha in (0.1, 0.9):
                with np.errstate(all="ignore"):
                    got = outcome(essential_histogram, sample, alpha)
                    assert got == outcome(table_histogram, sample, alpha), e
                want = outcome(table_histogram, sample, alpha)
                if want[0] is not RuntimeWarning:
                    assert outcome(essential_histogram, sample, alpha) == want, e
        assert refused == {-1040, -1022, 1015, 1018, 1020}

    def test_affine_equivariance(self, tables):
        rng = np.random.default_rng(9)
        x = rng.exponential(size=100)
        f1 = essential_histogram(SortedSample(x), 0.1, tables(100))
        f2 = essential_histogram(SortedSample(2 * x + 3), 0.1, tables(100))
        assert f1.cut_indices == f2.cut_indices


class TestBruteForce:
    def test_guard(self):
        sample = SortedSample(np.linspace(0.0, 1.0, 17))
        with pytest.raises(ValueError):
            brute_force_histogram(sample, 0.1, kappa_table(17, 1.6))

    def test_matches_dp(self, tables):
        from mshist.densities import get_density

        for seed in range(15):
            n = 9 + seed % 6
            sample = get_density("uniform").sampler(seed, n)
            a = essential_histogram(sample, 0.1, tables(n))
            b = brute_force_histogram(sample, 0.1, tables(n))
            assert a.nbins == b.nbins
            assert np.array_equal(a.breaks, b.breaks)
            assert np.array_equal(a.heights, b.heights)

    def test_fit_satisfies_every_band(self, tables):
        rng = np.random.default_rng(12)
        sample = SortedSample(rng.random(14))
        fit = brute_force_histogram(sample, 0.3, tables(14))
        kappa = lookup_kappa(tables(14), 0.3, 14)
        bands = feasible_bands(sample, kappa)
        cuts = fit.cut_indices
        for a, b in zip(cuts, cuts[1:]):
            assert segment_cost(a, b, sample, bands) < math.inf
