import json
import logging
import math
import tempfile

import numpy as np
import pytest

from mshist import audit, essential_histogram, significant_feature_intervals
from mshist.densities import get_density
from mshist.intervals import count_groups, interval_arrays
from mshist.multiscale import (
    CACHE_ENV_VAR,
    DEFAULT_ALPHAS,
    QuantileTable,
    default_cache_dir,
    load_table,
    log_likelihood_ratio,
    lookup_kappa,
    multiscale_statistic,
    penalty,
    simulate_quantiles,
    simulate_statistics,
    table_path,
)
from mshist.sample import SortedSample

from conftest import SEED, TABLES_DIR, committed_reps
from reference import build_interval_system, multiscale_statistic_full


def loglr_oracle(p_hat, p0, n):
    t = 0.0
    if p_hat > 0:
        t += p_hat * math.log(p_hat / p0)
    if p_hat < 1:
        t += (1 - p_hat) * math.log((1 - p_hat) / (1 - p0))
    return n * t


class TestLogLikelihoodRatio:
    def test_matches_direct_formula(self):
        for p_hat, p0, n in [(0.3, 0.5, 10), (0.9, 0.2, 50), (0.01, 0.5, 7)]:
            assert log_likelihood_ratio(p_hat, p0, n) == pytest.approx(
                loglr_oracle(p_hat, p0, n), rel=1e-12
            )

    def test_zero_iff_equal(self):
        assert log_likelihood_ratio(0.37, 0.37, 100) == 0.0
        assert log_likelihood_ratio(0.38, 0.37, 100) > 0.0

    def test_boundary_masses_are_finite(self):
        assert log_likelihood_ratio(0.0, 0.5, 10) == pytest.approx(
            10 * math.log(2.0)
        )
        assert log_likelihood_ratio(1.0, 0.5, 10) == pytest.approx(
            10 * math.log(2.0)
        )

    def test_rejects_degenerate_p0(self):
        for p0 in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                log_likelihood_ratio(0.5, p0, 10)

    def test_rejects_p_hat_outside_unit_interval(self):
        for p_hat in (-0.1, 1.1, [0.5, 1.0 + 1e-12]):
            with pytest.raises(ValueError, match="p_hat must lie in"):
                log_likelihood_ratio(p_hat, 0.5, 10)

    def test_vectorized(self):
        p = np.array([0.1, 0.5, 0.9])
        out = log_likelihood_ratio(p, 0.5, 20)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(loglr_oracle(0.1, 0.5, 20))

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        p = rng.random(1000)
        q = np.clip(p + rng.normal(scale=1e-9, size=1000), 1e-6, 1 - 1e-6)
        assert np.all(log_likelihood_ratio(p, q, 100) >= 0.0)


class TestPenalty:
    def test_matches_direct_formula(self):
        for p in (0.5, 0.1, 0.013):
            assert penalty(p) == pytest.approx(
                math.sqrt(2.0 * math.log(math.e / (p * (1 - p)))), rel=1e-12
            )

    def test_symmetric_with_minimum_at_half(self):
        assert penalty(0.2) == pytest.approx(penalty(0.8), rel=1e-14)
        assert penalty(0.5) < penalty(0.4) < penalty(0.1)

    def test_rejects_boundary(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                penalty(p)


class TestStatistics:
    def test_global_statistic_is_max_over_system(self):
        rng = np.random.default_rng(3)
        sample = SortedSample(rng.random(60))
        got = multiscale_statistic(sample, cdf=lambda v: v)
        x = sample.values
        expect = max(
            math.sqrt(
                2 * loglr_oracle(iv.count / 60, x[iv.k - 1] - x[iv.j - 1], 60)
            )
            - penalty(iv.count / 60)
            for iv in build_interval_system(60)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_matches_whole_system_exactly(self):
        # the per-count reduction evaluates two intervals per count; the
        # whole-system formula all of them, and both must agree to the bit
        sides = set()
        for name in ("uniform", "exponential", "claw"):
            truth = get_density(name)
            for n in (9, 60, 1000, 10000, 30000):
                j, k, _ = interval_arrays(n)
                p_hat = (k - j) / n
                for seed in range(4):
                    sample = truth.sampler(seed, n)
                    got = multiscale_statistic(sample, cdf=truth.cdf)
                    assert got == multiscale_statistic_full(sample, cdf=truth.cdf)
                    # which extreme of its count group attains the maximum
                    f = truth.cdf(sample.values)
                    p0 = f[k - 1] - f[j - 1]
                    stat = np.sqrt(2.0 * log_likelihood_ratio(p_hat, p0, n))
                    i = int(np.argmax(stat - penalty(p_hat)))
                    sides.add("lower" if p0[i] < p_hat[i] else "upper")
        assert sides == {"lower", "upper"}
        # at small n a level's last lag reaches size - 1, so its last row
        # holds a single interval before X_(n)
        uniform = get_density("uniform")
        for n in range(9, 200):
            sample = uniform.sampler(0, n)
            got = multiscale_statistic(sample, cdf=uniform.cdf)
            assert got == multiscale_statistic_full(sample, cdf=uniform.cdf), n

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_whole_system_one_row_per_block(self, seed):
        # at n = 1e5 a step-1 row of count_extremes is wider than its block
        # budget, so each block holds one row
        uniform = get_density("uniform")
        sample = uniform.sampler(seed, 100000)
        got = multiscale_statistic(sample, cdf=uniform.cdf)
        assert got == multiscale_statistic_full(sample, cdf=uniform.cdf)

    @pytest.mark.parametrize("n", [9, 60, 1000, 10000])
    def test_maximum_on_the_last_interval_of_its_count(self, n):
        # equally spaced points under a convex cdf: for a fixed count the true
        # mass grows with the left end, so every count's largest true mass is
        # its last interval, the one next to the entries past X_(n).  With
        # slope 1 at 0 and 3 at 1 the largest masses deviate most (under v**2
        # the smallest ones would), so the statistic is attained there
        sample = SortedSample(np.arange(1, n + 1) / (n + 1))
        cdf = lambda v: v + v**4 / 2
        got = multiscale_statistic(sample, cdf=cdf)
        assert got == multiscale_statistic_full(sample, cdf=cdf)
        j, k, _ = interval_arrays(n)
        _, group = count_groups(n)
        f = cdf(sample.values)
        p0 = f[k - 1] - f[j - 1]
        last = np.zeros(group.max() + 1, dtype=np.int64)
        np.maximum.at(last, group, j)
        heaviest = np.full(group.max() + 1, -np.inf)
        np.maximum.at(heaviest, group, p0)
        assert np.array_equal(p0[j == last[group]], heaviest[group[j == last[group]]])
        # and the statistic is attained there
        p_hat = (k - j) / n
        stat = np.sqrt(2.0 * log_likelihood_ratio(p_hat, p0, n)) - penalty(p_hat)
        i = int(np.argmax(stat))
        assert stat[i] == got and j[i] == last[group[i]]

    def test_non_finite_cdf_values_raise(self):
        sample = SortedSample(np.random.default_rng(5).random(1000))
        x = sample.values
        for bad in (np.nan, np.inf, -np.inf):
            cdf = lambda v, bad=bad: np.where(v > x[900], bad, v)
            with pytest.raises(ValueError, match="non-finite"):
                multiscale_statistic(sample, cdf=cdf)

    def test_degenerate_true_mass_raises(self):
        # only the extremes of each count group reach the LLR, and they hold
        # the smallest and the largest true mass, so a cdf that puts some
        # interval's mass outside (0, 1) is rejected as before
        sample = SortedSample(np.random.default_rng(5).random(1000))
        x = sample.values
        flat_below_median = lambda v: np.maximum(v, x[500])  # some p0 == 0
        steep = lambda v: 2.5 * v  # the widest intervals get p0 >= 1
        for cdf in (flat_below_median, steep):
            for statistic in (multiscale_statistic, multiscale_statistic_full):
                with pytest.raises(ValueError, match="p0"):
                    statistic(sample, cdf=cdf)

    def test_small_n_raises(self):
        with pytest.raises(ValueError):
            multiscale_statistic(SortedSample([0.1, 0.5, 0.9]), cdf=lambda v: v)

    def test_calibration_builds_no_per_interval_arrays(self):
        def misses():
            return [c.cache_info().misses for c in (interval_arrays, count_groups)]

        before = misses()
        simulate_statistics(4099, 3, seed=1)  # a size no other test uses
        assert misses() == before

    def test_simulation_seeded(self):
        a = simulate_statistics(30, 20, seed=5)
        b = simulate_statistics(30, 20, seed=5)
        c = simulate_statistics(30, 20, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestQuantileTable:
    def test_kappas_decrease_in_alpha(self, tables):
        t = tables(500)
        assert list(t.kappas) == sorted(t.kappas, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileTable(10, (0.5, 0.1), (1.0, 2.0), 100, 0)
        with pytest.raises(ValueError):
            QuantileTable(10, (0.1, 0.5), (1.0, 2.0), 100, 0)
        with pytest.raises(ValueError):
            QuantileTable(10, (0.1, 1.5), (2.0, 1.0), 100, 0)

    def test_reps_at_least_one(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            QuantileTable(10, (0.1, 0.5), (2.0, 1.0), 0, 0)

    def test_default_cache_dir(self, tmp_path, monkeypatch):
        """The environment variable when it is set and not empty, else the
        user's cache directory."""
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "kappa"))
        assert default_cache_dir() == tmp_path / "kappa"
        monkeypatch.setenv(CACHE_ENV_VAR, "")
        assert default_cache_dir() == tmp_path / ".cache" / "mshist"
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert default_cache_dir() == tmp_path / ".cache" / "mshist"

    def test_roundtrip(self, tmp_path):
        t = QuantileTable(10, (0.1, 0.5), (2.0, 1.0), 100, 0)
        assert QuantileTable.from_dict(t.to_dict()) == t
        (tmp_path / "t.json").write_text(json.dumps(t.to_dict()))
        assert load_table(tmp_path / "t.json") == t

    def test_rejects_other_format_version(self):
        d = QuantileTable(10, (0.1, 0.5), (2.0, 1.0), 100, 0).to_dict()
        for version in (0, 2, None):
            with pytest.raises(ValueError):
                QuantileTable.from_dict({**d, "version": version})

    def test_cache_hit_is_exact(self, tmp_path, caplog):
        """The miss is announced by one warning naming the cache file; the
        hit returns the same table silently and writes nothing."""
        caplog.set_level(logging.WARNING, logger="mshist")
        t1 = simulate_quantiles(20, reps=150, seed=9, cache_dir=tmp_path)
        warned = [r for r in caplog.records if r.name == "mshist"]
        assert [r.levelno for r in warned] == [logging.WARNING]
        message = warned[0].getMessage()
        assert str(table_path(20, 150, 9, tmp_path)) in message
        assert "simulating now (150 replications)" in message
        caplog.clear()
        files = list(tmp_path.iterdir())
        t2 = simulate_quantiles(20, reps=150, seed=9, cache_dir=tmp_path)
        assert [r for r in caplog.records if r.name == "mshist"] == []
        assert t1 == t2
        assert list(tmp_path.iterdir()) == files

    def test_cache_file_is_write_once(self, tmp_path):
        path = table_path(20, 150, 9, tmp_path)
        kept = QuantileTable(20, DEFAULT_ALPHAS, tuple(np.linspace(3, 1, 8)), 150, 9)
        path.write_text(json.dumps(kept.to_dict()))
        before = path.read_bytes()
        assert simulate_quantiles(20, reps=150, seed=9, cache_dir=tmp_path) == kept
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_concurrent_first_writer_keeps_its_file(self, tmp_path, monkeypatch):
        path = table_path(20, 150, 9, tmp_path)
        rival = b'{"written": "by the first writer"}'
        mkstemp = tempfile.mkstemp

        def rival_writes_first(*args, **kwargs):
            # another process creates the file after the exists check
            path.write_bytes(rival)
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", rival_writes_first)
        t = simulate_quantiles(20, reps=150, seed=9, cache_dir=tmp_path)
        assert path.read_bytes() == rival
        assert list(tmp_path.iterdir()) == [path]
        assert t == simulate_quantiles(
            20, reps=150, seed=9, cache_dir=tmp_path / "fresh"
        )

    def test_cache_file_content(self, tmp_path):
        t = simulate_quantiles(20, reps=150, seed=9, cache_dir=tmp_path)
        raw = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert QuantileTable.from_dict(raw) == t

    def test_reps_floor(self, tmp_path):
        with pytest.raises(ValueError):
            simulate_quantiles(20, reps=50, cache_dir=tmp_path / "fresh")
        assert list(tmp_path.iterdir()) == []

    def test_quantiles_match_simulated_statistics(self, tmp_path):
        t = simulate_quantiles(25, reps=200, seed=4, cache_dir=tmp_path)
        stats = simulate_statistics(25, 200, seed=4)
        assert t.alphas == DEFAULT_ALPHAS
        for a, k in zip(t.alphas, t.kappas):
            assert k == pytest.approx(np.quantile(stats, 1 - a))

    @pytest.mark.parametrize("n", [9, 60, 500, 1000, 3000])
    def test_committed_tables_reproduce(self, n, tmp_path):
        reps = committed_reps(n)
        committed = table_path(n, reps, SEED, TABLES_DIR)
        got = simulate_quantiles(n, reps=reps, seed=SEED, cache_dir=tmp_path)
        assert got == load_table(committed)
        assert table_path(n, reps, SEED, tmp_path).read_bytes() == committed.read_bytes()


class TestLookup:
    def test_rounds_down_to_grid(self, tables):
        """A level between grid points takes the next smaller grid level's
        kappa, never an interpolated smaller one; a level above the grid
        takes the largest grid level's."""
        t = tables(500)
        kappa = dict(zip(t.alphas, t.kappas))
        assert lookup_kappa(t, 0.1, 500) == kappa[0.1]
        assert lookup_kappa(t, 0.15, 500) == lookup_kappa(t, 0.19999, 500) == kappa[0.1]
        assert lookup_kappa(t, 0.95, 500) == kappa[0.9]
        t = tables(1000)
        assert lookup_kappa(t, 0.8, 1000) == dict(zip(t.alphas, t.kappas))[0.7]

    def test_served_kappa_holds_the_level(self, tables):
        """Off the grid, the statistic exceeds the served kappa no more
        often than alpha allows.  Linear interpolation between grid levels
        gave an exceedance of 0.807 at alpha = 0.8 over 40,000 replications."""
        stats = simulate_statistics(1000, 2000, seed=5)
        for alpha in (0.15, 0.4, 0.8, 0.95):
            exceed = np.mean(stats > lookup_kappa(tables(1000), alpha, 1000))
            assert exceed <= alpha, alpha

    def test_rejects_off_grid_and_mismatched_n(self, tables):
        t = tables(500)
        with pytest.raises(ValueError, match="below the grid"):
            lookup_kappa(t, 0.001, 500)
        with pytest.raises(ValueError):
            lookup_kappa(t, 0.1, 200)

    def test_missing_table_is_a_clear_error(self, tables):
        """Every call that needs kappa says so when given no table, rather
        than failing on an attribute of None."""
        sample = get_density("claw").sampler(0, 500)
        fit = essential_histogram(sample, 0.1, tables(500))
        calls = (
            lambda: essential_histogram(sample, 0.1, None),
            lambda: significant_feature_intervals(sample, 0.1, None),
            lambda: audit(sample, fit, 0.1, None),
        )
        for call in calls:
            with pytest.raises(ValueError, match="calibrated kappa table"):
                call()

    def test_small_sample_is_served_none(self):
        """Below the interval system's threshold (n < 9) no table is read;
        from n = 9 on a missing table is an error."""
        for n in range(2, 9):
            assert lookup_kappa(None, 0.1, n) is None
        with pytest.raises(ValueError, match="calibrated kappa table is needed"):
            lookup_kappa(None, 0.1, 9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
    def test_alpha_is_checked_at_every_n(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            lookup_kappa(None, alpha, 5)

    def test_analyses_of_a_small_sample_take_the_lookup(self):
        """The fit, the features and the audit check alpha and branch on a
        small sample through ``lookup_kappa`` alone."""
        sample = SortedSample([0.1, 0.3, 0.4, 0.6, 0.9])
        fit = essential_histogram(sample, 0.1, None)
        assert fit.nbins == 1 and fit.cut_indices == (0, 5)
        assert significant_feature_intervals(sample, 0.1, None) == []
        report = audit(sample, fit, 0.1, None)
        assert report.kappa is None and report.clean
        calls = (
            lambda: essential_histogram(sample, 1.5, None),
            lambda: significant_feature_intervals(sample, 1.5, None),
            lambda: audit(sample, fit, 1.5, None),
        )
        for call in calls:
            with pytest.raises(ValueError, match="alpha must lie in"):
                call()

    def test_large_n_served_by_capped_table(self):
        t = QuantileTable(10_000, DEFAULT_ALPHAS, tuple(np.linspace(3, 1, 8)), 100, 0)
        assert lookup_kappa(t, 0.1, 50_000) == lookup_kappa(t, 0.1, 10_000)
