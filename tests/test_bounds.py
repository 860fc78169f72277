import math

import numpy as np
import pytest

from mshist import bounds
from mshist.bounds import (
    band_table,
    block_band,
    constraint_table,
    in_band,
    mass_roots_batch,
    whole_band,
)
from mshist.densities import get_density
from mshist.intervals import interval_arrays, level_counts, row_index
from mshist.multiscale import log_likelihood_ratio, penalty
from mshist.sample import SortedSample

from reference import build_interval_system, constraint_interval, mass_roots, table_band, widen


def gap_oracle(q, p_hat, kappa, n):
    return math.sqrt(2 * log_likelihood_ratio(p_hat, q, n)) - penalty(p_hat) - kappa


def roots(p_hat, kappa, n):
    lo, hi = mass_roots_batch(np.array([p_hat]), kappa, n)
    return float(lo[0]), float(hi[0])


class TestMassRoots:
    @pytest.mark.parametrize(
        "p_hat,kappa,n",
        [(0.5, 2.0, 10), (0.5, 1.0, 500), (0.1, 0.5, 100), (0.9, 3.0, 40), (0.02, 1.5, 1000)],
    )
    def test_roots_solve_defining_equation(self, p_hat, kappa, n):
        lo, hi = roots(p_hat, kappa, n)
        assert 0.0 < lo < p_hat < hi < 1.0
        assert gap_oracle(lo, p_hat, kappa, n) == pytest.approx(0.0, abs=1e-7)
        assert gap_oracle(hi, p_hat, kappa, n) == pytest.approx(0.0, abs=1e-7)

    def test_band_widens_with_kappa(self):
        lo1, hi1 = roots(0.5, 1.0, 100)
        lo2, hi2 = roots(0.5, 2.0, 100)
        assert lo2 < lo1 and hi2 > hi1

    def test_band_narrows_with_n(self):
        lo1, hi1 = roots(0.5, 1.0, 100)
        lo2, hi2 = roots(0.5, 1.0, 1000)
        assert lo2 > lo1 and hi2 < hi1

    def test_unsatisfiable_returns_nan(self):
        lo, hi = roots(0.5, -penalty(0.5) - 0.1, 100)
        assert math.isnan(lo) and math.isnan(hi)

    def test_batch_matches_scalar(self):
        p = np.array([0.02, 0.1, 0.25, 0.5, 0.8, 0.97])
        blo, bhi = mass_roots_batch(p, 1.3, 200)
        for i, ph in enumerate(p):
            lo, hi = mass_roots(float(ph), 1.3, 200)
            assert blo[i] == pytest.approx(lo, abs=1e-9)
            assert bhi[i] == pytest.approx(hi, abs=1e-9)

    def test_batch_unsatisfiable_entries(self):
        p = np.array([0.5, 0.1])
        kappa = -penalty(0.5) - 0.01  # dead for p=0.5, live for p=0.1
        lo, hi = mass_roots_batch(p, kappa, 100)
        assert np.isnan(lo[0]) and np.isnan(hi[0])
        assert np.isfinite(lo[1]) and np.isfinite(hi[1])


class TestConstraintInterval:
    def test_band_contains_empirical_density(self):
        rng = np.random.default_rng(1)
        sample = SortedSample(rng.random(64))
        t = constraint_table(sample, 1.0)
        x = sample.values
        mu = (t.b - t.a) / (64 * (x[t.b - 1] - x[t.a - 1]))
        assert np.all((t.lo < mu) & (mu < t.hi))
        assert np.all(in_band(mu, t.lo, t.hi))

    def test_density_units_scale_with_width(self):
        x1 = SortedSample(np.linspace(0.0, 1.0, 32))
        x2 = SortedSample(np.linspace(0.0, 2.0, 32))
        t1 = constraint_table(x1, 1.0)
        t2 = constraint_table(x2, 1.0)
        np.testing.assert_allclose(t2.lo, t1.lo / 2.0, rtol=1e-12)
        np.testing.assert_allclose(t2.hi, t1.hi / 2.0, rtol=1e-12)

    def test_empty_band_marker(self):
        sample = SortedSample(np.linspace(0.0, 1.0, 32))
        iv = build_interval_system(32)[0]
        kappa = -penalty(iv.count / 32) - 1.0
        t = constraint_table(sample, kappa)
        assert t.lo[0] == np.inf and t.hi[0] == -np.inf
        assert not in_band(0.5, t.lo[0], t.hi[0])
        assert constraint_interval(iv, sample, kappa).empty

    def test_feasible_bands_covers_system(self):
        # the table holds the reference's brentq band of every system interval
        sample = SortedSample(np.random.default_rng(2).random(50))
        t = constraint_table(sample, 1.0)
        system = build_interval_system(50)
        assert [(iv.j, iv.k) for iv in system] == list(zip(t.a, t.b))
        bands = [constraint_interval(iv, sample, 1.0) for iv in system]
        np.testing.assert_allclose(t.lo, [b.lower for b in bands], rtol=1e-8)
        np.testing.assert_allclose(t.hi, [b.upper for b in bands], rtol=1e-8)


def raw_roots(n, kappa):
    """Each count's mass roots, unwidened, with the unsatisfiable counts
    mapped to (+inf, -inf)."""
    q_lo, q_hi = mass_roots_batch(level_counts(n) / n, kappa, n)
    empty = np.isnan(q_lo)
    q_lo[empty], q_hi[empty] = np.inf, -np.inf
    return q_lo, q_hi


def inline_table(sample, kappa):
    """lo, hi and start of the band table, solved in full on every call:
    each count's roots widened by the slack, then divided by each width."""
    n = sample.n
    j, k, _ = interval_arrays(n)
    group, _ = row_index(n)
    x = sample.values
    q_lo, q_hi = widen(*raw_roots(n, kappa))
    width = x[k - 1] - x[j - 1]
    start = np.searchsorted(k, np.arange(n + 2))
    return q_lo[group] / width, q_hi[group] / width, start, np.isinf(q_lo).any()


class TestCachedRoots:
    def test_roots_solved_once_per_n_and_kappa(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return mass_roots_batch(*args)

        bounds._count_roots.cache_clear()
        monkeypatch.setattr(bounds, "mass_roots_batch", counting)
        rng = np.random.default_rng(4)
        first, second = (SortedSample(rng.random(200)) for _ in range(2))
        constraint_table(first, 1.0)
        constraint_table(second, 1.0)
        assert len(calls) == 1
        constraint_table(first, 0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [64, 500])
    def test_table_equals_inline_formula(self, n):
        """Two samples per kappa, and kappa revisited after another one, so
        a cache that kept a sample's widths or the wrong kappa's roots fails.
        -2.3 leaves some bands empty."""
        rng = np.random.default_rng(n)
        samples = [SortedSample(rng.random(n)), SortedSample(rng.exponential(size=n))]
        for kappa in (1.0, -2.3, 1.0):
            for sample in samples:
                lo, hi, start, some_empty = inline_table(sample, kappa)
                assert some_empty == (kappa < 0)
                t = constraint_table(sample, kappa)
                assert np.array_equal(t.lo, lo)
                assert np.array_equal(t.hi, hi)
                assert np.array_equal(t.start, start)

    def test_cached_arrays_are_read_only(self):
        n = 100
        t = constraint_table(SortedSample(np.random.default_rng(5).random(n)), 1.0)
        q_lo, q_hi = bounds._count_roots(n, 1.0)
        for a in (q_lo, q_hi, t.start):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestFeasibleBand:
    def test_in_band_is_a_plain_comparison(self):
        assert in_band(1.0, 1.0, 2.0) and in_band(2.0, 1.0, 2.0)
        assert not in_band(np.nextafter(1.0, 0.0), 1.0, 2.0)
        assert not in_band(np.nextafter(2.0, 3.0), 1.0, 2.0)
        assert not in_band(1.5, np.inf, -np.inf)

    def test_membership_slack(self):
        """Each bound of the table is its count's mass root times
        (1 -+ BAND_SLACK), over the width, so a density 5e-10 outside the
        raw band is in and one 1e-3 outside is not; empty bands stay empty."""
        sample = SortedSample(np.random.default_rng(6).random(200))
        for kappa in (1.0, -2.3):
            q_lo, q_hi = raw_roots(200, kappa)
            raw = band_table(sample, q_lo, q_hi)
            wide = band_table(sample, *widen(q_lo, q_hi))
            t = constraint_table(sample, kappa)
            assert np.array_equal(t.lo, wide.lo)
            assert np.array_equal(t.hi, wide.hi)
            full = raw.lo <= raw.hi
            assert np.all(in_band(raw.lo[full] * (1.0 - 5e-10), t.lo[full], t.hi[full]))
            assert np.all(in_band(raw.hi[full] * (1.0 + 5e-10), t.lo[full], t.hi[full]))
            assert not np.any(in_band(raw.lo * 0.999, t.lo, t.hi))
            assert not np.any(in_band(raw.hi * 1.001, t.lo, t.hi))
            assert np.array_equal(~full, t.lo > t.hi) and full.any()
            assert (~full).any() == (kappa < 0)


def masked_band(tab, t, i):
    """Tightest band over the rows inside each block (t, i], row by row."""
    inside = [(tab.a >= tt) & (tab.b <= ii) for tt, ii in zip(t, i)]
    return (
        np.array([np.max(tab.lo[m], initial=-np.inf) for m in inside]),
        np.array([np.min(tab.hi[m], initial=np.inf) for m in inside]),
    )


class TestBlockBand:
    @pytest.mark.parametrize("kappa", [1.0, -2.3])  # -2.3 leaves some bands empty
    def test_block_band_matches_rows(self, kappa):
        n = 80
        rng = np.random.default_rng(3)
        tab = constraint_table(SortedSample(rng.random(n)), kappa)
        assert np.isinf(tab.lo).any() == (kappa < 0)
        t = np.concatenate(([0, n + 1, 0, n + 1, 5], rng.integers(0, n + 2, 300)))
        i = np.concatenate(([0, 0, n, n, n], rng.integers(0, n + 1, 300)))
        for got, want in zip(block_band(tab, t, i), masked_band(tab, t, i)):
            assert np.array_equal(got, want)
        # one end for every start, as the fit's last round asks
        t = np.arange(n + 2)
        for got, want in zip(block_band(tab, t, n), masked_band(tab, t, [n] * t.size)):
            assert np.array_equal(got, want)


class TestWholeBand:
    @pytest.mark.parametrize("n", [9, 10, 60, 1000, 3000, 30000])
    def test_lattice_band_is_the_table_band(self, n):
        """The band of (0, n] from each count's width extremes equals one max
        and one min over the whole table, bit for bit; -2.3 leaves some
        bands empty."""
        for family in ("uniform", "claw", "harp"):
            sample = get_density(family).sampler(0, n)
            for kappa in (0.05, 1.1, 2.5, -2.3):
                want = table_band(constraint_table(sample, kappa))
                assert whole_band(sample, kappa) == want, (family, kappa)


class TestScaleGuard:
    #: exponents e of x -> 2**e * x, on both sides of the usable range
    SCALES = (-1040, -1030, -1027, -1026, -1023, -1022, -1000, 0,
              1000, 1010, 1011, 1013, 1014, 1015, 1020)

    def test_rescaled_results_are_exact_or_refused(self, tables):
        """The fit's cut indices, the features' witnesses and directions and
        the audit's counts of 2**e * x equal those of x with no
        RuntimeWarning, or building the sample raises the one scale error;
        every e in [-1000, 1000] gives the results of x."""
        from mshist import audit, essential_histogram, significant_feature_intervals
        from mshist.dp import HistogramModel

        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 1, 600), rng.normal(4, 0.5, 400)])
        table = tables(1000)
        fit0 = essential_histogram(SortedSample(x), 0.1, table)

        def outcomes(e):
            try:
                sample = SortedSample(np.ldexp(x, e))
            except ValueError as err:
                assert str(err).startswith("sample scale out of range"), (e, err)
                return [None] * 3
            try:  # the fit of x, mapped by 2**e where its heights stay finite
                with np.errstate(over="ignore"):
                    est = HistogramModel(
                        np.ldexp(fit0.breaks, e), np.ldexp(fit0.heights, -e), 1000
                    )
            except ValueError:
                est = HistogramModel(np.array([-1.0, 1.0]), np.array([0.5]), 1000)
            calls = (
                lambda: essential_histogram(sample, 0.1, table).cut_indices,
                lambda: [(f.direction, f.witnesses)
                         for f in significant_feature_intervals(sample, 0.1, table)],
                lambda: (lambda r: (r.violations, r.removable))(
                    audit(sample, est, 0.1, table)),
            )
            return [call() for call in calls]

        want = outcomes(0)
        assert None not in want and len(want[1]) == 48
        for e in self.SCALES:
            got = outcomes(e)
            assert got in (want, [None] * 3), e
            if -1000 <= e <= 1000:
                assert got == want, e
        assert outcomes(-1040) == outcomes(1020) == [None] * 3

    #: exponents e of x -> 2**e * x for the classical rules: where Scott's
    #: squared deviations underflow or overflow, and the guard's edges
    CLASSICAL_SCALES = (-1040, -1027, -1004, -1003, -560, -540, -535, -500, 0,
                        500, 510, 512, 515, 1010, 1011, 1015)

    def test_classical_rules_are_exact_or_refused(self):
        """Each classical rule on 2**e * x gives the breaks of x times 2**e,
        its heights times 2**-e and its counts, with no RuntimeWarning, or
        building the sample raises the scale error; every e in [-1003, 1010]
        gives the results of x."""
        from mshist.densities import CLASSICAL_RULES, classical_histogram

        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 1, 600), rng.normal(4, 0.5, 400)])
        for rule in CLASSICAL_RULES:
            want = classical_histogram(SortedSample(x), rule)
            assert want.nbins > 1
            for e in self.CLASSICAL_SCALES:
                try:
                    sample = SortedSample(np.ldexp(x, e))
                except ValueError as err:
                    assert str(err).startswith("sample scale out of range"), (rule, e)
                    assert not -1003 <= e <= 1010, (rule, e)
                    continue
                got = classical_histogram(sample, rule)
                assert np.array_equal(got.breaks, np.ldexp(want.breaks, e)), (rule, e)
                assert np.array_equal(got.heights, np.ldexp(want.heights, -e)), (rule, e)
                assert np.array_equal(got.counts, want.counts), (rule, e)

    def test_message_names_the_range(self):
        """Too wide a span and too small a gap each raise the error when the
        sample is built, and it names both limits."""
        for values in (np.linspace(0.0, 1.5e308, 12), np.arange(12.0) * 5e-324):
            with pytest.raises(ValueError, match=(
                r"^sample scale out of range: need n\*\(X_\(n\) - X_\(1\)\) <= "
                r"1\.798e\+308 and every gap between neighbours >= 5\.563e-309"
            )):
                SortedSample(values)
