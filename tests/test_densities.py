import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from mshist import densities
from mshist.densities import (
    BENCHMARK_COLUMNS,
    DEFAULT_P_GRID,
    catalog,
    classical_histogram,
    count_extrema,
    get_density,
    histogram_skewness,
    metrics,
    standardized_mass_error,
    benchmark_rows,
)
from mshist.dp import HistogramModel, essential_histogram
from mshist.sample import SortedSample

from reference import proposition1_check


@pytest.fixture(scope="module")
def by_name():
    return {d.name: d for d in catalog()}


class TestCatalog:
    def test_expected_members(self, by_name):
        assert set(by_name) == {
            "uniform", "exponential", "histogram_mixture", "claw",
            "harp", "cauchy", "bimodal", "step",
        }

    def test_uniform_cdf(self, by_name):
        assert float(by_name["uniform"].cdf(0.3)) == pytest.approx(0.3)

    def test_cdf_limits_and_monotone(self, by_name):
        for d in by_name.values():
            lo, hi = (-1e7, 1e7) if d.name != "harp" else (-1e7, 1e7)
            assert float(d.cdf(lo)) == pytest.approx(0.0, abs=1e-4)
            assert float(d.cdf(hi)) == pytest.approx(1.0, abs=1e-4)
            xs = np.linspace(-50, 100, 500)
            c = np.asarray(d.cdf(xs), dtype=float)
            assert np.all(np.diff(c) >= -1e-12)
            assert np.all(np.asarray(d.pdf(xs)) >= 0.0)

    def test_pdfs_integrate_to_one(self, by_name):
        for name, (a, b) in {
            "harp": (-10, 130),
            "claw": (-8, 8),
            "histogram_mixture": (-1, 7),
            "step": (-1, 2),
        }.items():
            total = quad(lambda x: float(by_name[name].pdf(x)), a, b, limit=400)[0]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_samplers_match_cdf(self, by_name):
        for d in by_name.values():
            s = d.sampler(11, 10_000)
            p = kstest(s.values, lambda v: np.asarray(d.cdf(v), dtype=float)).pvalue
            assert p > 0.001, d.name

    def test_samplers_seeded(self, by_name):
        d = by_name["claw"]
        assert np.array_equal(d.sampler(3, 50).values, d.sampler(3, 50).values)
        assert not np.array_equal(d.sampler(3, 50).values, d.sampler(4, 50).values)

    def test_claw_has_five_modes(self, by_name):
        d = by_name["claw"]
        xs = np.linspace(-3, 3, 20001)
        f = np.asarray(d.pdf(xs))
        local_max = np.sum((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:]))
        assert local_max == 5 == d.true_mode_count

    def test_lookups_share_one_density(self, monkeypatch):
        """A name gives the same object on every lookup, so its quantile grid
        is built once however often the density is looked up."""
        assert get_density("claw") is get_density("claw") is catalog()[3]
        assert catalog() is not catalog()
        built = []
        grid = densities._quantile_grid

        def counted(truth):
            built.append(truth.name)
            return grid(truth)

        monkeypatch.setattr(densities, "_quantile_grid", counted)
        monkeypatch.delitem(vars(get_density("claw")), "quantile_grid", raising=False)
        fit = classical_histogram(get_density("claw").sampler(0, 500), "sturges")
        first = metrics(fit, get_density("claw"))
        second = metrics(fit, get_density("claw"))
        assert built == ["claw"]
        assert first == second

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_density("nope")

    def test_pdf_sq_integrals(self, by_name):
        for name, (a, b) in {
            "uniform": (-1, 2), "exponential": (0, 40), "claw": (-8, 8),
            "step": (-1, 2), "cauchy": (-2000, 2000),
        }.items():
            d = by_name[name]
            num = quad(lambda x: float(d.pdf(x)) ** 2, a, b, limit=400)[0]
            assert d.pdf_sq_integral == pytest.approx(num, rel=1e-4)

    def test_skewness_values(self, by_name):
        assert by_name["uniform"].true_skewness == 0.0
        assert by_name["exponential"].true_skewness == 2.0
        assert by_name["bimodal"].true_skewness == pytest.approx(0.0, abs=1e-12)
        assert by_name["harp"].true_skewness == pytest.approx(0.9, abs=0.02)
        assert by_name["cauchy"].true_skewness is None


class TestClassicalRules:
    def test_sturges_bin_count(self, by_name):
        s = by_name["uniform"].sampler(2, 100)
        fit = classical_histogram(s, "sturges")
        assert fit.nbins == 8  # ceil(log2 100) + 1
        assert np.allclose(np.diff(fit.breaks), np.diff(fit.breaks)[0])

    def test_scott_width_formula(self, by_name):
        s = by_name["uniform"].sampler(5, 1000)
        x = s.values
        sd = float(np.std(x, ddof=1))
        h = 3.49 * sd * 1000 ** (-1 / 3)
        k = math.ceil((x[-1] - x[0]) / h)
        fit = classical_histogram(s, "scott_width")
        assert fit.nbins <= k  # only empty-bin merges may reduce it
        assert fit.breaks[0] == x[0] and fit.breaks[-1] == x[-1]
        # for s = 1, n = 1000 the width is 0.349
        assert 3.49 * 1.0 * 1000 ** (-1 / 3) == pytest.approx(0.349)

    def test_scott_area_equal_counts(self, by_name):
        s = by_name["exponential"].sampler(3, 1000)
        fit = classical_histogram(s, "scott_area")
        k = fit.nbins
        assert np.all(np.abs(fit.counts - 1000 / k) <= 1.0)

    def test_empty_bins_merged(self, by_name):
        s = by_name["cauchy"].sampler(3, 300)
        fit = classical_histogram(s, "scott_width")
        h = fit.heights
        assert not np.any((h[1:] == 0.0) & (h[:-1] == 0.0))
        assert int(fit.counts.sum()) == 300

    def test_unknown_rule(self, by_name):
        with pytest.raises(ValueError):
            classical_histogram(by_name["uniform"].sampler(0, 50), "fd")


class TestMetrics:
    def test_truth_fit_scores_zero(self, by_name):
        step = by_name["step"]
        own = HistogramModel(np.array([0.0, 0.5, 1.0]), np.array([1.5, 0.5]), 2)
        m = metrics(own, step)
        assert m["mise_sq"] == pytest.approx(0.0, abs=1e-12)
        assert m["kolmogorov"] == pytest.approx(0.0, abs=1e-12)
        assert all(m[f"d_{p}"] == pytest.approx(0.0, abs=1e-3) for p in DEFAULT_P_GRID)

    def test_keys_are_the_benchmark_columns(self, tables):
        """One name per metric: the essential fit and every classical rule
        are scored under the CSV's metric columns, in the CSV's order."""
        claw = get_density("claw")
        sample = claw.sampler(0, 500)
        fits = [essential_histogram(sample, 0.1, tables(500))]
        fits += [classical_histogram(sample, rule) for rule in densities.CLASSICAL_RULES]
        for fit in fits:
            assert tuple(metrics(fit, claw)) == BENCHMARK_COLUMNS[5:-1]

    def test_mise_matches_quadrature(self, by_name):
        """Over every bin and both tails, where the fit is zero; the Cauchy
        density's heavy tails still have finite squared mass 1/(2 pi)."""
        for name, n in (("claw", 500), ("cauchy", 1000)):
            truth = by_name[name]
            fit = classical_histogram(truth.sampler(1, n), "sturges")
            b = fit.breaks
            sq = lambda x: float(truth.pdf(x)) ** 2
            num = quad(sq, -np.inf, b[0])[0] + quad(sq, b[-1], np.inf)[0]
            num += sum(
                quad(lambda x: (float(truth.pdf(x)) - h) ** 2, lo, hi)[0]
                for lo, hi, h in zip(b[:-1], b[1:], fit.heights)
            )
            assert metrics(fit, truth)["mise_sq"] == pytest.approx(num, rel=1e-6)

    def test_kolmogorov_matches_direct_scan(self, by_name):
        exp = by_name["exponential"]
        fit = classical_histogram(exp.sampler(2, 400), "sturges")
        m = metrics(fit, exp)
        xs = np.linspace(-1, 30, 200001)
        direct = np.max(np.abs(np.asarray(exp.cdf(xs)) - fit.cdf(xs)))
        assert m["kolmogorov"] == pytest.approx(float(direct), abs=1e-4)

    def test_extrema_counting(self):
        assert count_extrema(np.array([1.0, 3.0, 2.0, 4.0, 1.0])) == (2, 1)
        assert count_extrema(np.array([1.0])) == (1, 0)
        assert count_extrema(np.array([2.0, 1.0, 2.0])) == (2, 1)

    def test_extrema_alternation(self, by_name):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.random(rng.integers(1, 12))
            modes, troughs = count_extrema(h)
            assert modes >= 1
            assert abs(modes - troughs) <= 1 or troughs == modes - 1

    def test_skewness_closed_form(self):
        fit = HistogramModel(np.array([0.0, 0.5, 1.0]), np.array([1.5, 0.5]), 2)
        m1 = quad(lambda x: x * float(fit.pdf(x)), 0, 1)[0]
        m2 = quad(lambda x: x * x * float(fit.pdf(x)), 0, 1)[0]
        m3 = quad(lambda x: x**3 * float(fit.pdf(x)), 0, 1)[0]
        v = m2 - m1**2
        expect = (m3 - 3 * m1 * v - m1**3) / v**1.5
        assert histogram_skewness(fit) == pytest.approx(expect, rel=1e-9)

    def test_skewness_of_shifted_data(self, tables):
        """Claw at n = 1000 shifted by 2**e fits the same bins at every e, and
        its skewness holds to 1e-6: raw moments about 0 read 2279 at e = 17
        and -26056 at e = 27."""
        x = get_density("claw").sampler(0, 1000).values
        want = -0.38936813351227
        cuts = set()
        for e in (0, 10, 17, 20, 27):
            fit = essential_histogram(SortedSample(x + 2.0**e), 0.1, tables(1000))
            cuts.add(fit.cut_indices)
            assert histogram_skewness(fit) == pytest.approx(want, rel=1e-6), e
        assert len(cuts) == 1 and len(next(iter(cuts))) == 8

    def test_skewness_of_one_bin_far_from_zero(self):
        fit = HistogramModel([1e8, 1e8 + 1], [1.0], 1)
        assert histogram_skewness(fit) == pytest.approx(0.0, abs=1e-12)

    def test_skewness_without_spread_is_zero(self):
        """A bin too narrow for its squared width to be a float has no
        spread to divide by."""
        assert histogram_skewness(HistogramModel([0.0, 1e-200], [1e200], 1)) == 0.0

    def test_dp_symmetry(self, by_name):
        step = by_name["step"]
        fit = HistogramModel(np.array([0.0, 1.0]), np.array([1.0]), 2)
        for p in (0.1, 0.25, 0.4):
            d1 = standardized_mass_error(fit, step, p)
            d2 = standardized_mass_error(fit, step, 1 - p)
            assert d1 == pytest.approx(d2, abs=2e-3)


class TestProposition1:
    @pytest.mark.parametrize("k", [5, 9, 17])
    def test_inequality_holds(self, k):
        lhs, rhs = proposition1_check(k)
        assert lhs >= rhs
        p = 1.0 / (4.0 * k)
        assert lhs / rhs == pytest.approx(2.0 / math.sqrt(1.0 - p), rel=1e-12)

    def test_rejects_even_or_small(self):
        for k in (1, 2, 4):
            with pytest.raises(ValueError):
                proposition1_check(k)


class TestBenchmark:
    def test_rows_deterministic_and_complete(self, tables, by_name):
        t = tables(100)
        rows = benchmark_rows(
            by_name["uniform"], 100, 3, ["essential", "sturges"], [0.1], 7, table=t
        )
        rows2 = benchmark_rows(
            by_name["uniform"], 100, 3, ["essential", "sturges"], [0.1], 7, table=t
        )
        assert len(rows) == 6
        def norm(r):
            return {
                k: "nan" if isinstance(v, float) and math.isnan(v) else v
                for k, v in r.items()
                if k != "runtime_ms"
            }

        assert [norm(r) for r in rows] == [norm(r) for r in rows2]
        assert {r["method"] for r in rows} == {"essential", "sturges"}

    def test_requires_table_for_essential(self, by_name):
        with pytest.raises(ValueError):
            benchmark_rows(by_name["uniform"], 100, 1, ["essential"], [0.1], 0)

    def test_rejects_unknown_method_before_fitting(self, by_name, monkeypatch):
        monkeypatch.setattr(densities, "metrics", None)
        with pytest.raises(ValueError, match="unknown method 'fd'"):
            benchmark_rows(by_name["uniform"], 100, 2, ["sturges", "fd"], [0.1], 0)

    def test_rows_hold_every_metric(self, tables, by_name):
        """Each cell holds what its column names, checked by name against the
        run and a fresh ``metrics`` call, so swapped cells show."""
        claw = by_name["claw"]
        rows = benchmark_rows(
            claw, 300, 2, ["essential", "scott_area"], [0.1, 0.5], 3, table=tables(300)
        )
        methods = ["essential", "essential", "scott_area"]
        assert [r["method"] for r in rows] == methods * 2
        for r in rows:
            assert tuple(r) == BENCHMARK_COLUMNS
        ss = np.random.SeedSequence(entropy=3, spawn_key=(1,))
        sample = claw.sampler(int(ss.generate_state(1)[0]), 300)
        alphas = [0.1, 0.5, float("nan")]
        fits = [essential_histogram(sample, a, tables(300)) for a in alphas[:2]]
        fits.append(classical_histogram(sample, "scott_area"))
        for r, method, alpha, fit in zip(rows[3:], methods, alphas, fits):
            expected = {
                "density": "claw",
                "method": method,
                "alpha": alpha,
                "n": 300,
                "rep": 1,
                **metrics(fit, claw),
            }
            np.testing.assert_equal({k: r[k] for k in BENCHMARK_COLUMNS[:-1]}, expected)

    def test_one_quantile_grid_per_density(self, tables, monkeypatch):
        """The grid depends on the density alone, so a call builds it once
        however many rows it scores, and a later call reuses it."""
        built = []
        grid = densities._quantile_grid

        def counted(truth):
            built.append(truth.name)
            return grid(truth)

        monkeypatch.setattr(densities, "_quantile_grid", counted)
        claw, step = get_density("claw"), get_density("step")
        for density in (claw, step):  # built by an earlier test, if any
            monkeypatch.delitem(vars(density), "quantile_grid", raising=False)
        for density in (claw, step, claw):
            methods = ["essential", "sturges"]
            benchmark_rows(density, 100, 3, methods, [0.1, 0.5], 0, table=tables(100))
        assert built == ["claw", "step"]

    def test_essential_estimates_probabilities_better_than_sturges(self, tables):
        """The paper's first task on the step density: Sturges' 13 bins at
        n = 3000 are the odd count of Proposition 1, whose middle bin
        straddles the jump, while the fewest-bins fit places its break
        there."""
        step = get_density("step")
        for seed in range(5):
            sample = step.sampler(seed, 3000)
            essential = metrics(essential_histogram(sample, 0.1, tables(3000)), step)
            sturges = metrics(classical_histogram(sample, "sturges"), step)
            assert sturges["n_bins"] == 13
            assert essential["d_0.01"] < sturges["d_0.01"], seed
