import json

import numpy as np
import pytest

from mshist.bounds import constraint_table, in_band
from mshist.densities import classical_histogram, get_density
from mshist.dp import HistogramModel, essential_histogram
from mshist.evaluate import (
    AuditReport,
    audit,
    removable_changepoints,
    violation_intervals,
)
from mshist.intervals import IntervalSpec
from mshist.io import audit_document, histogram_document, histogram_from_document
from mshist.multiscale import lookup_kappa
from mshist.sample import SortedSample

from reference import (
    build_interval_system,
    mass_roots,
    removable_reference,
    violation_reference,
    widen,
)


def single_bin(sample):
    x = sample.values
    return HistogramModel(
        breaks=np.array([x[0], x[-1]]),
        heights=np.array([1.0 / (x[-1] - x[0])]),
        n=sample.n,
        counts=np.array([sample.n]),
    )


def halves(sample):
    x = sample.values
    n = sample.n
    mid = n // 2
    return HistogramModel(
        breaks=np.array([x[0], x[mid - 1], x[-1]]),
        heights=np.array(
            [mid / (n * (x[mid - 1] - x[0])), (n - mid) / (n * (x[-1] - x[mid - 1]))]
        ),
        n=n,
        counts=np.array([mid, n - mid]),
    )


class TestViolations:
    def test_self_audit_is_clean(self, tables):
        cases = [(0, "uniform", 300), (1, "claw", 300), (2, "exponential", 300),
                 (0, "claw", 3000), (1, "harp", 3000)]
        for seed, density, n in cases:
            sample = get_density(density).sampler(seed, n)
            fit = essential_histogram(sample, 0.1, tables(n))
            report = audit(sample, fit, 0.1, tables(n))
            assert report.clean, (density, n)

    def test_single_bin_on_bimodal_fails(self, tables):
        sample = get_density("bimodal").sampler(7, 500)
        v = violation_intervals(sample, single_bin(sample), 0.1, tables(500))
        assert v

    def test_flagged_intervals_reverify(self, tables):
        sample = get_density("bimodal").sampler(7, 500)
        est = single_bin(sample)
        kappa = lookup_kappa(tables(500), 0.1, 500)
        mu = float(est.heights[0])
        v = violation_intervals(sample, est, 0.1, tables(500))
        flagged = {(iv.j, iv.k) for iv in v}
        x = sample.values
        roots = {}  # the reference band of an interval depends on its count only
        for iv in build_interval_system(500):
            if iv.count not in roots:
                roots[iv.count] = mass_roots(iv.count / 500, kappa, 500)
            lo, hi = roots[iv.count]
            width = x[iv.k - 1] - x[iv.j - 1]
            band = widen(lo / width, hi / width)
            assert ((iv.j, iv.k) in flagged) == (not in_band(mu, *band))

    def test_zero_height_piece_with_mass_is_flagged(self, tables):
        # estimator support misses the sample's right half entirely
        sample = get_density("uniform").sampler(1, 300)
        x = sample.values
        est = HistogramModel(
            breaks=np.array([x[0], 0.5]),
            heights=np.array([1.0 / (0.5 - x[0])]),
            n=300,
        )
        v = violation_intervals(sample, est, 0.1, tables(300))
        right_tail = [iv for iv in v if x[iv.j - 1] >= 0.5]
        assert right_tail

    def test_monotone_in_alpha(self, tables):
        sample = get_density("bimodal").sampler(3, 500)
        est = single_bin(sample)
        prev = set()
        for alpha in (0.05, 0.1, 0.3, 0.5, 0.9):
            cur = {
                (iv.j, iv.k)
                for iv in violation_intervals(sample, est, alpha, tables(500))
            }
            assert prev <= cur
            prev = cur

    def test_deterministic(self, tables):
        sample = get_density("claw").sampler(5, 300)
        est = halves(sample)
        a = audit(sample, est, 0.1, tables(300))
        b = audit(sample, est, 0.1, tables(300))
        assert a.violations == b.violations and a.removable == b.removable


class TestAudit:
    def test_one_band_table_per_audit(self, tables, monkeypatch):
        from mshist import evaluate

        sample = get_density("claw").sampler(11, 500)
        table = tables(500)
        estimators = [essential_histogram(sample, 0.1, table)] + [
            classical_histogram(sample, rule)
            for rule in ("sturges", "scott_width", "scott_area")
        ]
        halves_of = [
            (
                violation_intervals(sample, est, 0.1, table),
                removable_changepoints(sample, est, 0.1, table),
            )
            for est in estimators
        ]
        calls = []

        def counting(*args):
            calls.append(args)
            return constraint_table(*args)

        monkeypatch.setattr(evaluate, "constraint_table", counting)
        for est, (violations, removable) in zip(estimators, halves_of):
            before = len(calls)
            report = audit(sample, est, 0.1, table)
            assert len(calls) == before + 1
            assert report.violations == violations
            assert report.removable == removable
            assert report.kappa == lookup_kappa(table, 0.1, 500)
        assert any(v or r for v, r in halves_of)

    def test_small_sample_reads_no_table(self):
        """Below the interval system's threshold the audit, like the fit and
        the two halves, returns without a table: kappa is None, JSON null."""
        sample = SortedSample(np.linspace(0.0, 1.0, 7))
        est = halves(sample)
        report = audit(sample, est, 0.1, None)
        assert report == AuditReport(
            violations=[], removable=(), alpha=0.1, kappa=None
        )
        assert violation_intervals(sample, est, 0.1, None) == []
        assert removable_changepoints(sample, est, 0.1, None) == ()
        doc = json.loads(json.dumps(audit_document(report, sample)))
        assert doc["kappa"] is None and doc["clean"] is True

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, float("nan"), -1.0])
    def test_alpha_outside_unit_interval_raises(self, tables, alpha):
        """Also where the system is empty and no table is read."""
        for sample, table in ((SortedSample([0.1, 0.4, 0.6, 0.9]), None),
                              (get_density("claw").sampler(3, 300), tables(300))):
            est = halves(sample)
            for call in (audit, violation_intervals, removable_changepoints):
                with pytest.raises(ValueError, match="alpha must lie in"):
                    call(sample, est, alpha, table)
            with pytest.raises(ValueError, match="alpha must lie in"):
                essential_histogram(sample, alpha, table)

    def test_report_holds_python_ints(self, tables):
        """The audit document writes the report's indices to JSON as they
        are; an item read by index, from either end or from a slice, holds
        Python ints as iteration's do."""
        sample = get_density("bimodal").sampler(7, 500)
        est = classical_histogram(sample, "scott_area")
        report = audit(sample, est, 0.1, tables(500))
        assert report.violations and report.removable
        got = report.violations
        read = [got[0], got[-1], got[len(got) // 2], *got[1:3]]
        for v in [*got, *read]:
            assert {type(v.j), type(v.k), type(v.scale)} == {int}
        assert {type(x) for pair in report.removable for x in pair} == {int}
        json.dumps(audit_document(report, sample))

    def test_violations_are_read_only(self, tables):
        """The flagged rows are read-only columns, so a report's violations
        cannot change after the audit."""
        sample = get_density("bimodal").sampler(7, 500)
        report = audit(sample, single_bin(sample), 0.1, tables(500))
        assert not report.clean
        for col in (report.violations.j, report.violations.k, report.violations.scale):
            with pytest.raises(ValueError):
                col[0] = 1
        assert not hasattr(report.violations, "append")

    def test_removable_is_read_only(self, tables):
        """The removable pairs are a tuple, so a clean report stays clean."""
        sample = get_density("uniform").sampler(0, 500)
        fit = essential_histogram(sample, 0.1, tables(500))
        report = audit(sample, fit, 0.1, tables(500))
        assert report.clean and not report.removable
        with pytest.raises(AttributeError):
            report.removable.append((1, 1))
        assert report.clean and report.removable == ()

    def test_audit_builds_no_interval_object(self, tables, monkeypatch):
        """The audit, its violation half, the report's length and ``clean``
        and the document read the flagged rows as index columns; iterating
        them builds one ``IntervalSpec`` per row."""
        sample = get_density("harp").sampler(0, 3000)
        est = classical_histogram(sample, "sturges")
        built = []
        init = IntervalSpec.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntervalSpec, "__init__", counting)
        report = audit(sample, est, 0.1, tables(3000))
        flagged = violation_intervals(sample, est, 0.1, tables(3000))
        rows = len(report.violations)
        assert rows > 1000 and not report.clean and len(flagged) == rows
        doc = audit_document(report, sample)
        assert len(doc["violations"]) == rows
        assert built == []
        assert sum(1 for _ in report.violations) == rows
        assert len(built) == rows


def histogram_on(sample, breaks, zero=None):
    """Histogram on ``breaks`` with the sample's relative counts as heights,
    the piece ``zero`` at height 0."""
    counts = np.histogram(sample.values, breaks)[0].astype(float)
    if zero is not None:
        counts[zero] = 0.0
    return HistogramModel(breaks, counts / np.sum(counts) / np.diff(breaks), sample.n)


class TestViolationsMatchReference:
    @pytest.mark.parametrize("density", ["claw", "uniform"])
    @pytest.mark.parametrize("n", [300, 500])
    def test_estimators(self, tables, density, n):
        sample = get_density(density).sampler(17, n)
        x = sample.values
        span = x[-1] - x[0]
        idx = np.linspace(n // 10, n - n // 10, 9).astype(int)
        quartiles = x[[0, n // 4, n // 2, 3 * n // 4, n - 1]]
        synthetic = [
            histogram_on(sample, 0.5 * (x[idx - 1] + x[idx])),  # inside, off x
            histogram_on(sample, np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span, 9)),
            histogram_on(sample, np.append(x[::7], x[-1])),
            histogram_on(sample, quartiles, zero=2),
        ]
        rules = [
            classical_histogram(sample, r) for r in ("sturges", "scott_width", "scott_area")
        ]
        flagged = 0
        for alpha in (0.1, 0.5):
            fit = essential_histogram(sample, alpha, tables(n))
            for est in [fit] + rules + synthetic:
                got = violation_intervals(sample, est, alpha, tables(n))
                assert got == violation_reference(sample, est, alpha, tables(n))
                flagged += len(got)
        assert flagged


class TestRemovable:
    def test_uniform_two_bin_changepoint_removable(self, tables):
        sample = get_density("uniform").sampler(2, 500)
        rem = removable_changepoints(sample, halves(sample), 0.1, tables(500))
        assert rem == ((1, 1),)

    def test_single_bin_has_none(self, tables):
        sample = get_density("uniform").sampler(2, 300)
        assert removable_changepoints(sample, single_bin(sample), 0.1, tables(300)) == ()

    def test_single_bin_reads_the_table(self, tables):
        """A one-bin estimator takes the merge test audit() takes, so a
        table for another n is an error here as it is there."""
        sample = get_density("uniform").sampler(2, 300)
        est = single_bin(sample)
        for call in (audit, removable_changepoints):
            with pytest.raises(ValueError, match="simulated for n=500"):
                call(sample, est, 0.1, tables(500))

    def test_essential_fit_has_none(self, tables):
        cases = [(seed, "claw", 500) for seed in range(5)]
        cases += [(0, "claw", 3000), (1, "harp", 3000)]
        for seed, density, n in cases:
            sample = get_density(density).sampler(seed, n)
            fit = essential_histogram(sample, 0.1, tables(n))
            assert removable_changepoints(sample, fit, 0.1, tables(n)) == (), (density, n)

    def test_multiplicity_counts_covering_merges(self, tables):
        # four equal bins on uniform data: every contiguous merge is feasible
        sample = get_density("uniform").sampler(4, 500)
        x = sample.values
        q = [x[0], x[124], x[249], x[374], x[-1]]
        counts = np.array([125, 125, 125, 125])
        est = HistogramModel(
            breaks=np.array(q),
            heights=counts / (500 * np.diff(q)),
            n=500,
            counts=counts,
        )
        rem = removable_changepoints(sample, est, 0.1, tables(500))
        assert [cp for cp, _ in rem] == [1, 2, 3]
        # change-point 2 is covered by merges (1,2),(2,3),(1,3),(0..),...
        mult = dict(rem)
        assert mult[2] >= mult[1] - 1  # central points covered at least as much
        assert all(m >= 1 for m in mult.values())


def random_histograms(sample, rng, count):
    """Histograms with breaks at sample points, between them, or reaching
    past the data on both sides; half carry counts that are not the
    sample's."""
    x = sample.values
    span = x[-1] - x[0]
    out = []
    for r in range(count):
        nb = int(rng.integers(2, 20))
        kind = r % 3
        if kind == 0:
            breaks = rng.choice(x, nb + 1, replace=False)
        elif kind == 1:
            idx = rng.choice(np.arange(1, x.size), nb + 1, replace=False)
            breaks = 0.5 * (x[idx - 1] + x[idx])
        else:
            inner = rng.uniform(x[0], x[-1], nb - 1)
            pad = rng.uniform(0.0, 0.1, 2) * span
            breaks = np.concatenate((inner, [x[0] - pad[0], x[-1] + pad[1]]))
        breaks = np.unique(breaks)
        heights = rng.random(breaks.size - 1) + 0.01
        heights /= np.sum(heights * np.diff(breaks))
        counts = rng.integers(0, 60, breaks.size - 1) if r % 2 else None
        out.append(HistogramModel(breaks, heights, sample.n, counts))
    return out


class TestRemovableMatchesReference:
    @pytest.mark.parametrize("density", ["claw", "harp", "uniform"])
    @pytest.mark.parametrize("n", [300, 500])
    def test_fits_and_classical_rules(self, tables, density, n):
        sample = get_density(density).sampler(11, n)
        rules = [
            classical_histogram(sample, r) for r in ("sturges", "scott_width", "scott_area")
        ]
        other = get_density(density).sampler(12, n)
        for alpha in (0.1, 0.5, 0.9):
            fits = [essential_histogram(s, alpha, tables(n)) for s in (sample, other)]
            for est in fits + rules:
                got = removable_changepoints(sample, est, alpha, tables(n))
                assert got == removable_reference(sample, est, alpha, tables(n))

    @pytest.mark.parametrize("density", ["claw", "harp", "uniform"])
    def test_random_histograms(self, tables, density):
        rng = np.random.default_rng(5)
        for n in (300, 500):
            sample = get_density(density).sampler(13, n)
            for est in random_histograms(sample, rng, 12):
                alpha = float(rng.choice([0.1, 0.5, 0.9]))
                got = removable_changepoints(sample, est, alpha, tables(n))
                assert got == removable_reference(sample, est, alpha, tables(n))

    def test_counts_do_not_change_the_merge_test(self, tables):
        # a fit to one sample, audited against another: its document's counts
        # are the fitted sample's, and the audit counts the audited one
        table = tables(500)
        claw = get_density("claw")
        cases = ((5, ((4, 1),)), (7, ((5, 1), (6, 1))), (3, ((4, 1), (7, 1))))
        for fit_seed, expect in cases:
            fit = essential_histogram(claw.sampler(fit_seed, 500), 0.5, table)
            sample = claw.sampler(fit_seed + 1, 500)
            doc = histogram_from_document(histogram_document(fit))
            bare = HistogramModel(fit.breaks, fit.heights, 500)
            assert doc.counts is not None
            assert removable_changepoints(sample, doc, 0.5, table) == expect
            assert removable_changepoints(sample, bare, 0.5, table) == expect
