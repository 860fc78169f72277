"""Property tests over the input domain, each against an oracle in
``reference``.  Derandomized and with no example database, so a run is
reproducible and leaves no file behind."""
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from mshist import (SortedSample, audit, classical_histogram, essential_histogram,
                    lower_bound_modes, significant_feature_intervals)
from mshist.densities import CLASSICAL_RULES
from mshist.dp import _backtrack, _bellman_pruned
from mshist.intervals import count_extremes
from mshist.io import (feature_document, histogram_document, histogram_from_document,
                       write_json)

from conftest import kappa_table, level_block, table_for
from reference import (_bellman_unpruned, count_extremes_reference, feature_intervals_tree,
                       read_features, removable_reference, violation_reference)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SHAPES = ("gapped", "clustered", "grid", "exponential")


def shaped_sample(shape: str, n: int, seed: int) -> np.ndarray:
    """n ascending values of one shape: unit stretches 1000 apart, tight
    normal clusters, a coarse grid (so with ties), or exponential."""
    rng = np.random.default_rng(seed)
    if shape == "gapped":
        x = rng.uniform(size=n) + 1e3 * rng.integers(0, 4, size=n)
    elif shape == "clustered":
        x = rng.integers(0, 5, size=n) + rng.normal(scale=1e-6, size=n)
    elif shape == "grid":
        x = 0.25 * rng.integers(0, max(2, n // 10), size=n)
    else:
        x = rng.exponential(size=n)
    return np.sort(x)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    n=st.integers(9, 3000),
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    entries=st.integers(1, 2**16),
)
def test_count_extremes_are_the_brute_force_extremes(n, shape, seed, entries):
    """Under any block budget, the lattice walk's per-count extremes are
    the least and the largest width over the system's index arrays."""
    x = shaped_sample(shape, n, seed)
    with level_block(entries):
        got = count_extremes(x)
    assert np.array_equal(got, count_extremes_reference(x))


def _analysis(sample: SortedSample, table):
    """The fit's cut indices, the features' (direction, witnesses) and the
    audit of the Sturges histogram, at alpha = 0.1."""
    report = audit(sample, classical_histogram(sample, "sturges"), 0.1, table)
    return (
        essential_histogram(sample, 0.1, table).cut_indices,
        [(f.direction, f.witnesses) for f in significant_feature_intervals(sample, 0.1, table)],
        (report.violations, report.removable),
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    n=st.sampled_from((20, 50, 60, 100, 150, 200)),
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    # each edge of the scale range is drawn as often as the whole range
    e=st.integers(-1100, 1100) | st.integers(-1060, -990) | st.integers(990, 1030),
)
def test_rescaled_analysis_is_exact_or_refused(n, shape, seed, e):
    """Under x -> 2**e * x the sample is refused when built, with the scale
    error, or the fit, the features and the audit read as they do for x,
    with no warning.  Only an exact 2**e * x, with no value rounded to zero,
    to a subnormal or to inf, is a rescaled copy of x."""
    x = shaped_sample(shape, n, seed)
    with np.errstate(over="ignore"):
        y = np.ldexp(x, e)
        assume(np.array_equal(np.ldexp(y, -e), x))
    table = table_for(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _analysis(SortedSample(x), table)
        try:
            sample = SortedSample(y)
        except ValueError as err:
            assert str(err).startswith("sample scale out of range"), err
            return
        assert _analysis(sample, table) == want


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    n=st.sampled_from((20, 50, 60, 100, 150, 200)),
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_documents_round_trip(n, shape, seed):
    """The essential fit and the three classical histograms come back equal,
    cut indices included, from their documents through JSON text, and the
    features from their document's file.  The essential fit has one bin per
    block, even where ties give neighbours one height, and audits clean."""
    sample = SortedSample(shaped_sample(shape, n, seed))
    table = table_for(n)
    fit = essential_histogram(sample, 0.1, table)
    assert fit.nbins == len(fit.cut_indices) - 1
    assert np.array_equal(fit.counts, np.diff(fit.cut_indices))
    assert audit(sample, fit, 0.1, table).clean
    fits = [fit] + [classical_histogram(sample, rule) for rule in CLASSICAL_RULES]
    for fit in fits:
        back = histogram_from_document(json.loads(json.dumps(histogram_document(fit, 0.1))))
        assert back == fit and back.cut_indices == fit.cut_indices
    feats = significant_feature_intervals(sample, 0.1, table)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.json"
        write_json(feature_document(feats, 0.1, lower_bound_modes(feats)), path)
        assert read_features(path) == feats


#: thresholds of the differential properties: a negative one narrows every
#: band, and all lie above -2.185, minus the least penalty, so no band is empty
KAPPAS = (-1.0, 0.4, 1.2, 2.0)

differential = settings(derandomize=True, database=None, max_examples=300, deadline=None)
small_samples = dict(
    n=st.integers(9, 200),
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    kappa=st.sampled_from(KAPPAS),
)


@differential
@given(**small_samples)
def test_pruned_solver_is_the_plain_recursion(n, shape, seed, kappa):
    """At node n the pruned rounds and the recursion over all predecessors
    agree on the cut indices, the fewest blocks and the cost, bit for bit."""
    sample = SortedSample(shaped_sample(shape, n, seed))
    V, pred = _bellman_pruned(sample, kappa)
    K_ref, V_ref, pred_ref = _bellman_unpruned(sample, kappa)
    cuts = _backtrack(pred, n)
    assert cuts == _backtrack(pred_ref, n)
    assert (len(cuts) - 1, V[n]) == (K_ref[n], V_ref[n])


@differential
@given(**small_samples)
def test_feature_scan_is_the_tree_search(n, shape, seed, kappa):
    """The forward scan certifies the hulls of the Fenwick tree search, with
    its directions, margins and witnesses."""
    sample = SortedSample(shaped_sample(shape, n, seed))
    table = kappa_table(n, kappa)
    assert significant_feature_intervals(sample, 0.1, table) == feature_intervals_tree(
        sample, 0.1, table)


@differential
@given(**small_samples)
def test_audit_is_the_reference_audit(n, shape, seed, kappa):
    """The audit of the essential fit and of the three classical histograms
    flags the intervals and the removable breaks of the reference's one
    interval and one window at a time; the essential fit audits clean."""
    sample = SortedSample(shaped_sample(shape, n, seed))
    table = kappa_table(n, kappa)
    fits = [essential_histogram(sample, 0.1, table)]
    fits += [classical_histogram(sample, rule) for rule in CLASSICAL_RULES]
    reports = [audit(sample, est, 0.1, table) for est in fits]
    for est, report in zip(fits, reports):
        assert report.violations == violation_reference(sample, est, 0.1, table)
        assert report.removable == removable_reference(sample, est, 0.1, table)
    assert reports[0].clean
