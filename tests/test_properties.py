"""Property tests over the input domain, each against an oracle in
``reference``.  Derandomized and with no example database, so a run is
reproducible and writes no file."""
import warnings

import numpy as np
import pytest

from mshist import (SortedSample, audit, classical_histogram, essential_histogram,
                    significant_feature_intervals)
from mshist.intervals import count_extremes

from conftest import level_block, table_for
from reference import count_extremes_reference

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
