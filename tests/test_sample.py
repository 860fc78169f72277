import numpy as np
import pytest

from mshist.densities import catalog
from mshist.dp import essential_histogram
from mshist.sample import DuplicateValuesError, SortedSample


def test_sorts_input():
    s = SortedSample([3.0, 1.0, 2.0])
    assert s.values.tolist() == [1.0, 2.0, 3.0]


def test_rejects_small_and_nonfinite():
    with pytest.raises(ValueError):
        SortedSample([1.0])
    with pytest.raises(ValueError):
        SortedSample([1.0, np.nan])
    with pytest.raises(ValueError):
        SortedSample([1.0, np.inf])
    with pytest.raises(ValueError):
        SortedSample([[1.0, 2.0]])


def test_rejects_duplicates_by_default():
    with pytest.raises(DuplicateValuesError):
        SortedSample([1.0, 2.0, 2.0, 3.0])


def test_jitter_separates_ties_deterministically():
    vals = [1.0, 2.0, 2.0, 2.0, 3.0]
    a = SortedSample(vals, jitter=True)
    b = SortedSample(vals, jitter=True)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) > 0)
    # resolution 1: the three copies of 2 spread evenly over (1.5, 2.5)
    assert np.allclose(a.values, [1.0, 5 / 3, 2.0, 7 / 3, 3.0], rtol=0, atol=1e-15)


def test_ties_without_a_resolution_raise():
    with pytest.raises(DuplicateValuesError, match="single distinct value"):
        SortedSample([2.0, 2.0, 2.0], jitter=True)
    x = 1e9  # a resolution of one ulp leaves no room between the copies
    with pytest.raises(DuplicateValuesError, match="too fine"):
        SortedSample([x, x, np.nextafter(x, np.inf)], jitter=True)


def _rounded_normal(n):
    return np.round(np.random.default_rng(0).normal(0.0, 10.0, n))


def test_derounding_separates_large_rounded_samples():
    x = _rounded_normal(30000)
    s = SortedSample(x, jitter=True)
    assert np.all(np.diff(s.values) > 0)
    # every value stays inside its rounding cell
    assert np.max(np.abs(s.values - np.sort(x))) < 0.5


@pytest.mark.parametrize("shift", [0.0, 1e9])
def test_derounded_fit_has_the_unrounded_bin_count(tables, shift):
    table = tables(1000)
    raw = SortedSample(np.random.default_rng(0).normal(0.0, 10.0, 1000))
    tied = SortedSample(_rounded_normal(1000) + shift, jitter=True)
    bins = essential_histogram(tied, 0.1, table).nbins
    assert bins == essential_histogram(raw, 0.1, table).nbins == 5


def test_derounded_catalog_fits_track_the_unrounded_ones(tables):
    """Each catalog density rounded to s/20 (s the sample sd, or IQR/1.349
    for the Cauchy): de-rounding never adds more than one bin, and stays
    within one bin everywhere but on the claw, whose 0.1-sd spikes the
    rounding erases."""
    table = tables(1000)
    for d in catalog():
        diffs = []
        for seed in range(20):
            v = d.sampler(seed, 1000).values
            if d.name == "cauchy":
                s = np.subtract(*np.percentile(v, [75, 25])) / 1.349
            else:
                s = v.std()
            h = s / 20
            tied = SortedSample(np.round(v / h) * h, jitter=True)
            diffs.append(
                essential_histogram(tied, 0.1, table).nbins
                - essential_histogram(SortedSample(v), 0.1, table).nbins
            )
        assert max(diffs) <= 1, d.name
        if d.name != "claw":
            assert min(diffs) >= -1, d.name


@pytest.mark.parametrize("n", [1000, 100_000])
def test_repeated_records_are_not_rounding(n):
    """Unrounded values with one value repeated: the smallest gap is a random
    spacing, not a rounding cell, so de-rounding would fit a spike (7 bins,
    one of height 2.1e4, at n = 1000 with 20 repeats).  Such ties raise,
    naming the repeated value and its count."""
    for k in (2, 5, 10, 20):
        y = np.random.default_rng(0).normal(0.0, 1.0, n)
        y[1 : k + 1] = y[0]
        with pytest.raises(DuplicateValuesError, match="rounding grid") as err:
            SortedSample(y, jitter=True)
        assert f"{float(y[0])!r} ({k + 1} times)" in str(err.value)


def test_order_statistic_one_based():
    s = SortedSample([5.0, 1.0, 3.0])
    assert s.order_statistic(1) == 1.0
    assert s.order_statistic(3) == 5.0
    with pytest.raises(IndexError):
        s.order_statistic(0)
    with pytest.raises(IndexError):
        s.order_statistic(4)


def test_values_immutable():
    s = SortedSample([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 0.0


def test_len_and_repr():
    s = SortedSample([1.0, 2.0, 4.0])
    assert len(s) == 3
    assert "n=3" in repr(s)
