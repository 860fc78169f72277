"""Property tests over the input domain, each against an oracle in
``reference``.  Derandomized and with no example database, so a run is
reproducible and writes no file."""
import numpy as np
import pytest

from mshist.intervals import count_extremes

from conftest import level_block
from reference import count_extremes_reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
