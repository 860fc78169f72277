import os
from contextlib import contextmanager
from pathlib import Path

import pytest

TABLES_DIR = Path(__file__).resolve().parent.parent / "tables"
SEED = 20250823

os.environ.setdefault("MSHIST_CACHE_DIR", str(TABLES_DIR))


def committed_reps(n: int) -> int:
    """Replications of the committed table for n."""
    return 5000 if n in (500, 1000, 3000) else 2000


def table_for(n: int):
    """Committed calibration table for one of the pre-simulated sizes."""
    from mshist import simulate_quantiles, table_path

    reps = committed_reps(n)
    path = table_path(n, reps, SEED, TABLES_DIR)
    assert path.exists(), f"missing committed table {path}"
    return simulate_quantiles(n, reps=reps, seed=SEED, cache_dir=TABLES_DIR)


def kappa_table(n: int, kappa: float):
    """A table for n that serves ``kappa`` at every level of the grid."""
    from mshist.multiscale import DEFAULT_ALPHAS, QuantileTable

    return QuantileTable(n, (kappa,) * len(DEFAULT_ALPHAS), reps=100, seed=0)


@pytest.fixture(scope="session")
def tables():
    return table_for


@contextmanager
def level_block(entries: int):
    """``intervals.LEVEL_BLOCK`` set to ``entries`` inside the block;
    ``_extent``, which sizes the level buffer by it, is cleared on entry and
    on exit."""
    from mshist import intervals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "LEVEL_BLOCK", entries)
        intervals._extent.cache_clear()
        try:
            yield
        finally:
            intervals._extent.cache_clear()
