import os
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


@pytest.fixture(scope="session")
def tables():
    return table_for
