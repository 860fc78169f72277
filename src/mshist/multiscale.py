"""Penalized likelihood-ratio statistics over the interval system and the
Monte-Carlo calibration of their global quantile."""
from __future__ import annotations

import json
import operator
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .intervals import count_extremes, level_counts, levels
from .sample import SortedSample

DEFAULT_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
DEFAULT_REPS = 5000
#: fewest replications a table may be calibrated from
MIN_REPS = 100
TABLE_VERSION = 1
#: every sample size at or above this is served by one shared table
TABLE_N_CAP = 10_000
CACHE_ENV_VAR = "MSHIST_CACHE_DIR"


def as_integer(name: str, value) -> int:
    """``value`` as a Python int (``operator.index``), so a document holding
    it is JSON; a boolean or any other non-integer raises ValueError naming
    the field ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def log_likelihood_ratio(p_hat, p0, n):
    """n * [p_hat*log(p_hat/p0) + (1-p_hat)*log((1-p_hat)/(1-p0))].

    Nonnegative, zero iff p_hat == p0.  Total on p_hat in [0, 1] via the
    0*log(0) = 0 convention; p0 must lie strictly inside (0, 1).
    Vectorized over all arguments.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if np.any(p0 <= 0.0) or np.any(p0 >= 1.0):
        raise ValueError("hypothesized mass p0 must lie in (0, 1)")
    if np.any(p_hat < 0.0) or np.any(p_hat > 1.0):
        raise ValueError("empirical mass p_hat must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(p_hat > 0.0, p_hat * np.log(p_hat / p0), 0.0)
        t2 = np.where(p_hat < 1.0, (1.0 - p_hat) * np.log((1.0 - p_hat) / (1.0 - p0)), 0.0)
    out = np.maximum(n * (t1 + t2), 0.0)  # analytically >= 0; guard rounding
    return out if out.ndim else float(out)


def penalty(p_hat):
    """Scale penalty sqrt(2*log(e / (p*(1-p)))); symmetric about 1/2 where it
    is minimal.  Vectorized."""
    p = np.asarray(p_hat, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p_hat must lie in (0, 1)")
    out = np.sqrt(2.0 * (1.0 - np.log(p * (1.0 - p))))
    return out if out.ndim else float(out)


@lru_cache(maxsize=4)
def count_lattice(n: int):
    """``(p_hat, penalty)`` of every count of the system for sample size n,
    in the order of :func:`intervals.level_counts`: the statistic, the mass
    roots and the radii all read them here.  Cached for the last four n;
    arrays are read-only."""
    if not levels(n):
        raise ValueError(f"interval system empty for n={n}; sample too small")
    p_hat = level_counts(n) / n
    pen = penalty(p_hat)
    p_hat.flags.writeable = pen.flags.writeable = False
    return p_hat, pen


def multiscale_statistic(sample: SortedSample, *, cdf) -> float:
    """Global statistic: the maximum over the interval system of the
    penalized root-LR deviation between the true interval mass, given by the
    vectorized true ``cdf``, and the empirical one.

    All intervals of one count share the empirical mass and the penalty, and
    the root-LR is convex in the true mass with its minimum at the empirical
    one, so each count's maximum sits at its smallest or its largest true
    mass; only those two are evaluated.  They are the extremes of the cdf
    differences that :func:`intervals.count_extremes` reads off the level
    lattice, the same reading the fit's one-bin test takes of the widths.
    """
    n = sample.n
    p_hat, pen = count_lattice(n)
    values = np.asarray(cdf(sample.values), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("cdf returned non-finite values")
    # F(X_(k)) - F(X_(j)) is the true mass of (X_(j), X_(k)]
    ends = count_extremes(values)
    stat = np.sqrt(2.0 * log_likelihood_ratio(p_hat, ends, n)) - pen
    return float(stat.max())


def _replication_statistic(n: int, seed: int, rep: int) -> float:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    rng = np.random.Generator(np.random.Philox(ss))
    return multiscale_statistic(SortedSample(rng.random(n)), cdf=lambda v: v)


def simulate_statistics(n: int, reps: int, seed: int = 0) -> np.ndarray:
    """``reps`` independent draws of the global statistic for sample size n
    under the uniform law; the statistic is distribution-free, so these
    calibrate every continuous truth.

    Replication ``rep`` draws from its own counter-derived RNG stream, so a
    value depends only on (n, seed, rep).
    """
    return np.array([_replication_statistic(n, seed, r) for r in range(reps)])


@dataclass(frozen=True)
class QuantileTable:
    """Calibrated thresholds of the global statistic for one sample size.

    ``kappas[i]`` is the empirical (1 - DEFAULT_ALPHAS[i])-quantile over
    ``reps`` Monte-Carlo replications, finite and nonincreasing along that
    shared grid.  ``n``, ``reps`` and ``seed`` are held as Python ints.
    """

    n: int
    kappas: tuple[float, ...]
    reps: int
    seed: int

    def __post_init__(self):
        for key in ("n", "reps", "seed"):
            object.__setattr__(self, key, as_integer(key, getattr(self, key)))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        k = np.asarray(self.kappas, dtype=float)
        if not np.all(np.isfinite(k)):
            raise ValueError(f"kappas must be finite, got {list(self.kappas)}")
        if k.size != len(DEFAULT_ALPHAS) or np.any(np.diff(k) > 1e-12):
            raise ValueError("kappas must match DEFAULT_ALPHAS and be nonincreasing")

    def to_dict(self) -> dict:
        return {
            "version": TABLE_VERSION,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "alphas": list(DEFAULT_ALPHAS),
            "kappas": list(self.kappas),
        }

    @classmethod
    def from_dict(cls, d) -> "QuantileTable":
        """The table of a :meth:`to_dict` object: this format version and
        alpha grid, n, reps, seed and a list of kappas, which the table
        checks.  Anything else raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a table is a JSON object, got {type(d).__name__}")
        if type(d.get("version")) is not int or d["version"] != TABLE_VERSION:
            raise ValueError(
                f"table format version {d.get('version')!r}, expected {TABLE_VERSION}"
            )
        missing = [key for key in ("n", "reps", "seed", "alphas", "kappas") if key not in d]
        if missing:
            raise ValueError(f"a table needs the keys {missing}")
        if d["alphas"] != list(DEFAULT_ALPHAS):
            raise ValueError(f"alpha grid {d['alphas']!r}, expected {list(DEFAULT_ALPHAS)}")
        if not (isinstance(d["kappas"], list) and all(
                isinstance(k, (int, float)) and not isinstance(k, bool) for k in d["kappas"])):
            raise ValueError(f"kappas must be a list of numbers, got {d['kappas']!r}")
        return cls(n=d["n"], kappas=tuple(map(float, d["kappas"])), reps=d["reps"],
                   seed=d["seed"])


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mshist"


def table_path(n: int, reps: int, seed: int, cache_dir=None) -> Path:
    """Cache file of the table serving sample size n; sizes above the cap
    share the capped table."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    n_capped = min(n, TABLE_N_CAP)
    return cache_dir / f"kappa_v{TABLE_VERSION}_n{n_capped}_reps{reps}_seed{seed}.json"


def simulate_quantiles(
    n: int, reps: int = DEFAULT_REPS, seed: int = 0, *, cache_dir=None
) -> QuantileTable:
    """Calibrate thresholds for sample size n on the ``DEFAULT_ALPHAS`` grid.

    ``lookup_kappa`` serves a level between grid points from the next
    smaller grid level, whose threshold is at least as large.

    Sample sizes above the cap share one table, so above about n = 2e4 the
    shared thresholds are too small at every alpha measured: kappa(0.1) is
    1.237 at n = 1e4 but 1.291 at 8e4, and kappa(0.5) rises 0.652 -> 0.764,
    so there the level falls below 1 - alpha (ROADMAP item 1a).

    Tables are cached as write-once JSON files keyed by (capped n, reps,
    seed, format version): an existing file is returned as it is and never
    replaced, not even by a concurrent writer; a file holding a table of
    another (capped n, reps, seed) than its name keys is refused, naming the
    file, and kept.  A miss is announced as a WARNING on the ``mshist``
    logger before the replications run.  Too few replications or n < 9 (an
    empty interval system) raise ValueError first.
    """
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}")
    if not levels(n):
        raise ValueError(f"interval system empty for n={n}; cannot calibrate")
    path = table_path(n, reps, seed, cache_dir)
    n_capped = min(n, TABLE_N_CAP)
    if path.exists():
        table = load_table(path)
        if (table.n, table.reps, table.seed) != (n_capped, reps, seed):
            raise ValueError(
                f"{path}: holds the table for n={table.n}, reps={table.reps}, "
                f"seed={table.seed}, not n={n_capped}, reps={reps}, seed={seed}"
            )
        return table
    # imported here so that ``import mshist`` does not load logging
    import logging

    logging.getLogger("mshist").warning(
        f"no calibrated thresholds at {path}; "
        f"simulating now ({reps} replications) -- this can take a while"
    )
    t = simulate_statistics(n_capped, reps, seed)
    kappas = tuple(float(np.quantile(t, 1.0 - a)) for a in DEFAULT_ALPHAS)
    table = QuantileTable(n=n_capped, kappas=kappas, reps=reps, seed=seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(table.to_dict()))
        # unlike a rename, a hard link never replaces a file that
        # appeared since the check: of two first writers, the earlier
        # one's file stays
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)
    return table


def load_table(path) -> QuantileTable:
    """The table in the JSON file ``path``; a file that is not JSON, or that
    :meth:`QuantileTable.from_dict` refuses, raises ValueError naming it."""
    try:
        return QuantileTable.from_dict(json.loads(Path(path).read_text()))
    except ValueError as e:  # a JSON decoding error is one
        raise ValueError(f"{path}: {e}") from None


def lookup_kappa(table: QuantileTable | None, alpha: float, n: int) -> float | None:
    """Threshold for level alpha and sample size n, or None for a sample too
    small for the interval system (n < 9), whose ``table`` is not read.

    Alpha must lie in (0, 1) whatever n is; nan does not.  Sizes above the
    cap are served by the capped table; the table's own n must match the
    capped request, and a missing table is an error.  Alpha is served by the
    largest grid level at or below it, not interpolated: that level's
    threshold is at least as large, so rounding never makes the confidence
    set smaller.  Alpha below the grid is an error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not levels(n):
        return None
    n_capped = min(n, TABLE_N_CAP)
    if table is None:
        raise ValueError(f"a calibrated kappa table is needed for n={n}, got None")
    if table.n != n_capped:
        raise ValueError(
            f"table was simulated for n={table.n}, but the request needs n={n_capped}"
        )
    i = bisect_right(DEFAULT_ALPHAS, alpha) - 1
    if i < 0:
        raise ValueError(
            f"alpha={alpha} is below the grid, which starts at {DEFAULT_ALPHAS[0]}"
        )
    return float(table.kappas[i])
