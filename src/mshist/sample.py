"""Sorted sample container: the sole data input of the library."""
from __future__ import annotations

import numpy as np


class DuplicateValuesError(ValueError):
    """Raised when a sample contains exact duplicates and jitter is off, or
    when its ties cannot be de-rounded: a single distinct value has no
    resolution, or a resolution below the values' float spacing cannot
    separate them."""


class SortedSample:
    """Immutable, strictly increasing sample of n >= 2 real values.

    Exact duplicates are rejected by default: the methods here assume a
    continuous underlying distribution, so ties are a data-quality signal.
    With ``jitter=True`` tied or rounded data are de-rounded: the resolution
    ``g`` is the smallest gap between adjacent distinct values, and the ``m``
    copies of a value ``v`` move to ``v + g*((i + 1/2)/m - 1/2)``, i = 0 ...
    m-1, spread evenly over the rounding cell of width ``g`` around ``v``.
    The result is deterministic, and untied values keep their place.
    """

    __slots__ = ("_values",)

    def __init__(self, values, *, jitter: bool = False):
        v = np.sort(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need a 1-d sample with at least 2 values")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        if np.any(np.diff(v) == 0.0):
            if not jitter:
                raise DuplicateValuesError(
                    "sample contains duplicate values; pass jitter=True to "
                    "de-round ties"
                )
            v = _deround(v)
        self._values = v
        self._values.flags.writeable = False

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def order_statistic(self, i: int) -> float:
        """X_(i), 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"order statistic index {i} out of range")
        return float(self._values[i - 1])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"SortedSample(n={self.n}, range=[{self._values[0]:g}, {self._values[-1]:g}])"


def _deround(v: np.ndarray) -> np.ndarray:
    """Spread each run of equal values in sorted ``v`` evenly over the
    rounding cell around it; see ``SortedSample``."""
    distinct, first, counts = np.unique(v, return_index=True, return_counts=True)
    if distinct.size < 2:
        raise DuplicateValuesError("a single distinct value has no resolution to de-round")
    g = np.min(np.diff(distinct))
    m = np.repeat(counts, counts)
    i = np.arange(v.size) - np.repeat(first, counts)
    out = v + g * ((i + 0.5) / m - 0.5)
    if np.any(np.diff(out) <= 0.0):
        raise DuplicateValuesError("ties too fine for the values' magnitude to separate")
    return out
