"""The sole data input of the library: a sorted sample in scale, ties
de-rounded or rejected."""
from __future__ import annotations

import math

import numpy as np


class DuplicateValuesError(ValueError):
    """Raised when a sample's ties cannot be de-rounded: they are not
    rounding, a single distinct value has no resolution, or a resolution
    below the values' float spacing cannot separate them."""


class SortedSample:
    """Immutable, strictly increasing sample of n >= 2 real values.

    The methods here assume a continuous underlying distribution, so ties
    must be rounding, and are de-rounded: the resolution ``g`` is the
    smallest gap between adjacent distinct values, every such gap must be a
    whole multiple of ``g`` up to float error, and the ``m`` copies of a
    value ``v`` move to ``v + g*((i + 1/2)/m - 1/2)``, i = 0 ... m-1, spread
    evenly over the rounding cell around ``v``.  The result is
    deterministic, untied values keep their place, and a de-rounded sample
    logs one WARNING on the ``mshist`` logger naming ``g`` and the number
    of tied values.  Any other tie raises ``DuplicateValuesError``.

    The sample, de-rounded, must be in scale, or ValueError is raised, so
    the fit, the feature search, the audit and the classical rules never
    meet one that is not.  Every width they divide by lies between the
    least gap g between neighbours (a count c's interval spans at least
    c*g) and the span X_(n) - X_(1): a block's density is its count over n
    times its width, at most 1/(n*g), and a band's bound is a mass bound
    over a width, at most the mass over c*g.  So the range is where
    n*(X_(n) - X_(1)) and 1/g are finite; outside it products and quotients
    overflow, and the results would change with only a RuntimeWarning to
    show for it.  A raw span already out of scale is refused before any
    de-rounding, which only moves tied extremes outward.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        v = np.sort(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need a 1-d sample with at least 2 values")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        # Python floats overflow to inf with no warning
        spread = v.size * (float(v[-1]) - float(v[0]))
        # what overflows here leaves an inf or nan that the guard refuses
        with np.errstate(over="ignore", invalid="ignore"):
            # the values are sorted, so the least gap is 0 only on a tie; a
            # spread out of scale stays so, as de-rounding moves ties outward
            gap = float(np.min(np.diff(v)))
            if gap == 0.0 and math.isfinite(spread):
                v = _deround(v)
                spread = v.size * (float(v[-1]) - float(v[0]))
                gap = float(np.min(np.diff(v)))
        if not (math.isfinite(spread) and math.isfinite(1.0 / gap)):
            top = np.finfo(float).max
            raise ValueError(
                f"sample scale out of range: need n*(X_(n) - X_(1)) <= {top:.4g} and "
                f"every gap between neighbours >= {1.0 / top:.4g}, got {spread:.4g} "
                f"and a least gap of {gap:.4g}; rescale the data"
            )
        self._values = v
        self._values.flags.writeable = False

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"SortedSample(n={self.n}, range=[{self._values[0]:g}, {self._values[-1]:g}])"


def _deround(v: np.ndarray) -> np.ndarray:
    """De-round sorted ``v`` as ``SortedSample`` describes."""
    distinct, first, counts = np.unique(v, return_index=True, return_counts=True)
    if distinct.size < 2:
        raise DuplicateValuesError("a single distinct value has no resolution to de-round")
    gaps = np.diff(distinct)
    g = np.min(gaps)
    r = gaps / g
    # rounded values are whole multiples of g apart, up to the float error of
    # their differences; 4 is a safety factor over the largest error measured
    tol = 4 * (1 + r) * np.spacing(np.max(np.abs(distinct))) / g
    if np.any(np.abs(r - np.rint(r)) > tol):
        tied = [f"{float(x)!r} ({c} times)" for x, c in zip(distinct, counts) if c > 1]
        raise DuplicateValuesError(
            f"repeated values {', '.join(tied[:5])}: the distinct values do not "
            "lie on a rounding grid, so the ties are not rounding"
        )
    m = np.repeat(counts, counts)
    i = np.arange(v.size) - np.repeat(first, counts)
    out = v + g * ((i + 0.5) / m - 0.5)
    if np.any(np.diff(out) <= 0.0):
        raise DuplicateValuesError("ties too fine for the values' magnitude to separate")
    import logging  # only here, so that untied samples do not load it

    logging.getLogger("mshist").warning(
        f"de-rounded {np.count_nonzero(m > 1)} tied values of {v.size} "
        f"on a rounding grid of resolution g={g:g}"
    )
    return out
