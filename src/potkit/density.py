"""Mass-density and dimension diagnostics.

Upper d-density profiles track r**(-d) * mu(B_r(x)) down a geometric
radius ladder and extrapolate the trailing trend; box-counting dimension
comes from covering counts of a parametric set over a scale ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .fitting import loglog_slope
from .grid import EvaluationGrid, _as_vec
from .measures import Measure
from .sets import ParametricSet

MIN_LADDER_RUNGS = 10
# trailing log-log slope below this means growth as r -> 0
GROWTH_SLOPE = -0.05

__all__ = [
    "MIN_LADDER_RUNGS",
    "DensityProfile",
    "geometric_ladder",
    "upper_density",
    "covering_counts",
    "box_counting_dimension",
]


@dataclass(frozen=True)
class DensityProfile:
    """Samples of r**(-d) * mu(B_r(x)) on a decreasing radius ladder and
    the estimated limsup as r -> 0 (math.inf when the trailing trend
    grows without bound)."""

    x: tuple
    d: float
    samples: tuple
    limsup_estimate: float

    def radii(self) -> np.ndarray:
        return np.array([r for r, _ in self.samples])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])


def geometric_ladder(r_max: float, r_min: float, rungs: int) -> np.ndarray:
    """Strictly decreasing geometric ladder from r_max down to r_min."""
    if not (0 < r_min < r_max and rungs >= 2):
        raise HypothesisViolation("ladder needs 0 < r_min < r_max and >= 2 rungs")
    return np.geomspace(r_max, r_min, rungs)


def _check_ladder(r_ladder) -> np.ndarray:
    r = np.asarray(r_ladder, dtype=float)
    if r.ndim != 1 or r.size < MIN_LADDER_RUNGS:
        raise HypothesisViolation(
            f"radius ladder needs at least {MIN_LADDER_RUNGS} rungs")
    if np.any(r <= 0) or np.any(np.diff(r) >= 0):
        raise HypothesisViolation("radius ladder must be positive and strictly decreasing")
    q = r[1:] / r[:-1]
    if np.max(np.abs(q - q[0])) > 1e-6 * q[0]:
        raise HypothesisViolation("radius ladder must be geometric")
    return r


def upper_density(mu: Measure, x, d: float, r_ladder) -> DensityProfile:
    """Evaluates r**(-d) * mu(B_r(x)) down the ladder; the limsup
    estimate is the trailing-window maximum, promoted to math.inf when
    the power trend of the trailing half still grows as r -> 0."""
    x = _as_vec(x, mu.dim)
    if not 0.0 <= d <= mu.dim:
        raise HypothesisViolation("density order d must lie in [0, n]")
    r = _check_ladder(r_ladder)
    vals = mu.ball_mass(x, r) / r ** d
    tail = max(4, r.size // 2)
    rt, vt = r[-tail:], vals[-tail:]
    if np.all(vt == 0.0):
        estimate = 0.0
    else:
        pos = vt > 0
        if pos.sum() >= 2:
            slope, _, _ = loglog_slope(rt[pos], vt[pos])
            estimate = math.inf if slope < GROWTH_SLOPE else float(vt.max())
        else:
            estimate = float(vt.max())
    return DensityProfile(tuple(float(c) for c in x), float(d),
                          tuple((float(t), float(v)) for t, v in zip(r, vals)),
                          estimate)


def _covering_grid(E: ParametricSet, scale: float) -> EvaluationGrid:
    lo, hi = E.bounding_box()
    lo = np.asarray(lo, dtype=float) - scale / 2.0
    extent = np.asarray(hi, dtype=float) - lo
    m = np.maximum(1, np.ceil(extent / scale - 1e-9).astype(int))
    return EvaluationGrid.from_box(lo, lo + m * scale, scale)


def covering_counts(E: ParametricSet, scales) -> list:
    """Number of side-s boxes meeting E for each scale s, counted on a
    scale-s grid anchored half a cell below the bounding box."""
    s = np.asarray(scales, dtype=float)
    if s.ndim != 1 or s.size < 3:
        raise HypothesisViolation("need at least three covering scales")
    if np.any(s <= 0) or np.any(np.diff(s) >= 0):
        raise HypothesisViolation("scales must be positive and strictly decreasing")
    return [int(E.meets_cells(_covering_grid(E, sc)).sum()) for sc in s]


def box_counting_dimension(E: ParametricSet, scales) -> float:
    """Log-log slope of covering counts against inverse scale."""
    s = np.asarray(scales, dtype=float)
    counts = covering_counts(E, scales)
    if max(counts) == 0:
        raise HypothesisViolation("set is empty at every covering scale")
    slope, _, _ = loglog_slope(1.0 / s, np.asarray(counts, dtype=float))
    return slope
