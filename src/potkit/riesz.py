"""Riesz potentials and their singular asymptotics.

The kernel k(d) is d^(alpha-n) for alpha in (1, n), and log(D/d) at
alpha = n with D the domain diameter.  The potential at x integrates k
against the ball mass M(t) = mu(B(x, t)), by parts up to the last
breakpoint T of M (Adams & Hedberg, *Function Spaces and Potential
Theory*, 1996):

    R(x) = M(T) k(T) + integral over (0, T) of M(t) (-k'(t)) dt,

the integral being the ``integrate`` module's ball-mass integral with
(s, d, scale) = (n-alpha, 1, n-alpha), or scale 1 at alpha = n.  A sum
of measures gives the sum of its parts' potentials.  An atomic measure
sums its kernel, sum_i m_i k(|x - x_i|), which is what the by-parts form
gives for a step M.  A grid measure is a midpoint sum over its loaded
cells, the cell that contains x replaced by the kernel's average over
the equal-volume ball.  A measure of infinite mass raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .fitting import (ApproachPath, DecayReport, LimitReport, blowup_exponent,
                      fit_limit, fit_log_limit, loglog_slope)
from .geometry import ball_volume, dist2
from .grid import _as_vec
from .integrate import ball_mass_integral, profile_integral
from .measures import AtomicMeasure, GridMeasure, Measure, SumMeasure

MIN_PATH_SAMPLES = 8
SLOPE_TOLERANCE = 0.05


@dataclass(frozen=True)
class RieszParams:
    """Order alpha in (1, n] and the domain diameter D used by the
    log kernel at alpha = n."""

    alpha: float
    domain_diameter: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= 1.0:
            raise ValueError("alpha must be a finite real > 1")
        if self.domain_diameter is not None and self.domain_diameter <= 0.0:
            raise ValueError("domain diameter must be positive")

    def validate_dim(self, n: int) -> None:
        if self.alpha > n:
            raise ValueError(f"alpha = {self.alpha} exceeds the dimension {n}")
        if self.alpha == n and self.domain_diameter is None:
            raise ValueError("alpha = n requires a domain diameter")

    def is_log(self, n: int) -> bool:
        return self.alpha == n


def _kernel(dist, alpha: float, n: int, D, out=None):
    dist = np.asarray(dist, dtype=float)
    with np.errstate(divide="ignore"):
        if alpha == n:
            out = np.log(np.divide(D, dist, out=out), out=out)
        else:
            out = np.power(dist, alpha - n, out=out)
    return out if out.ndim else float(out)


def _ball_average(r, alpha: float, n: int, D):
    """Average of the kernel over a ball of radius r about its center:
    (n/alpha) r^(alpha-n), or log(D/r) + 1/n at alpha = n."""
    if alpha < n:
        return (n / alpha) * r ** (alpha - n)
    return math.log(D / r) + 1.0 / n


def _potential_grid(mu: GridMeasure, params: RieszParams, x) -> float:
    n = mu.dim
    grid = mu.grid
    centers, density, cells = mu.loaded_cells()
    d2 = dist2(centers, x)
    cell = grid.locate_cell(x)
    vol = grid.cell_volume
    total = 0.0
    flat = -1 if cell is None else np.ravel_multi_index(cell, grid.cell_shape)
    j = np.searchsorted(cells, flat)
    if j < cells.size and cells[j] == flat:
        # replace the singular self-cell term by the kernel's average over
        # the volume-equivalent ball times the cell's mass
        r_eq = grid.h * ball_volume(n) ** (-1.0 / n)
        total += density[j] * vol * _ball_average(
            r_eq, params.alpha, n, params.domain_diameter)
        d2[j] = -1.0
    keep = d2 > 0.0
    if np.any(keep):
        k = _kernel(np.sqrt(d2[keep]), params.alpha, n, params.domain_diameter)
        total += float((density[keep] * k).sum()) * vol
    return float(total)


def riesz_potential(mu: Measure, params: RieszParams, x) -> float:
    """Potential value at x; +inf sentinel when x carries an atom.

    Raises ``HypothesisViolation`` for a measure of infinite mass."""
    n = mu.dim
    params.validate_dim(n)
    x = _as_vec(x, n)
    if isinstance(mu, SumMeasure):
        return float(sum(riesz_potential(part, params, x) for part in mu.parts))
    if isinstance(mu, GridMeasure):
        return _potential_grid(mu, params, x)
    if isinstance(mu, AtomicMeasure):
        locations, masses = mu.atoms()
        dist = np.sqrt(dist2(locations, x))
        if np.any(dist == 0.0):
            return math.inf
        k = _kernel(dist, params.alpha, n, params.domain_diameter)
        return float((masses * k).sum())
    if math.isinf(mu.total_mass):
        raise HypothesisViolation("Riesz potential of a measure of infinite mass")
    alpha = params.alpha
    # -k'(t) = scale * t^(-s-1)
    s = n - alpha
    scale = 1.0 if params.is_log(n) else s
    prof = mu.radial_mass_profile(x)
    if prof is not None:
        T, mass = prof.breakpoints[-1], prof.total
        value = profile_integral(prof, s, 1.0, 0.0, T, scale)
    else:
        T = mu.ball_mass_breakpoints(x)[-1]
        mass = mu.ball_mass(x, T)
        value = ball_mass_integral(mu, x, s, 1.0, 0.0, T, scale)
    if mass > 0.0:
        value += mass * _kernel(T, alpha, n, params.domain_diameter)
    return float(value)


def riesz_asymptotic_report(mu: Measure, params: RieszParams, p,
                            path: ApproachPath) -> LimitReport:
    """Ratios R(x_k)/|x_k-p|^(alpha-n) (or /log(1/|x_k-p|) at alpha = n)
    along the path, with the fitted limit estimating mu({p}).

    At alpha = n the fit is linear in 1/log(1/r) (``fit_log_limit``),
    and the report also carries the D-normalized ratios R/log(D/r); the
    two agree in the limit."""
    n = mu.dim
    params.validate_dim(n)
    p = _as_vec(p, n)
    if path.radii.size < MIN_PATH_SAMPLES:
        raise ValueError(f"path too short: need at least {MIN_PATH_SAMPLES} samples")
    if not np.allclose(path.anchor, p, rtol=0.0, atol=1e-12):
        raise ValueError("path must be anchored at p")
    if params.is_log(n) and path.radii.max() >= 1.0:
        raise ValueError("alpha = n scaling requires path radii below 1")
    points = path.points()
    pot = np.array([riesz_potential(mu, params, pt) for pt in points])
    if not np.all(np.isfinite(pot)):
        raise ValueError("path passes through an atom; potential is infinite")
    extras = {"potentials": pot}
    if params.is_log(n):
        ratios = pot / np.log(1.0 / path.radii)
        extras["ratios_domain_normalized"] = pot / np.log(
            params.domain_diameter / path.radii)
        fit = fit_log_limit(path.radii, ratios)
    else:
        ratios = pot / path.radii ** (params.alpha - n)
        fit = fit_limit(path.radii, ratios,
                        window=max(4, math.ceil(path.radii.size / 3)))
    extras["point_mass_estimate"] = fit.limit
    return LimitReport(path.radii, ratios, fit.limit, fit.exponent,
                       fit.residual, extras=extras)


def riesz_decay_check(mu: Measure, params: RieszParams, p, d: float,
                      path: ApproachPath) -> DecayReport:
    """Check R(x) <= C' |x-p|^-(n-alpha-d) for measures with ball-mass
    growth mu(B(p,t)) <= C t^d, d < n - alpha; the fitted exponent may
    exceed n - alpha - d by ``SLOPE_TOLERANCE``."""
    n = mu.dim
    params.validate_dim(n)
    if not 0.0 <= d < n - params.alpha:
        raise ValueError("d must lie in [0, n-alpha)")
    p = _as_vec(p, n)
    scales = path.radii
    masses = mu.ball_mass(p, scales)
    if d > 0.2:
        positive = masses > 0
        if positive.sum() >= 3:
            slope, _, _ = loglog_slope(scales[positive][-8:],
                                       masses[positive][-8:])
            if slope < d - 0.15:
                raise HypothesisViolation(
                    f"ball mass grows like t^{slope:.3f}, violating t^{d}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(scales > 0, masses / scales ** d, 0.0)
    hyp_const = float(np.max(ratios)) if masses.size else 0.0
    values = np.array([riesz_potential(mu, params, pt) for pt in path.points()])
    if not np.all(np.isfinite(values)):
        raise HypothesisViolation("potential infinite on the path")
    bound = n - params.alpha - d
    measured = blowup_exponent(path.radii, values)
    constant = float(np.max(values * path.radii ** bound)) if values.size else 0.0
    return DecayReport(path.radii, values, measured, bound, constant,
                       hyp_const, bool(measured <= bound + SLOPE_TOLERANCE),
                       extras={"slope_tolerance": SLOPE_TOLERANCE, "d": d})
