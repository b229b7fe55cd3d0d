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
from .fitting import (ApproachPath, DecayReport, LimitReport, decay_report,
                      growth_constant, singular_limit)
from .geometry import ball_volume, dist2
from .grid import _as_vec
from .integrate import ball_mass_integral, profile_integral
from .measures import AtomicMeasure, GridMeasure, Measure, SumMeasure

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


def riesz_asymptotic_report(mu: Measure, params: RieszParams, x0,
                            path: ApproachPath) -> LimitReport:
    """Ratios |x_k-x0|^(n-alpha) R(x_k) (or R(x_k)/log(1/|x_k-x0|) at
    alpha = n) along the path, with the fitted limit estimating
    mu({x0}), from the one engine ``fitting.singular_limit``.

    At alpha = n the fit is linear in 1/log(1/r) (``fit_log_limit``),
    and the report also carries the D-normalized ratios R/log(D/r); the
    two agree in the limit."""
    n = mu.dim
    params.validate_dim(n)
    pot = path.values_along(_as_vec(x0, n),
                            lambda pt: riesz_potential(mu, params, pt))
    rep = singular_limit(path.radii, pot, n - params.alpha,
                         window=max(4, math.ceil(path.radii.size / 3)))
    if params.is_log(n):
        rep.extras["ratios_domain_normalized"] = pot / np.log(
            params.domain_diameter / path.radii)
    rep.extras["point_mass_estimate"] = rep.limit
    return rep


def riesz_decay_check(mu: Measure, params: RieszParams, x0, d: float,
                      path: ApproachPath) -> DecayReport:
    """Check R(x) <= C' |x-x0|^-(n-alpha-d) for measures with ball-mass
    growth mu(B(x0,t)) <= C t^d, d < n - alpha; the fitted exponent may
    exceed n - alpha - d by the slack ``SLOPE_TOLERANCE``."""
    n = mu.dim
    params.validate_dim(n)
    if not 0.0 <= d < n - params.alpha:
        raise ValueError("d must lie in [0, n-alpha)")
    x0 = _as_vec(x0, n)
    hyp_const = growth_constant(path.radii, mu.ball_mass(x0, path.radii), d,
                                mu.atom_mass_at(x0))
    values = path.values_along(x0, lambda pt: riesz_potential(mu, params, pt))
    return decay_report(path.radii, values, n - params.alpha - d, hyp_const,
                        slack=SLOPE_TOLERANCE, extras={"d": d})
