"""Riesz potentials with singular-kernel quadrature and asymptotics.

The kernel is |x-y|^(alpha-n) for alpha in (1, n) and log(D/|x-y|) for
alpha = n, D the domain diameter.  Atomic parts are exact sums, grid
parts use midpoint quadrature with an analytic correction for the cell
containing the evaluation point, and radial-profile parts reduce to 1-D
integrals against the profile's shells and continuous pieces via exact
sphere averages of the kernel; infinite radial mass raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import HypothesisViolation
from .fitting import (ApproachPath, DecayReport, LimitReport, blowup_exponent,
                      fit_limit, loglog_slope)
from .geometry import ball_volume
from .grid import _as_vec
from .measures import (AtomicMeasure, GridMeasure, Measure,
                       RadialProfileMeasure, SumMeasure, _is_center)

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


def _kernel(dist, alpha: float, n: int, D):
    dist = np.asarray(dist, dtype=float)
    with np.errstate(divide="ignore"):
        if alpha == n:
            out = np.log(D / dist)
        else:
            out = dist ** (alpha - n)
    return out if out.ndim else float(out)


def _ball_average(r, alpha: float, n: int, D):
    """Average of the kernel over a ball of radius r about its center:
    (n/alpha) r^(alpha-n), or log(D/r) + 1/n at alpha = n."""
    if alpha < n:
        return (n / alpha) * r ** (alpha - n)
    return math.log(D / r) + 1.0 / n


def _sin_power_norm(n: int) -> float:
    # integral of sin^(n-2) over (0, pi)
    return math.sqrt(math.pi) * math.gamma((n - 1) / 2.0) / math.gamma(n / 2.0)


def _ring_average(s: float, rho: float, alpha: float, n: int, D) -> float:
    """Average of the kernel over the sphere of radius s centered at the
    profile center, seen from a point at distance rho from that center."""
    if s == 0.0:
        return _kernel(rho, alpha, n, D)
    if _is_center(rho):
        return _kernel(s, alpha, n, D)

    def f(theta):
        d2 = s * s + rho * rho - 2.0 * s * rho * math.cos(theta)
        return _kernel(math.sqrt(max(d2, 0.0)), alpha, n, D) \
            * math.sin(theta) ** (n - 2)

    val, _ = quad(f, 0.0, math.pi, limit=200)
    return val / _sin_power_norm(n)


def _centered_piece(a: float, b: float, coef: float, m: float,
                    alpha: float, n: int, D) -> float:
    """Integral of the kernel at the center against dM = coef*m*s^(m-1) ds."""
    if coef == 0.0 or b <= a:
        return 0.0
    if alpha == n:
        def anti(s):
            return coef * s ** m * (math.log(D / s) + 1.0 / m) if s > 0 else 0.0
        return anti(b) - anti(a)
    e = m + alpha - n
    if e == 0.0:
        return math.inf if a == 0.0 else coef * m * math.log(b / a)
    if e < 0.0 and a == 0.0:
        return math.inf
    return coef * m / e * (b ** e - a ** e)


def _potential_radial(mu: RadialProfileMeasure, params: RieszParams, x) -> float:
    if math.isinf(mu.total_mass):
        raise HypothesisViolation(
            "Riesz potential of a radial measure of infinite mass")
    n = mu.dim
    D = params.domain_diameter
    rho = float(np.linalg.norm(_as_vec(x, n) - mu.center))
    prof = mu.profile
    total = 0.0
    at_center = _is_center(rho)
    a0 = prof.mass_at_zero
    if a0 > 0.0:
        if at_center:
            return math.inf
        total += a0 * _kernel(rho, params.alpha, n, D)
    for s, dm in prof.shells():
        total += dm * _ring_average(s, rho, params.alpha, n, D)
    for a, b, coef, m in prof.continuous_pieces():
        if at_center:
            total += _centered_piece(a, b, coef, m, params.alpha, n, D)
        else:
            val, _ = quad(
                lambda s: _ring_average(s, rho, params.alpha, n, D)
                * coef * m * s ** (m - 1.0),
                a, b, limit=200,
                points=[rho] if a < rho < b else None)
            total += val
    return float(total)


def _potential_grid(mu: GridMeasure, params: RieszParams, x) -> float:
    n = mu.dim
    grid = mu.grid
    x = _as_vec(x, n)
    d2 = grid.cell_center_dist2(x)
    density = mu.density
    cell_idx = grid.locate_cell(x)
    vol = grid.cell_volume
    total = 0.0
    if cell_idx is not None and density[cell_idx] > 0.0:
        # replace the singular self-cell term by the kernel's average over
        # the volume-equivalent ball times the cell's mass
        r_eq = grid.h * ball_volume(n) ** (-1.0 / n)
        total += density[cell_idx] * vol * _ball_average(
            r_eq, params.alpha, n, params.domain_diameter)
        d2 = d2.copy()
        d2[cell_idx] = -1.0
    keep = (density > 0.0) & (d2 > 0.0)
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
    if isinstance(mu, AtomicMeasure):
        if mu.atom_mass_at(x) > 0.0:
            return math.inf
        loc, mass = mu.atoms()
        if mass.size == 0:
            return 0.0
        d = np.sqrt(((loc - x) ** 2).sum(axis=1))
        vals = mass * _kernel(d, params.alpha, n, params.domain_diameter)
        return float(vals.sum())
    if isinstance(mu, GridMeasure):
        return _potential_grid(mu, params, x)
    if isinstance(mu, RadialProfileMeasure):
        return _potential_radial(mu, params, x)
    raise TypeError(f"unsupported measure type {type(mu).__name__}")


def riesz_asymptotic_report(mu: Measure, params: RieszParams, p,
                            path: ApproachPath) -> LimitReport:
    """Ratios R(x_k)/|x_k-p|^(alpha-n) (or /log(1/|x_k-p|) at alpha = n)
    along the path, with the fitted limit estimating mu({p}).

    At alpha = n the report also carries the D-normalized ratios
    R/log(D/r); the two agree in the limit."""
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
