"""Wolff potentials and their singular asymptotics.

The central object is

    W(x, r) = integral over t in (0, r] of (M(t) / t^(n-p))^(1/(p-1)) dt/t,

with ``M(t) = ball_mass(mu, x, t)`` and 1 < p <= n, integrated interval
by interval between the breakpoints of M by the two helpers of
``integrate``.  Where the measure exposes a piecewise constant/power
ball-mass profile at x (atomic and grid measures, radial profiles at
their center), every interval whose mass is a single term integrates in
closed form by ``power_integral``, c^(1/(p-1)) (b^e - a^e) / e, all
such intervals in one array expression; at p = n constants contribute
log terms.  Profile intervals whose mass has several terms go through
the tanh-sinh rule, and measures without a profile at x, such as radial
ones seen off their center, through ``ball_mass_integral`` between the
``ball_mass_breakpoints``, all nodes in one ``ball_mass`` call.
``wolff_potential`` sums the interval values into one number.  The value
+inf is a first-class sentinel: it is the correct answer whenever the
evaluation point carries an atom.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation
from .fitting import (ApproachPath, DecayReport, LimitReport, blowup_exponent,
                      fit_limit, loglog_slope)
from .geometry import kappa_exponent
from .grid import _as_vec
from .measures import AtomicMeasure, Measure
from .integrate import ball_mass_integral, power_integral, tanh_sinh
from .sets import BallUnion
from .thinness import escaping_ray

MIN_PATH_SAMPLES = 6


@dataclass(frozen=True)
class WolffParams:
    """Exponent p in (1, n] and upper radius r."""

    p: float
    r: float

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p <= 1.0:
            raise ValueError("p must be a finite real > 1")
        if not self.r > 0.0:
            raise ValueError("r must be positive")

    def validate_dim(self, n: int):
        if self.p > n:
            raise ValueError(f"p = {self.p} exceeds the dimension n = {n}")


def _integrand(n: int, p: float):
    """The Wolff integrand (M / t^(n-p))^(1/(p-1)) / t as f(M, t)."""
    return lambda mass, t: (mass / t ** (n - p)) ** (1.0 / (p - 1.0)) / t


def _integrate_profile(prof, n: int, params: WolffParams,
                       t_min: float) -> np.ndarray:
    """Integrals over the profile's intervals clipped to (t_min, r], in
    increasing t.

    An interval whose mass is a single term, constant or one power
    c t^m, integrates in closed form by ``power_integral``, all such
    intervals in one expression: the integrand is c^(1/(p-1)) t^(e-1)
    with e = (m - (n-p)) / (p-1).  Intervals with several terms go
    through the tanh-sinh rule; one that reaches t = 0 is cut at 1e-12
    of its length, and below the cut its smallest power, which dominates
    there, integrates in closed form."""
    p, r, bp = params.p, params.r, prof.breakpoints
    if prof.mass_at_zero > 0.0 and t_min == 0.0:
        return np.array([math.inf])

    def closed_form(c, m, a, b):
        return power_integral(c ** (1.0 / (p - 1.0)),
                              (m - (n - p)) / (p - 1.0), a, b)

    lo = np.maximum(bp, t_min)
    hi = np.minimum(np.append(bp[1:], math.inf), r)
    live = hi > lo
    lo, hi, const = lo[live], hi[live], prof.constant[live]
    powers = [(m, coefs[live]) for m, coefs in prof.powers]
    # the single term of each interval that has at most one
    coef, expo, terms = const, np.zeros(lo.size), (const != 0.0).astype(int)
    for m, c in powers:
        nonzero = c != 0.0
        coef = coef + c
        expo[nonzero] = m
        terms += nonzero
    closed = terms == 1
    value = np.zeros(lo.size)
    value[closed] = closed_form(coef[closed], expo[closed], lo[closed],
                                hi[closed])
    multi = terms > 1
    if multi[0] and lo[0] == 0.0:
        m_min, c_min = min((m, c[0]) for m, c in powers if c[0] != 0.0)
        lo[0] = hi[0] * 1e-12
        value[:1] = closed_form(np.array([c_min]), np.array([m_min]),
                                np.zeros(1), lo[:1])
    if multi.any():
        f = _integrand(n, p)
        value[multi] += tanh_sinh(lambda t, _: f(prof.eval(t), t),
                                  lo[multi], hi[multi])
    return value


def wolff_potential(mu: Measure, params: WolffParams, x, *,
                    t_min: float = 0.0) -> float:
    """Wolff potential W(x, r); +inf when x carries an atom and
    ``t_min`` is 0.

    ``t_min`` truncates the integral below, which is how scaled values
    are reported at points that carry an atom."""
    n = mu.dim
    params.validate_dim(n)
    x = _as_vec(x, n)
    if t_min < 0.0 or t_min >= params.r:
        raise ValueError("t_min must lie in [0, r)")
    prof = mu.radial_mass_profile(x)
    if prof is not None:
        return float(_integrate_profile(prof, n, params, t_min).sum())
    if mu.atom_mass_at(x) > 0.0 and t_min == 0.0:
        return math.inf
    return ball_mass_integral(mu, x, _integrand(n, params.p), t_min,
                              params.r)


def wolff_asymptotic_report(mu: Measure, params: WolffParams, x0,
                            path: ApproachPath) -> LimitReport:
    """Scaled Wolff samples along a path to x0 with extrapolated limit.

    For p < n the scaled quantity is |x-x0|^((n-p)/(p-1)) W(x) and the
    limit estimates ((p-1)/(n-p)) mu({x0})^(1/(p-1)); for p = n it is
    W(x)/log(1/|x-x0|) with limit mu({x0})^(1/(n-1)).
    """
    n = mu.dim
    params.validate_dim(n)
    x0 = _as_vec(x0, n)
    if not np.allclose(path.anchor, x0, rtol=0.0, atol=1e-12):
        raise ValueError("path must be anchored at x0")
    if path.radii.size < MIN_PATH_SAMPLES:
        raise ValueError(f"path too short: need at least {MIN_PATH_SAMPLES} samples")
    if params.p == n and path.radii.max() >= 1.0:
        raise ValueError("p = n scaling requires path radii below 1")
    points = path.points()
    raw = np.array([wolff_potential(mu, params, pt) for pt in points])
    if not np.all(np.isfinite(raw)):
        raise ValueError("path passes through an atom; Wolff value is infinite")
    extras = {"raw": raw}
    if params.p < n:
        kappa = kappa_exponent(n, params.p)
        scaled = path.radii ** kappa * raw
        fit = fit_limit(path.radii, scaled)
        limit, exponent, residual = fit.limit, fit.exponent, fit.residual
        mass = math.copysign(abs(limit * (n - params.p) / (params.p - 1.0))
                             ** (params.p - 1.0), limit)
    else:
        # the correction to W / log(1/rho) is O(1/log(1/rho)), which a
        # power fit in rho cannot extrapolate; fit linearly in that
        # variable instead (exponent then reports its power, 1)
        scaled = raw / np.log(1.0 / path.radii)
        z = 1.0 / np.log(1.0 / path.radii)
        w = max(4, math.ceil(z.size / 2))
        design = np.stack([np.ones(w), z[-w:]], axis=1)
        coef, *_ = np.linalg.lstsq(design, scaled[-w:], rcond=None)
        limit, exponent = float(coef[0]), 1.0
        residual = float(np.max(np.abs(design @ coef - scaled[-w:])))
        mass = math.copysign(abs(limit) ** (n - 1.0), limit)
        # alternative normalization against the integration cap; for a
        # pure atom it is constant in rho
        extras["scaled_cap_normalized"] = raw / np.log(params.r / path.radii)
    extras["point_mass_estimate"] = float(mass)
    return LimitReport(path.radii, scaled, limit, exponent, residual,
                       extras=extras)


def wolff_decay_check(mu: Measure, params: WolffParams, x0, m: float,
                      epsilon: float, path: ApproachPath) -> DecayReport:
    """Check the decay bound W <= C |x-x0|^(-(n-p-m+eps)/(p-1)) for
    measures with ball-mass growth mu(B(x0,t)) <= C t^m."""
    n = mu.dim
    params.validate_dim(n)
    if not 2.0 <= params.p < n:
        raise ValueError("decay check requires p in [2, n)")
    if not 0.0 < m < n - params.p:
        raise ValueError("growth exponent m must lie in (0, n-p)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    x0 = _as_vec(x0, n)
    if mu.atom_mass_at(x0) > 0.0:
        raise HypothesisViolation("measure carries an atom at x0")
    scales = params.r * 2.0 ** -np.arange(0, 16)
    masses = mu.ball_mass(x0, scales)
    positive = masses > 0
    if positive.sum() >= 3:
        slope, _, _ = loglog_slope(scales[positive][-8:], masses[positive][-8:])
        if slope < m - 0.15:
            raise HypothesisViolation(
                f"ball mass grows like t^{slope:.3f} at small scales, "
                f"violating the t^{m} hypothesis")
    hyp_const = float(np.max(masses / scales ** m)) if positive.any() else 0.0

    values = np.array([wolff_potential(mu, params, pt) for pt in path.points()])
    if not np.all(np.isfinite(values)):
        raise HypothesisViolation("Wolff potential infinite on the path")
    bound = (n - params.p - m + epsilon) / (params.p - 1.0)
    measured = blowup_exponent(path.radii, values)
    constant = float(np.max(values * path.radii ** bound)) if values.size else 0.0
    return DecayReport(path.radii, values, measured, bound, constant,
                       hyp_const, bool(measured <= bound),
                       extras={"epsilon": epsilon, "m": m})


@dataclass(frozen=True)
class WitnessReport:
    """Canonical thin-set family with Wolff blow-up along its centers.

    ``center_scaled`` holds the above-|x_i| part of the Wolff integral
    (r = 1) at atom center x_i, which carries the |x_i|^kappa scaling on
    its own: the own-atom piece equals ((p-1)/(n-p)) i (1 - |x_i|^kappa)
    exactly.  The full value there is +inf because each center carries
    an atom.  ``ray_scaled`` holds |x|^kappa W(x, 1) along the escaping
    ray ``ray_direction``."""

    measure: AtomicMeasure
    centers: np.ndarray
    ball_radii: np.ndarray
    masses: np.ndarray
    indices: np.ndarray
    center_scaled: np.ndarray
    ray_direction: np.ndarray
    ray_radii: np.ndarray
    ray_scaled: np.ndarray
    centers_diverge: bool
    ray_vanishes: bool
    extras: dict = field(default_factory=dict)


def thin_witness_blowup(s: float, p: float, *, n: int = 3,
                        count: int = 14) -> WitnessReport:
    """Build the ball family E_s = union of B(2^-i e1, 2^-i i^-s) with the
    witness measure sum_i a_i delta at the centers, a_i = 2^(-i(n-p)) i^(p-1).

    The masses make the scaled Wolff potential W(., 1) at center i at
    least ((p-1)/(n-p)) * i * (1 - 2^(-i kappa)) while the total mass
    stays finite; along the ray from 0 that ``escaping_ray`` finds
    outside the ball family the scaled values decay to 0.
    """
    if not 2.0 < p < n:
        raise ValueError("witness construction requires p in (2, n)")
    if s * (n - p) <= 1.0:
        raise ValueError("invalid s: need s(n-p) > 1 so the family is thin")
    if count < 4:
        raise ValueError("need at least 4 atoms")
    idx = np.arange(1, count + 1)
    centers = np.zeros((count, n))
    centers[:, 0] = 2.0 ** -idx
    radii = 2.0 ** -idx * idx ** float(-s)
    masses = 2.0 ** (-idx * (n - p)) * idx ** (p - 1.0)
    mu = AtomicMeasure(centers, masses)
    params = WolffParams(p, 1.0)
    kappa = kappa_exponent(n, p)

    rho = 2.0 ** -idx.astype(float)
    # the integral above t = |x_i| carries the |x_i|^kappa scaling by
    # itself: its own-atom piece is ((p-1)/(n-p)) i (1 - |x_i|^kappa)
    center_scaled = np.array([
        wolff_potential(mu, params, centers[k], t_min=rho[k])
        for k in range(count)])

    v = escaping_ray(BallUnion(centers, radii), np.zeros(n), 0.75)
    if v is None:
        raise RuntimeError("no escaping ray found for the witness family")
    v = v / np.linalg.norm(v)
    # the raw potential along the ray grows like log(1/rr)^2, so the
    # scaled value peaks near rr ~ 2^-10 and only then decays like
    # rr^kappa log(1/rr)^2; go deep enough to see the decay regime
    ray_radii = 2.0 ** -np.arange(1, 37, dtype=float)
    ray_scaled = np.array([
        rr ** kappa * wolff_potential(mu, params, rr * v) for rr in ray_radii])

    ramp = (p - 1.0) / (n - p) * idx
    tail = idx >= max(4, count // 2)
    centers_diverge = bool(
        np.all(np.diff(center_scaled[tail]) > 0)
        and np.all(center_scaled[tail] >= 0.9 * ramp[tail]))
    third = len(ray_radii) // 3
    ray_slope, _, _ = loglog_slope(ray_radii[-third:], ray_scaled[-third:])
    ray_vanishes = bool(ray_scaled[-1] <= 0.25 * ray_scaled.max()
                        and ray_slope > 0.1)

    return WitnessReport(mu, centers, radii, masses, idx, center_scaled, v,
                         ray_radii, ray_scaled, centers_diverge, ray_vanishes,
                         extras={"linear_ramp": ramp, "ray_slope": ray_slope})
