"""Wolff potentials and their singular asymptotics.

The central object is

    W(x, r) = integral over t in (0, r] of (M(t) / t^(n-p))^(1/(p-1)) dt/t,

with ``M(t) = ball_mass(mu, x, t)`` and 1 < p <= n: the ``integrate``
module's ball-mass integral with (s, d, scale) = (n-p, p-1, 1).  The
profile of M is asked for up to r only, so an atomic or grid measure
reads only its atoms within r of x.

This module depends on the measures and the integral engine only; the
thin-set witness family built on these potentials is in
:mod:`potkit.thinness`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation
from .fitting import (ApproachPath, DecayReport, LimitReport, blowup_exponent,
                      fit_limit, fit_log_limit, loglog_slope)
from .geometry import kappa_exponent
from .grid import _as_vec
from .measures import Measure
from .integrate import ball_mass_integral, profile_integral

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
    s, d = n - params.p, params.p - 1.0
    prof = mu.radial_mass_profile(x, params.r)
    if prof is not None:
        return profile_integral(prof, s, d, t_min, params.r)
    return ball_mass_integral(mu, x, s, d, t_min, params.r)


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
        scaled = raw / np.log(1.0 / path.radii)
        fit = fit_log_limit(path.radii, scaled)
        limit, exponent, residual = fit.limit, fit.exponent, fit.residual
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
