"""Sphere and ball constants plus spherical-cap area fractions."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def kappa_exponent(n: int, p: float) -> float:
    """Decay exponent (n - p) / (p - 1) of the fundamental profile."""
    if not 1.0 < p <= n:
        raise ValueError("p must lie in (1, n]")
    return (n - p) / (p - 1.0)


def cap_area_fraction(cos_theta, n: int):
    """Fraction of the unit sphere in R^n with polar angle <= theta.

    Uses the regularized incomplete beta function; for n = 3 this
    reduces to (1 - cos(theta)) / 2.  Vectorized in ``cos_theta``.
    """
    c = np.clip(np.asarray(cos_theta, dtype=float), -1.0, 1.0)
    x = np.clip(1.0 - c * c, 0.0, 1.0)
    half = 0.5 * betainc((n - 1) / 2.0, 0.5, x)
    frac = np.where(c >= 0.0, half, 1.0 - half)
    return frac if frac.ndim else float(frac)


def ball_intersection_fraction(s, rho: float, t: float, n: int):
    """Fraction of the sphere of radius ``s`` about a center that lies
    inside the ball of radius ``t`` around a point at distance ``rho``
    from the center.  Vectorized in ``s`` and ``t``, which broadcast."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if rho < 0 or np.any(t < 0):
        raise ValueError("radii must be nonnegative")
    if rho == 0.0:
        out = np.where(s <= t, 1.0, 0.0)
        return out if out.ndim else float(out)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = (s * s + rho * rho - t * t) / (2.0 * s * rho)
    frac = cap_area_fraction(cos_theta, n)
    frac = np.where(s <= t - rho, 1.0, frac)
    frac = np.where(s >= t + rho, 0.0, frac)
    frac = np.where(s <= 0.0, np.where(rho <= t, 1.0, 0.0), frac)
    return frac if frac.ndim else float(frac)
