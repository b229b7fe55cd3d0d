"""Sphere and ball constants, squared distances and spherical-cap area
fractions."""

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


def dist2(a, b) -> np.ndarray:
    """Squared distance along the last axis of a and b, broadcast over the
    others: ``((a - b) ** 2).sum(-1)``, summed in the same order for up
    to 7 coordinates, without the difference array."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    tmp = np.empty_like(out)
    for k in range(a.shape[-1]):
        np.square(np.subtract(a[..., k], b[..., k], out=tmp), out=tmp)
        np.add(out, tmp, out=out)
    return out


def _cap_fraction(cos_theta, sin2_theta, n: int):
    """Cap fraction from sin^2 of its angle, the sign of cos picking the
    side."""
    half = 0.5 * betainc((n - 1) / 2.0, 0.5, np.clip(sin2_theta, 0.0, 1.0))
    return np.where(cos_theta >= 0.0, half, 1.0 - half)


def cap_area_fraction(cos_theta, n: int):
    """Fraction of the unit sphere in R^n with polar angle <= theta.

    Uses the regularized incomplete beta function; for n = 3 this
    reduces to (1 - cos(theta)) / 2.  Vectorized in ``cos_theta``.
    """
    c = np.clip(np.asarray(cos_theta, dtype=float), -1.0, 1.0)
    frac = _cap_fraction(c, 1.0 - c * c, n)
    return frac if frac.ndim else float(frac)


def ball_intersection_fraction(s, rho: float, t: float, n: int):
    """Fraction of the sphere of radius ``s`` about a center that lies
    inside the ball of radius ``t`` around a point at distance ``rho``
    from the center.  Vectorized in ``s`` and ``t``, which broadcast.

    sin^2 of the cap's angle is formed as a product of differences, not
    as 1 - cos^2, which cancels as t nears |s - rho| or s + rho."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if rho < 0 or np.any(t < 0):
        raise ValueError("radii must be nonnegative")
    if rho == 0.0:
        out = np.where(s <= t, 1.0, 0.0)
        return out if out.ndim else float(out)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = (s * s + rho * rho - t * t) / (2.0 * s * rho)
        sin2_theta = ((t * t - (s - rho) ** 2) * ((s + rho) ** 2 - t * t)
                      / (2.0 * s * rho) ** 2)
    frac = _cap_fraction(cos_theta, sin2_theta, n)
    frac = np.where(s <= t - rho, 1.0, frac)
    frac = np.where(s >= t + rho, 0.0, frac)
    frac = np.where(s <= 0.0, np.where(rho <= t, 1.0, 0.0), frac)
    return frac if frac.ndim else float(frac)
