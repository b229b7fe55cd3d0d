"""Integrals of the ball mass M(t) = mu(B(x, t)) against powers of t.

Wolff and Riesz potentials are both integrals of M(t) times a power of t
(Riesz after integrating by parts), so they share the two ways this
module takes them:

* ``power_integral``, the closed form of coef * t^(e-1) over an
  interval, for a mass that is a sum of powers of t on each interval of
  a profile;
* ``ball_mass_integral``, one fixed 31-node double-exponential
  (tanh-sinh) rule between the breakpoints of M for any other measure.

The rule of Takahasi & Mori, Publ. RIMS 9 (1974), substitutes
y = (1 + tanh((pi/2) sinh u)) / 2 on a unit interval and applies the
trapezoidal rule in u, here at 31 nodes with |u| <= 3.  The nodes crowd
double-exponentially toward both ends, so the rule stays accurate where
the integrand has an algebraic singularity at an endpoint, as ball-mass
and potential integrands do at their breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

_U = np.linspace(-3.0, 3.0, 31)
_V = 0.5 * math.pi * np.sinh(_U)
# distance of each node from the left end, and its weight; the right half
# is placed by its mirror node's distance from the right end
DE_NODES = 1.0 / (1.0 + np.exp(-2.0 * _V))
DE_WEIGHTS = 0.25 * math.pi * (_U[1] - _U[0]) * np.cosh(_U) / np.cosh(_V) ** 2
_LEFT = _U < 0.0
_PART = 0.5 * math.log(10.0)  # log-width of half a decade


def tanh_sinh(f, lo, hi) -> np.ndarray:
    """Integrals of ``f`` over the intervals (lo, hi), 1-D arrays with
    0 <= lo < hi.  The rule runs in s on an interval from 0 and in log s
    elsewhere, split so that each part spans at most half a decade: in
    log s a singularity at s = 0 stays resolved on intervals that end
    near it, and on parts that short a power of s up to s**5 stays
    within about 1e-10 of its integral.

    ``f(s, k)`` receives the nodes, one row of 31 per part, and the index
    k of the interval each row belongs to, and acts elementwise."""
    log = lo > 0.0
    ulo = np.log(np.where(log, lo, hi))
    uhi = np.log(hi)
    count = np.maximum(1, np.ceil((uhi - ulo) / _PART)).astype(int)
    k = np.repeat(np.arange(lo.size), count)
    step = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    log = log[k, None]
    width = np.where(log, ((uhi - ulo) / count)[k, None], hi[k, None])
    a = np.where(log, ulo[k, None] + step[:, None] * width, 0.0)
    y = np.where(_LEFT, a + width * DE_NODES,
                 (a + width) - width * DE_NODES[::-1])
    s = np.where(log, np.exp(y), y)
    parts = (f(s, k) * np.where(log, s, 1.0) * DE_WEIGHTS).sum(axis=1)
    return np.bincount(k, weights=parts * width[:, 0], minlength=lo.size)


def power_integral(coef, e, a, b) -> np.ndarray:
    """Elementwise integral of coef * t^(e-1) over (a, b), 0 <= a < b:
    coef (b^e - a^e) / e, the log form coef log(b/a) at e = 0, and +inf
    where e <= 0 and the interval starts at t = 0.  A zero coefficient
    gives 0, whatever e and a are."""
    out = np.where(coef == 0.0, 0.0, math.inf)
    log = (e == 0.0) & (a > 0.0)
    out[log] = coef[log] * np.log(b[log] / a[log])
    power = (e != 0.0) & ((a > 0.0) | (e > 0.0))
    e = e[power]
    out[power] = coef[power] * (b[power] ** e - a[power] ** e) / e
    return out


def ball_mass_integral(mu, x, f, lo: float, hi: float) -> float:
    """Integral of ``f(M(t), t)`` over (lo, hi) with M(t) = mu(B(x, t)),
    by the tanh-sinh rule between consecutive breakpoints of M clipped to
    (lo, hi); M is evaluated at every node in one ``ball_mass`` call."""
    edges = np.unique(np.clip(np.append(mu.ball_mass_breakpoints(x),
                                        [lo, hi]), lo, hi))
    return float(tanh_sinh(lambda t, _: f(mu.ball_mass(x, t), t),
                           edges[:-1], edges[1:]).sum())
