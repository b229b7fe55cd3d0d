"""The one fixed integration rule: 31-node double-exponential (tanh-sinh).

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
