"""Integrals of the ball mass M(t) = mu(B(x, t)) against powers of t.

Wolff and Riesz potentials are both the one integral

    I = integral over t in (lo, hi) of scale (M(t) / t^s)^(1/d) dt/t,

Wolff with (s, d, scale) = (n-p, p-1, 1) and Riesz, after integrating
by parts, with (n-alpha, 1, n-alpha), or scale 1 at alpha = n.  This
module owns it, in two forms:

* ``profile_integral`` for a measure that exposes a closed piecewise
  profile of M at x (``RadialMassFunction``: a constant plus powers of t
  on each interval).  An interval whose mass is a single term c t^m
  integrates in closed form by ``power_integral`` as
  scale c^(1/d) t^(e-1), e = (m - s) / d, and at d = 1 every term of
  every interval does.  A step profile, with no power of t, as every
  atomic and grid profile is, takes that form directly, each breakpoint's
  power t^e taken once for the two intervals it ends.  Intervals with
  several terms at d != 1 go through the tanh-sinh rule; one that
  reaches t = 0 is cut at 1e-12 of its length, and below the cut its
  smallest power, a constant counting as power 0, integrates in closed
  form.
* ``ball_mass_integral`` for any other measure: the tanh-sinh rule
  between consecutive breakpoints of M, all nodes in one ``ball_mass``
  call.

I is +inf when x carries an atom and lo = 0, since then M(t) >= M(0) > 0
and e = -s/d <= 0 near t = 0.  A step profile returns it before any
power is taken; on other profiles it falls out of ``power_integral``,
whose constant term gives +inf on an interval from 0;
``ball_mass_integral`` returns it from ``atom_mass_at``.

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


def _kernel(s: float, d: float, scale: float):
    """The integrand scale (M / t^s)^(1/d) / t as f(M, t); at d = 1 as
    M scale t^(-s-1)."""
    if d == 1.0:
        return lambda mass, t: mass * scale * t ** (-s - 1.0)
    return lambda mass, t: scale * ((mass / t ** s) ** (1.0 / d) / t)


def _step_integral(c, s: float, d: float, ends, scale: float) -> float:
    """``profile_integral`` of a step profile, c[k] on each live interval
    (ends[k], ends[k+1]): ``power_integral``'s terms and float operations
    in one array as long as c, so that the sum is the same.  Each end's
    power is taken once, with an array exponent (numpy takes a scalar -1
    as a reciprocal, which can differ in the last bit)."""
    if ends[0] == 0.0 and c[0] != 0.0:
        return math.inf  # an atom at x
    coef = scale * (c if d == 1.0 else c ** (1.0 / d))
    start = int(ends[0] == 0.0)  # skip a massless (0, ends[1])
    t = ends[start:]
    value = np.zeros(c.size)
    if s == 0.0:
        value[start:] = coef[start:] * np.log(t[1:] / t[:-1])
    else:
        e = np.full(t.size, -s / d)
        power = t ** e
        value[start:] = coef[start:] * (power[1:] - power[:-1]) / e[1:]
    return float(value.sum())


def profile_integral(prof, s: float, d: float, lo: float, hi: float,
                     scale: float = 1.0) -> float:
    """The integral I over (lo, hi) of the closed profile ``prof`` of M,
    its intervals clipped to (lo, hi) and integrated in one array
    expression per form (see the module docstring); they are one run of
    the profile's, found by two binary searches."""
    if hi <= lo:
        return 0.0
    bp = prof.breakpoints
    i = np.searchsorted(bp, lo, side="right") - 1
    j = np.searchsorted(bp, hi)
    ends = np.concatenate([[lo], bp[i + 1:j], [hi]])
    if not prof.powers:
        return _step_integral(prof.constant[i:j], s, d, ends, scale)
    a, b = ends[:-1], ends[1:]
    terms = [(0.0, prof.constant[i:j])] + [(m, c[i:j])
                                          for m, c in prof.powers]
    if d == 1.0:
        coef = np.concatenate([scale * c for _, c in terms])
        e = np.concatenate([np.full(a.size, m - s) for m, _ in terms])
        return float(power_integral(coef, e, np.tile(a, len(terms)),
                                    np.tile(b, len(terms))).sum())

    def closed_form(c, m, t0, t1):
        return power_integral(scale * c ** (1.0 / d), (m - s) / d, t0, t1)

    # the single term of each interval that has at most one
    coef, expo = terms[0][1], np.zeros(a.size)
    count = (coef != 0.0).astype(int)
    for m, c in terms[1:]:
        nonzero = c != 0.0
        coef = coef + c
        expo[nonzero] = m
        count += nonzero
    closed = count == 1
    value = np.zeros(a.size)
    value[closed] = closed_form(coef[closed], expo[closed], a[closed],
                                b[closed])
    multi = count > 1
    if multi[:1].any() and a[0] == 0.0:
        m_min, c_min = min((m, c[0]) for m, c in terms if c[0] != 0.0)
        a[0] = b[0] * 1e-12
        value[:1] = closed_form(np.array([c_min]), np.array([m_min]),
                                np.zeros(1), a[:1])
    if multi.any():
        f = _kernel(s, d, scale)
        value[multi] += tanh_sinh(lambda t, _: f(prof.eval(t), t),
                                  a[multi], b[multi])
    return float(value.sum())


def ball_mass_integral(mu, x, s: float, d: float, lo: float, hi: float,
                       scale: float = 1.0) -> float:
    """The integral I over (lo, hi) by the tanh-sinh rule between
    consecutive breakpoints of M clipped to (lo, hi); M is evaluated at
    every node in one ``ball_mass`` call.  +inf when x carries an atom
    and lo = 0."""
    if lo == 0.0 and mu.atom_mass_at(x) > 0.0:
        return math.inf
    edges = np.unique(np.clip(np.append(mu.ball_mass_breakpoints(x),
                                        [lo, hi]), lo, hi))
    f = _kernel(s, d, scale)
    return float(tanh_sinh(lambda t, _: f(mu.ball_mass(x, t), t),
                           edges[:-1], edges[1:]).sum())
