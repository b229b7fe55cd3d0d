"""Wolff potentials and their singular asymptotics.

The central object is

    W(x, r) = integral over t in (0, r] of (M(t) / t^(n-p))^(1/(p-1)) dt/t,

with ``M(t) = ball_mass(mu, x, t)`` and 1 < p <= n.  Where the measure
exposes a piecewise constant/power ball-mass profile at x (atomic
measures, grid measures through their cell table, radial profiles at
their center), every interval whose mass is a single term integrates in
closed form, c^(1/(p-1)) (b^e - a^e) / e, evaluated over all such
intervals in one array expression; at p = n constants contribute log
terms.  Intervals whose mass has several terms go through Simpson
quadrature in log t.  Measures without a profile at x, such as radial
ones seen off their center, fall back to a geometric t-grid quadrature.
``wolff_potential`` returns the value alone; ``wolff_potential_detailed``
also builds the per-interval ``WolffPiece`` record from the same arrays.
The value +inf is a first-class sentinel: it is the correct answer
whenever the evaluation point carries an atom.
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

MIN_PATH_SAMPLES = 6


@dataclass(frozen=True)
class WolffParams:
    """Exponent p in (1, n], upper radius r, and quadrature choice.

    ``quadrature`` is one of ``auto`` (closed piecewise form when the
    measure exposes one, else log-grid), ``exact-piecewise`` (require
    the closed form) or ``log-grid``.
    """

    p: float
    r: float
    quadrature: str = "auto"
    points_per_decade: int = 64

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p <= 1.0:
            raise ValueError("p must be a finite real > 1")
        if not self.r > 0.0:
            raise ValueError("r must be positive")
        if self.quadrature not in ("auto", "exact-piecewise", "log-grid"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.points_per_decade < 8:
            raise ValueError("points_per_decade must be at least 8")

    def validate_dim(self, n: int):
        if self.p > n:
            raise ValueError(f"p = {self.p} exceeds the dimension n = {n}")


@dataclass(frozen=True)
class WolffPiece:
    """Contribution of one t-interval to the integral, for audit."""

    t_lo: float
    t_hi: float
    value: float
    method: str


@dataclass(frozen=True)
class WolffValue:
    """A Wolff value with its per-interval breakdown: ``pieces`` holds one
    ``WolffPiece`` per integrated t-interval, in increasing t, and sums
    to ``value``.  Only ``wolff_potential_detailed`` builds it."""

    value: float
    pieces: tuple
    method: str


# how an interval's integral was obtained, by the codes the integrators
# return; WolffPiece.method holds the name
_METHODS = ("zero", "closed-form", "simpson", "simpson+origin-extension",
            "origin-divergence", "atom-divergence", "sub-floor-extension",
            "log-grid")
(_ZERO, _CLOSED, _SIMPSON, _ORIGIN_EXT, _ORIGIN_DIV, _ATOM, _SUB_FLOOR,
 _LOG_GRID) = range(len(_METHODS))


def _closed_form(c, m, a, b, n: int, p: float) -> np.ndarray:
    """Elementwise integral of (c t^m / t^(n-p))^(1/(p-1)) dt/t over
    (a, b) for c > 0: c^(1/(p-1)) (b^e - a^e) / e with
    e = (m - (n-p)) / (p-1); the log form where e = 0 (constants at
    p = n), and +inf where e <= 0 and the interval reaches t = 0."""
    e = (m - (n - p)) / (p - 1.0)
    cp = c ** (1.0 / (p - 1.0))
    out = np.full(c.shape, math.inf)
    log = (e == 0.0) & (a > 0.0)
    out[log] = cp[log] * np.log(b[log] / a[log])
    power = (e != 0.0) & ((a > 0.0) | (e > 0.0))
    e = e[power]
    out[power] = cp[power] * (b[power] ** e - a[power] ** e) / e
    return out


def _simpson_log(mass_of_t, a: float, b: float, n: int, p: float,
                 points_per_decade: int) -> float:
    """Composite Simpson rule in u = log t for the Wolff integrand over
    (a, b); assumes the mass function is smooth on the open interval."""
    if b <= a:
        return 0.0
    decades = math.log10(b / a)
    steps = max(8, int(math.ceil(points_per_decade * decades)))
    if steps % 2:
        steps += 1
    u = np.linspace(math.log(a), math.log(b), steps + 1)
    t = np.exp(u)
    mass = np.asarray(mass_of_t(t), dtype=float)
    f = np.where(mass > 0.0,
                 (mass / t ** (n - p)) ** (1.0 / (p - 1.0)),
                 0.0)
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    du = (u[-1] - u[0]) / steps
    return float((w * f).sum() * du / 3.0)


def _piece_value(terms, a: float, b: float, n: int, p: float,
                 points_per_decade: int):
    """Integrate one interval by quadrature, with mass M(t) the sum of
    the nonzero c t^m ``terms``; returns (value, method code)."""
    def mass_of_t(t):
        return sum(c * t ** m for c, m in terms)

    if a == 0.0:
        # piece reaching t = 0: divergence is decided by the smallest
        # exponent; when finite, integrate from a tiny cut and account
        # for the dominant term below it in closed form
        m_min = min(m for _, m in terms)
        c_min = sum(c for c, m in terms if m == m_min)
        e_min = (m_min - (n - p)) / (p - 1.0)
        if e_min <= 0.0:
            return math.inf, _ORIGIN_DIV
        cut = b * 1e-12
        head = c_min ** (1.0 / (p - 1.0)) * cut ** e_min / e_min
        body = _simpson_log(mass_of_t, cut, b, n, p, points_per_decade)
        return head + body, _ORIGIN_EXT
    return _simpson_log(mass_of_t, a, b, n, p, points_per_decade), _SIMPSON


def _integrate_profile(prof, n: int, p: float, r: float, t_min: float,
                       points_per_decade: int, force_quadrature: bool):
    """Integrals over the profile's intervals clipped to (t_min, r], as
    arrays (t_lo, t_hi, value, method code).

    An interval whose mass is a single term, constant or one power,
    integrates in closed form, all such intervals in one expression;
    intervals with several terms, and with ``force_quadrature`` every
    interval away from t = 0, go through Simpson quadrature."""
    bp = prof.breakpoints
    if prof.mass_at_zero > 0.0 and t_min == 0.0:
        first = bp[1] if bp.size > 1 else r
        return _as_arrays([(0.0, min(first, r), math.inf, _ATOM)])
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
    closed = (terms == 1) & ~(force_quadrature & (lo > 0.0))
    value = np.zeros(lo.size)
    value[closed] = _closed_form(coef[closed], expo[closed], lo[closed],
                                 hi[closed], n, p)
    code = np.where(closed, _CLOSED, _ZERO)
    for j in np.flatnonzero((terms > 0) & ~closed):
        live_terms = [(c, m) for c, m in ((const[j], 0.0),
                                          *((cs[j], m) for m, cs in powers))
                      if c != 0.0]
        value[j], code[j] = _piece_value(live_terms, lo[j], hi[j], n, p,
                                         points_per_decade)
    return lo, hi, value, code


def _as_arrays(rows):
    """(t_lo, t_hi, value, method code) rows as four arrays."""
    table = np.array(rows, dtype=float).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3].astype(int)


def _integrate_ball_mass(mu: Measure, x, n: int, p: float, r: float,
                         t_min: float, points_per_decade: int):
    """Integrals from ``ball_mass`` alone, as the same arrays as
    ``_integrate_profile``."""
    if mu.atom_mass_at(x) > 0.0 and t_min == 0.0:
        return _as_arrays([(0.0, r, math.inf, _ATOM)])
    rows = []
    floor = max(t_min, mu.small_scale_floor(x))
    if floor <= 0.0:
        floor = r * 1e-9
    floor = min(floor, r)
    if t_min < floor:
        # below the resolved scale, extend with the ambient-volume law
        # M(t) ~ M(floor) (t/floor)^n, which integrates in closed form
        m_floor = mu.ball_mass(x, floor)
        if m_floor > 0.0:
            e = (n - (n - p)) / (p - 1.0)
            cp = (m_floor / floor ** n) ** (1.0 / (p - 1.0))
            rows.append((t_min, floor, cp * (floor ** e - t_min ** e) / e,
                         _SUB_FLOOR))
    if floor < r:
        def mass_of_t(t):
            return np.array([mu.ball_mass(x, float(tt)) for tt in np.atleast_1d(t)])
        val = _simpson_log(mass_of_t, floor, r, n, p, points_per_decade)
        rows.append((floor, r, val, _LOG_GRID))
    return _as_arrays(rows)


def _integrals(mu: Measure, params: WolffParams, x, t_min: float):
    """Validate and dispatch: (t_lo, t_hi, value, method code) arrays and
    the overall method."""
    n = mu.dim
    params.validate_dim(n)
    x = _as_vec(x, n)
    if t_min < 0.0 or t_min >= params.r:
        raise ValueError("t_min must lie in [0, r)")
    prof = mu.radial_mass_profile(x)
    if prof is None and params.quadrature == "exact-piecewise":
        raise ValueError("measure has no closed ball-mass profile at this point")
    if prof is not None:
        force = params.quadrature == "log-grid"
        arrays = _integrate_profile(prof, n, params.p, params.r, t_min,
                                    params.points_per_decade, force)
        return arrays, "log-grid" if force else "exact-piecewise"
    arrays = _integrate_ball_mass(mu, x, n, params.p, params.r, t_min,
                                  params.points_per_decade)
    return arrays, "log-grid"


def wolff_potential_detailed(mu: Measure, params: WolffParams, x, *,
                             t_min: float = 0.0) -> WolffValue:
    """Wolff potential with the per-piece breakdown.

    ``t_min`` truncates the integral below, which is how scaled values
    are reported at points that carry an atom (full value +inf)."""
    (lo, hi, value, code), method = _integrals(mu, params, x, t_min)
    pieces = tuple(WolffPiece(float(a), float(b), float(v), _METHODS[k])
                   for a, b, v, k in zip(lo, hi, value, code))
    return WolffValue(float(value.sum()), pieces, method)


def wolff_potential(mu: Measure, params: WolffParams, x, *,
                    t_min: float = 0.0) -> float:
    """Wolff potential W(x, r); +inf when x carries an atom and
    ``t_min`` is 0.  Builds no per-piece record."""
    (_, _, value, _), _ = _integrals(mu, params, x, t_min)
    return float(value.sum())


def scaled_wolff(mu: Measure, params: WolffParams, x0, rho: float, value: float) -> float:
    """Scale a Wolff value by the factor whose limit Thm-style
    asymptotics concern: rho^kappa for p < n, 1/log(1/rho) for p = n."""
    n = mu.dim
    if params.p < n:
        return rho ** kappa_exponent(n, params.p) * value
    if rho >= 1.0:
        raise ValueError("log scaling needs rho < 1")
    return value / math.log(1.0 / rho)


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
        mass = (limit * (n - params.p) / (params.p - 1.0)) ** (params.p - 1.0)
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
        mass = limit ** (n - 1.0)
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
    masses = np.array([mu.ball_mass(x0, t) for t in scales])
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
    at atom center x_i, which carries the |x_i|^kappa scaling on its
    own: the own-atom piece equals ((p-1)/(n-p)) i (1 - (|x_i|/r)^kappa)
    exactly.  The full value there is +inf (kept in ``center_raw``)
    because each center carries an atom.
    """

    measure: AtomicMeasure
    centers: np.ndarray
    ball_radii: np.ndarray
    masses: np.ndarray
    indices: np.ndarray
    center_scaled: np.ndarray
    center_raw: np.ndarray
    ray_direction: np.ndarray
    ray_radii: np.ndarray
    ray_scaled: np.ndarray
    centers_diverge: bool
    ray_vanishes: bool
    thinness: object = None
    extras: dict = field(default_factory=dict)


def thin_witness_blowup(s: float, p: float, *, n: int = 3, count: int = 14,
                        r: float = 1.0, escape_direction=None,
                        classify: bool = False,
                        thinness_options: dict | None = None) -> WitnessReport:
    """Build the ball family E_s = union of B(2^-i e1, 2^-i i^-s) with the
    witness measure sum_i a_i delta at the centers, a_i = 2^(-i(n-p)) i^(p-1).

    The masses make the scaled Wolff potential at center i at least
    ((p-1)/(n-p)) * i * (1 - 2^(-i kappa)) while the total mass stays
    finite; along a ray that escapes the ball family the scaled values
    decay to 0.
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
    params = WolffParams(p, r)
    kappa = kappa_exponent(n, p)

    rho = 2.0 ** -idx.astype(float)
    # the integral above t = |x_i| carries the |x_i|^kappa scaling by
    # itself: its own-atom piece is ((p-1)/(n-p)) i (1 - (|x_i|/r)^kappa)
    center_scaled = np.array([
        wolff_potential(mu, params, centers[k], t_min=rho[k])
        for k in range(count)])
    center_raw = np.array([wolff_potential(mu, params, centers[k])
                           for k in range(count)])

    from .sets import BallUnion
    ball_set = BallUnion(centers, radii)
    if escape_direction is None:
        from .thinness import escaping_ray
        escape_direction = escaping_ray(ball_set, np.zeros(n), 0.75)
        if escape_direction is None:
            raise RuntimeError("no escaping ray found for the witness family")
    v = _as_vec(escape_direction, n)
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

    thin_report = None
    if classify:
        from .thinness import classify_set
        opts = dict(thinness_options or {})
        opts.setdefault("count", 8)
        thin_report = classify_set(ball_set, np.zeros(n), index=p,
                                   weighting="cap-p", **opts)
    return WitnessReport(mu, centers, radii, masses, idx, center_scaled,
                         center_raw, v, ray_radii, ray_scaled,
                         centers_diverge, ray_vanishes, thin_report,
                         extras={"linear_ramp": ramp, "ray_slope": ray_slope})
