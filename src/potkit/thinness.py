"""Thinness at a point via dyadic-annuli Wiener-type sums; this module
owns every step from annulus quotient to verdict.

A set E is thin at x0 when the series of annulus capacity terms
(``wiener_terms``, built on :func:`~potkit.capacity.annulus_term`)
converges; it fails to be thin when the series diverges.  Only finitely
many terms are computable, so the verdict protocol is explicit: fit the
tail decay on the trailing window, declare ``thin`` when the fitted
model is summable and the partial sums have gone quiet, ``not-thin``
when the trailing terms stay bounded below or fit a non-summable decay,
and ``inconclusive`` otherwise.  Reports carry the evidence so callers
can audit the call.

The small-ball law (``calibrate_small_ball_ratio``) gives the quotient
of balls far below any grid pitch, such as those of the canonical
family B(2^-i e1, 2^-i i^-s) in ``ball_sequence_terms``.  Thin sets
admit escaping rays, segments from x0 that miss E (``escaping_ray``);
``thin_witness_blowup`` puts atoms at the family's centers, whose Wolff
potential blows up along the centers and vanishes along such a ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import annulus_term
from .errors import HypothesisViolation, ResolutionError
from .fitting import TailFit, fit_tail, loglog_slope
from .geometry import kappa_exponent
from .grid import _as_vec
from .measures import AtomicMeasure
from .sets import BallUnion, ParametricSet, sphere_directions
from .wolff import WolffParams, wolff_potential

WEIGHTINGS = ("riesz-alpha", "cap-p", "cap-n")
CAUCHY_TOL = 0.1
RAY_DIRECTIONS = 512


@dataclass
class ThinnessReport:
    """Wiener terms, their partial sum, the fitted tail, the verdict and
    the evidence that produced it."""

    terms: np.ndarray
    partial_sum: float
    tail: TailFit | None
    verdict: str
    evidence: dict = field(default_factory=dict)


def wiener_terms(E: ParametricSet, x0, *, index: float, count: int,
                 weighting: str, delta: float = 1.0,
                 pitch_rel: float = 1.0 / 8.0) -> np.ndarray:
    """First ``count`` terms of the Wiener-type series at x0.

    weighting 'riesz-alpha' with index alpha < n and 'cap-p' with
    index p < n give capacity quotients; alpha = n gives i * C(E cap
    omega_i, Omega_i); weighting 'cap-n' (or p = n) gives
    i^(n-1) * cap_n(E cap omega_i, Omega_i).
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    if count < 4:
        raise HypothesisViolation("need at least 4 annulus terms")
    x0 = _as_vec(x0, E.dim)
    n = E.dim
    mode = "riesz" if weighting == "riesz-alpha" else "cap"
    if weighting == "cap-n":
        index = float(n)
    terms = np.zeros(count)
    for i in range(1, count + 1):
        num, den = annulus_term(E, x0, i, mode=mode, index=index,
                                delta=delta, pitch_rel=pitch_rel)
        if den is None:
            terms[i - 1] = 0.0
        elif index == n:
            weight = float(i) if mode == "riesz" else float(i) ** (n - 1)
            terms[i - 1] = weight * num
        else:
            terms[i - 1] = num / den
    return terms


def classify_thinness(terms) -> ThinnessReport:
    """Apply the verdict protocol to computed Wiener terms.

    thin: all terms at the floor (1e-12 times the largest term, or
    1e-12 when no term exceeds 1), or the fitted tail is summable
    (geometric ratio <= 0.95 or power exponent >= 1.1) and the last
    quarter of the terms adds less than ``CAUCHY_TOL`` of the total.
    not-thin: trailing terms bounded below by a positive constant with
    a flat-or-slower fit (geometric ratio >= 0.98 or power exponent
    <= 0.85).  Everything else: inconclusive.
    """
    t = np.asarray(terms, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("terms must be a nonempty 1-D array")
    partial = float(t.sum())
    floor = 1e-12 * max(1.0, float(t.max(initial=0.0)))
    if np.all(t <= floor):
        return ThinnessReport(t, partial, None, "thin",
                              {"reason": "all terms at floor",
                               "floor": floor})
    tail = fit_tail(t)
    quarter = max(1, t.size // 4)
    last_quarter = float(t[-quarter:].sum())
    cauchy = last_quarter <= CAUCHY_TOL * max(partial, 1e-300)
    trailing_min = float(t[-quarter:].min())
    evidence = {"cauchy_increment": last_quarter,
                "cauchy": cauchy,
                "trailing_min": trailing_min,
                "floor": floor}
    if tail.summable and cauchy:
        verdict = "thin"
    elif trailing_min > floor and (
            (tail.model == "geometric" and tail.rate >= 0.98)
            or (tail.model == "power" and tail.rate <= 0.85)
            or tail.model == "flat"):
        verdict = "not-thin"
    else:
        verdict = "inconclusive"
    return ThinnessReport(t, partial, tail, verdict, evidence)


@dataclass
class SmallBallModel:
    """Power-law fit ratio(rho) ~ amplitude * rho^exponent for the
    annulus quotient of a single ball of relative radius rho sitting on
    the annulus at unit relative distance from the center.

    Grid solves resolve only rho above a few pitches; the fitted law
    extrapolates the quotient for smaller balls, where the exact
    capacity scaling in the ball radius is the controlling behavior.
    """

    amplitude: float
    exponent: float
    rhos: tuple
    ratios: tuple
    r2: float


def calibrate_small_ball_ratio(n: int, *, p: float | None = None,
                               alpha: float | None = None,
                               rhos=(0.4, 0.28, 0.2),
                               pitch_rel: float = 1.0 / 6.0
                               ) -> SmallBallModel:
    """Fit the single-ball annulus quotient against the relative radius.

    The ball sits at distance equal to the annulus inner radius (unit
    scale), mirroring the canonical witness geometry.  The measured
    log-log slope should track the capacity scaling exponent (n - p or
    n - alpha)."""
    if (p is None) == (alpha is None):
        raise ValueError("give exactly one of p, alpha")
    mode = "cap" if p is not None else "riesz"
    index = p if p is not None else alpha
    ratios = []
    for rho in rhos:
        ball = BallUnion([[1.0] + [0.0] * (n - 1)], [rho])
        num, den = annulus_term(ball, [0.0] * n, 1, mode=mode, index=index,
                                delta=2.0, pitch_rel=pitch_rel)
        ratios.append(0.0 if den is None else num / den)
    ratios_a = np.asarray(ratios)
    if np.any(ratios_a <= 0):
        raise ResolutionError("calibration ball vanished below the grid")
    slope, intercept, r2 = loglog_slope(np.asarray(rhos), ratios_a)
    return SmallBallModel(float(math.exp(intercept)), float(slope),
                          tuple(rhos), tuple(ratios), float(r2))


def ball_sequence_terms(s: float, *, n: int, p: float, count: int,
                        model: SmallBallModel) -> np.ndarray:
    """Wiener quotients for the canonical family of balls
    B(2^-i e1, 2^-i i^-s): the i-th ball has relative radius i^-s on
    its annulus, so the calibrated single-ball law gives the quotient
    directly, including radii far below any affordable grid pitch."""
    if s <= 0:
        raise ValueError("s must be positive")
    if not 1 < p < n:
        raise HypothesisViolation("ball-sequence terms need p in (1, n)")
    i = np.arange(1, count + 1, dtype=float)
    return model.amplitude * i ** (-s * model.exponent)


def escaping_ray(E: ParametricSet, x0, delta: float = 1.0):
    """Search for a unit direction whose segment x0 + t v, t in (0,
    delta], misses E; returns the direction or None when all
    ``RAY_DIRECTIONS`` candidates hit E.  The base point itself is
    excluded (offset 1e-9 delta), so x0 may sit on the boundary of E.
    Directions come from a deterministic low-discrepancy sphere
    sequence, and each candidate is checked with the exact segment test
    of the set kind."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0 = _as_vec(x0, E.dim)
    for v in sphere_directions(E.dim, RAY_DIRECTIONS):
        if not E.segment_hits(x0 + 1e-9 * delta * v, x0 + delta * v):
            return v
    return None


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
    outside the ball family the scaled values decay to 0.  Raises
    ResolutionError when no candidate direction escapes.
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
        raise ResolutionError(
            f"no escaping ray among {RAY_DIRECTIONS} directions for the "
            "witness family")
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
