"""Thinness diagnosis at a point via dyadic-annuli Wiener-type sums.

A set E is thin at x0 when the series of annulus capacity terms
converges; it fails to be thin when the series diverges.  Only finitely
many terms are computable, so the verdict protocol is explicit: fit the
tail decay on the trailing window, declare ``thin`` when the fitted
model is summable and the partial sums have gone quiet, ``not-thin``
when the trailing terms stay bounded below or fit a non-summable decay,
and ``inconclusive`` otherwise.  Reports carry the evidence so callers
can audit the call.

Thin sets admit escaping rays: directions along which a segment from
x0 misses E entirely.  ``escaping_ray`` searches deterministic
low-discrepancy directions with exact segment intersection tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .capacity import SmallBallModel, annulus_term
from .errors import HypothesisViolation
from .fitting import TailFit, fit_tail
from .grid import _as_vec
from .sets import ParametricSet, sphere_directions

WEIGHTINGS = ("riesz-alpha", "cap-p", "cap-n")


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
    absolute = (mode == "riesz" and index == n) or \
               (mode == "cap" and index == n)
    terms = np.zeros(count)
    for i in range(1, count + 1):
        num, den = annulus_term(E, x0, i, mode=mode, index=index,
                                delta=delta, pitch_rel=pitch_rel)
        if den is None:
            terms[i - 1] = 0.0
        elif absolute:
            weight = float(i) if mode == "riesz" else float(i) ** (n - 1)
            terms[i - 1] = weight * num
        else:
            terms[i - 1] = num / den
    return terms


def classify_thinness(terms, *, floor: float = 0.0,
                      cauchy_tol: float = 0.1) -> ThinnessReport:
    """Apply the verdict protocol to computed Wiener terms.

    thin: all terms at the floor, or the fitted tail is summable
    (geometric ratio <= 0.95 or power exponent >= 1.1) and the last
    quarter of the terms adds less than cauchy_tol of the total.
    not-thin: trailing terms bounded below by a positive constant with
    a flat-or-slower fit (geometric ratio >= 0.98 or power exponent
    <= 0.85).  Everything else: inconclusive.
    """
    t = np.asarray(terms, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("terms must be a nonempty 1-D array")
    partial = float(t.sum())
    eff_floor = floor if floor > 0 else 1e-12 * max(1.0, float(t.max(initial=0.0)))
    if np.all(t <= eff_floor):
        return ThinnessReport(t, partial, None, "thin",
                              {"reason": "all terms at floor",
                               "floor": eff_floor})
    tail = fit_tail(t, floor=floor)
    quarter = max(1, t.size // 4)
    last_quarter = float(t[-quarter:].sum())
    cauchy = last_quarter <= cauchy_tol * max(partial, 1e-300)
    trailing_min = float(t[-quarter:].min())
    evidence = {"cauchy_increment": last_quarter,
                "cauchy": cauchy,
                "trailing_min": trailing_min,
                "floor": eff_floor}
    if tail.summable and cauchy:
        verdict = "thin"
    elif trailing_min > eff_floor and (
            (tail.model == "geometric" and tail.rate >= 0.98)
            or (tail.model == "power" and tail.rate <= 0.85)
            or tail.model == "flat"):
        verdict = "not-thin"
    else:
        verdict = "inconclusive"
    return ThinnessReport(t, partial, tail, verdict, evidence)


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


def escaping_ray(E: ParametricSet, x0, delta: float = 1.0,
                 directions: int = 512):
    """Search for a unit direction whose segment x0 + t v, t in (0,
    delta], misses E; returns the direction or None when the budget is
    exhausted.  The base point itself is excluded (offset 1e-9 delta),
    so x0 may sit on the boundary of E.  Directions come from a
    deterministic low-discrepancy sphere sequence, and each candidate
    is checked with the exact segment test of the set kind."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    x0 = _as_vec(x0, E.dim)
    for v in sphere_directions(E.dim, directions):
        if not E.segment_hits(x0 + 1e-9 * delta * v, x0 + delta * v):
            return v
    return None
