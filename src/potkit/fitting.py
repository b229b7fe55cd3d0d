"""Limit extrapolation and tail classification for sampled sequences.

Potential ratios along approach paths behave like ``L + A r^s`` with an
unknown correction exponent ``s``; series terms behave like ``c q^i`` or
``c i^-q``.  The helpers here estimate the structural parameters from
trailing windows by least squares in log coordinates and report fit
residuals so callers can decide how much to trust the answer.

Every singular-asymptotics report samples along a checked path
(``ApproachPath.values_along``), then scales and fits in
``singular_limit``, or tests a blow-up rate in ``decay_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation
from .grid import _as_vec

MIN_PATH_SAMPLES = 8


@dataclass(frozen=True)
class ApproachPath:
    """Sample points ``anchor + r * direction`` for a decreasing radius
    ladder; the standard probe geometry for limits at a point."""

    anchor: np.ndarray
    direction: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        anchor = _as_vec(self.anchor)
        direction = np.asarray(self.direction, dtype=float)
        if direction.shape != anchor.shape:
            raise ValueError("direction must match the anchor dimension")
        norm = float(np.linalg.norm(direction))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("direction must be a nonzero finite vector")
        radii = np.asarray(self.radii, dtype=float)
        if radii.ndim != 1 or radii.size == 0:
            raise ValueError("radii must be a nonempty 1-D array")
        if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
            raise ValueError("radii must be positive and strictly decreasing")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction / norm)
        object.__setattr__(self, "radii", radii)

    @staticmethod
    def geometric(anchor, direction, r0: float = 0.5, ratio: float = 0.5,
                  count: int = 20) -> "ApproachPath":
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if count < 1:
            raise ValueError("count must be positive")
        radii = r0 * ratio ** np.arange(count)
        return ApproachPath(anchor, direction, radii)

    def points(self) -> np.ndarray:
        return self.anchor[None, :] + self.radii[:, None] * self.direction[None, :]

    def require_anchor(self, anchor) -> None:
        if not np.allclose(self.anchor, anchor, rtol=0.0, atol=1e-12):
            raise ValueError("path must be anchored at x0")

    def values_along(self, anchor, f) -> np.ndarray:
        """``f`` at each point of a path anchored at ``anchor`` with at
        least ``MIN_PATH_SAMPLES`` samples."""
        self.require_anchor(anchor)
        if self.radii.size < MIN_PATH_SAMPLES:
            raise ValueError(
                f"path too short: need at least {MIN_PATH_SAMPLES} samples")
        return np.array([f(pt) for pt in self.points()])


def loglog_slope(x, y):
    """Least-squares slope and intercept of log y against log x over the
    entries where both are positive; returns (slope, intercept, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    if keep.sum() < 2:
        raise ValueError("need at least two positive samples for a log-log fit")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = A @ coef
    ss_res = float(((ly - fit) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


@dataclass(frozen=True)
class LimitFit:
    """Extrapolated limit of samples v(r) ~ limit + amplitude * r**exponent."""

    limit: float
    amplitude: float
    exponent: float | None
    residual: float
    window: int


def fit_limit(radii, values, window: int | None = None) -> LimitFit:
    """Extrapolate ``values`` sampled at decreasing ``radii`` to r -> 0.

    The correction exponent is estimated from successive differences in
    log-log coordinates, then the limit comes from a linear fit of
    ``values`` against ``radii**exponent`` on the trailing window.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.shape != v.shape or r.ndim != 1:
        raise ValueError("radii and values must be matching 1-D arrays")
    if r.size < 4:
        raise ValueError("need at least 4 samples to extrapolate a limit")
    if np.any(np.diff(r) >= 0):
        raise ValueError("radii must be strictly decreasing")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if window is None:
        window = max(4, r.size // 2)
    window = min(window, r.size)
    rw, vw = r[-window:], v[-window:]

    scale = max(1.0, float(np.max(np.abs(vw))))
    diffs = np.abs(np.diff(vw))
    live = diffs > 1e-14 * scale
    if live.sum() < 2:
        # already converged to machine level inside the window
        return LimitFit(float(vw[-1]), 0.0, None, float(diffs.max(initial=0.0)), window)
    s, _, _ = loglog_slope(rw[:-1][live], diffs[live])
    if s <= 0.05:
        # corrections do not decay; report the trailing mean with the
        # observed spread as the residual
        tail = vw[-3:]
        return LimitFit(float(tail.mean()), 0.0, float(s),
                        float(np.ptp(tail)), window)
    basis = np.stack([np.ones_like(rw), rw ** s], axis=1)
    coef, *_ = np.linalg.lstsq(basis, vw, rcond=None)
    resid = float(np.max(np.abs(basis @ coef - vw)))
    return LimitFit(float(coef[0]), float(coef[1]), float(s), resid, window)


def fit_log_limit(radii, values) -> LimitFit:
    """Extrapolate ``values`` ~ limit + amplitude / log(1/r), sampled at
    decreasing ``radii`` below 1, to r -> 0.

    Values at a critical exponent, such as W / log(1/r) at p = n, carry
    a correction of order 1/log(1/r), which a power of r cannot
    extrapolate; so the fit is linear in z = 1/log(1/r) on the trailing
    half, at least 4 samples, and ``exponent`` reports its power, 1."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.shape != v.shape or r.ndim != 1 or r.size < 4:
        raise ValueError("need matching 1-D radii and values, at least 4")
    z = 1.0 / np.log(1.0 / r)
    w = max(4, math.ceil(z.size / 2))
    design = np.stack([np.ones(w), z[-w:]], axis=1)
    coef, *_ = np.linalg.lstsq(design, v[-w:], rcond=None)
    residual = float(np.max(np.abs(design @ coef - v[-w:])))
    return LimitFit(float(coef[0]), float(coef[1]), 1.0, residual, w)


@dataclass(frozen=True)
class TailFit:
    """Classification of a nonnegative series tail.

    ``model`` is one of ``zero``, ``geometric``, ``power`` or ``flat``;
    ``rate`` is the ratio q for the geometric model and the exponent q
    for the power model; ``tail_bound`` estimates the sum beyond the
    computed terms (inf when the fitted model is not summable).
    """

    model: str
    rate: float
    r2: float
    tail_bound: float
    summable: bool
    window: int


def fit_tail(terms) -> TailFit:
    """Fit the trailing half of a nonnegative sequence indexed 1, 2, ...

    Compares a geometric model ``c q^i`` against a power model
    ``c i^-q`` in log coordinates and keeps the better one.  Terms at
    or below 1e-12 times the largest term (or 1e-12) count as zero.
    """
    t = np.asarray(terms, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("terms must be a nonempty 1-D array")
    if np.any(t < 0):
        raise ValueError("terms must be nonnegative")
    floor = 1e-12 * max(1.0, float(t.max(initial=0.0)))
    idx = np.arange(1, t.size + 1, dtype=float)
    window = max(4, t.size // 2)
    window = min(window, t.size)
    ti, ii = t[-window:], idx[-window:]
    live = ti > floor
    if not np.any(live):
        return TailFit("zero", 0.0, 1.0, 0.0, True, window)
    if live.sum() < 3:
        if ti[-1] <= floor:
            return TailFit("zero", 0.0, 1.0, float(ti[live].sum()), True, window)
        return TailFit("flat", 0.0, 0.0, math.inf, False, window)

    lt = np.log(ti[live])
    # geometric: log t = a + i log q
    Ag = np.stack([ii[live], np.ones(live.sum())], axis=1)
    cg, *_ = np.linalg.lstsq(Ag, lt, rcond=None)
    rg = Ag @ cg - lt
    # power: log t = a - q log i
    Ap = np.stack([np.log(ii[live]), np.ones(live.sum())], axis=1)
    cp, *_ = np.linalg.lstsq(Ap, lt, rcond=None)
    rp = Ap @ cp - lt
    ss = float(((lt - lt.mean()) ** 2).sum())
    r2g = 1.0 if ss == 0 else 1.0 - float((rg ** 2).sum()) / ss
    r2p = 1.0 if ss == 0 else 1.0 - float((rp ** 2).sum()) / ss

    i_last = float(idx[-1])
    t_last = float(t[-1])
    if r2g >= r2p:
        q = math.exp(cg[0])
        if q < 1.0:
            bound = t_last * q / (1.0 - q)
            return TailFit("geometric", q, r2g, bound, q <= 0.95, window)
        return TailFit("geometric", q, r2g, math.inf, False, window)
    q = -float(cp[0])
    if q > 1.0:
        bound = t_last * i_last / (q - 1.0)
        return TailFit("power", q, r2p, bound, q >= 1.1, window)
    return TailFit("power", q, r2p, math.inf, False, window)


@dataclass(frozen=True)
class LimitReport:
    """Sampled scaled values along a path together with the fitted limit."""

    radii: np.ndarray
    values: np.ndarray
    limit: float
    correction_exponent: float | None
    residual: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DecayReport:
    """Growth-rate check of potential values along an approach path.

    ``measured_exponent`` is the fitted blow-up rate sigma in
    ``value ~ radius**(-sigma)``; the check passes when it does not
    exceed ``bound_exponent + slack``.  ``constant`` is the smallest
    admissible prefactor for the bound at the sampled radii.
    """

    radii: np.ndarray
    values: np.ndarray
    measured_exponent: float
    bound_exponent: float
    constant: float
    hypothesis_constant: float
    passed: bool
    slack: float = 0.0
    extras: dict = field(default_factory=dict)


def blowup_exponent(radii, values) -> float:
    """Fitted sigma with ``values ~ C + A radii**(-sigma)`` on the
    trailing half.

    The log-log slope is taken of the successive differences
    |v_(k+1) - v_k| against r_k, which a constant offset C does not
    bias; sigma is negative when the values converge, and 0 when fewer
    than two differences are positive."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    half = max(2, r.size // 2)
    r, v = r[-half:], v[-half:]
    diffs = np.abs(np.diff(v))
    keep = diffs > 0
    if keep.sum() < 2:
        return 0.0
    slope, _, _ = loglog_slope(r[:-1][keep], diffs[keep])
    return -slope


def singular_limit(radii, values, kappa: float, *,
                   window: int | None = None) -> LimitReport:
    """Limit of ``values`` scaled to the fundamental profile at r -> 0.

    For kappa > 0 the scaled values are r^kappa * v, extrapolated by
    ``fit_limit`` on ``window``; at a critical exponent, kappa = 0, they
    are v / log(1/r) at radii below 1, extrapolated by ``fit_log_limit``.
    The report's extras hold the unscaled values v as "raw"."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("path passes through an atom; a value is infinite")
    if kappa == 0.0:
        if r.max() >= 1.0:
            raise ValueError("log(1/r) scaling requires path radii below 1")
        scaled = v / np.log(1.0 / r)
        fit = fit_log_limit(r, scaled)
    else:
        scaled = r ** kappa * v
        fit = fit_limit(r, scaled, window)
    return LimitReport(r, scaled, fit.limit, fit.exponent, fit.residual,
                       extras={"raw": v})


def growth_constant(scales, masses, m: float, atom: float) -> float:
    """Smallest C with ``masses <= C scales**m`` at the decreasing
    ``scales``, after testing the growth hypothesis mu(B(x0, t)) <= C t^m.

    Raises ``HypothesisViolation`` for an atom at x0 when m > 0, and when
    the log-log slope of the masses at the 8 smallest scales with
    positive mass falls below m - 0.15."""
    if m > 0.0 and atom > 0.0:
        raise HypothesisViolation("measure carries an atom at x0")
    positive = masses > 0
    if positive.sum() >= 3:
        slope, _, _ = loglog_slope(scales[positive][-8:], masses[positive][-8:])
        if slope < m - 0.15:
            raise HypothesisViolation(
                f"ball mass grows like t^{slope:.3f} at small scales, "
                f"violating the t^{m} hypothesis")
    return float(np.max(masses / scales ** m)) if positive.any() else 0.0


def decay_report(radii, values, bound: float, hyp_const: float, *,
                 slack: float = 0.0, extras: dict | None = None) -> DecayReport:
    """Blow-up rate of potential ``values`` along decreasing ``radii``
    against the exponent ``bound``: passes when it is at most
    ``bound + slack``."""
    if not np.all(np.isfinite(values)):
        raise HypothesisViolation("potential infinite on the path")
    measured = blowup_exponent(radii, values)
    constant = float(np.max(values * radii ** bound))
    return DecayReport(radii, values, measured, bound, constant, hyp_const,
                       bool(measured <= bound + slack), slack,
                       extras=extras or {})
