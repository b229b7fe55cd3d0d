"""Eigenvalue cones of curvature type.

Membership predicates for three closed convex cone families over
eigenvalue vectors, sampled inclusion checks between cones, and the
critical exponent p_Gamma obtained by locating the cone boundary along
the ray (-a, 1, ..., 1).

All memberships are invariant under permutation and positive scaling of
the eigenvalue vector; predicates normalize to unit sup-norm and accept
values down to -1e-12, so boundary points count as members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConeError, HypothesisViolation

MEMBER_TOL = 1e-12
RAYS = 512
MAX_REPORT = 8

__all__ = [
    "MEMBER_TOL",
    "Cone",
    "InclusionReport",
    "BridgeReport",
    "sigma_values",
    "inclusion_check",
    "p_gamma",
    "fully_nonlinear_bridge",
]


def _rows(lam) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise HypothesisViolation("eigenvalue vectors must be finite")
    return arr


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    # zero rows stay zero; every closed cone contains the origin
    sup = np.max(np.abs(arr), axis=1, keepdims=True)
    return np.where(sup > 0.0, arr / np.where(sup > 0.0, sup, 1.0), arr)


def sigma_values(lam, k: int) -> np.ndarray:
    """Elementary symmetric values sigma_1..sigma_k of each row, via the
    coefficient recurrence of the product of (1 + lam_i x)."""
    arr = _rows(lam)
    m, n = arr.shape
    if not 1 <= k <= n:
        raise HypothesisViolation("sigma order must lie in 1..n")
    coef = np.zeros((m, k + 1))
    coef[:, 0] = 1.0
    for i in range(n):
        hi = min(i + 1, k)
        coef[:, 1:hi + 1] += arr[:, i:i + 1] * coef[:, 0:hi]
    return coef[:, 1:]


def _a_values(arr: np.ndarray, p: float) -> np.ndarray:
    ext = arr.min(axis=1) if p >= 2.0 else arr.max(axis=1)
    return arr.sum(axis=1) + (p - 2.0) * ext


def _r_values(arr: np.ndarray, r: int) -> np.ndarray:
    n = arr.shape[1]
    srt = np.sort(arr, axis=1)
    head = srt[:, :r].sum(axis=1)
    return (n - r) * head + r * (srt.sum(axis=1) - head)


def _gamma_values(arr: np.ndarray, k: int) -> np.ndarray:
    n = arr.shape[1]
    sig = sigma_values(arr, k)
    scale = np.array([math.comb(n, l) for l in range(1, k + 1)], dtype=float)
    return (sig / scale).min(axis=1)


@dataclass(frozen=True)
class Cone:
    """One cone family member: kind "A" carries exponent p in (1, inf),
    "R" an integer r in [1, n/2], "Gamma" an integer k in [1, n], and
    "custom" a permutation-symmetric function with homogeneity degree."""

    kind: str
    param: float | int | None = None
    func: object = None
    degree: float | None = None

    @staticmethod
    def a(p: float) -> "Cone":
        if not p > 1.0:
            raise HypothesisViolation("p must exceed 1")
        return Cone("A", float(p))

    @staticmethod
    def r(r: int) -> "Cone":
        if not (isinstance(r, (int, np.integer)) and r >= 1):
            raise HypothesisViolation("r must be a positive integer")
        return Cone("R", int(r))

    @staticmethod
    def gamma(k: int) -> "Cone":
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise HypothesisViolation("k must be a positive integer")
        return Cone("Gamma", int(k))

    @staticmethod
    def custom(func, degree: float) -> "Cone":
        if not degree > 0:
            raise HypothesisViolation("homogeneity degree must be positive")
        return Cone("custom", None, func, float(degree))

    def label(self) -> str:
        if self.kind == "custom":
            return "custom"
        return f"{self.kind}({self.param})"

    def values(self, lam) -> np.ndarray:
        """Defining function per row, normalized to unit sup-norm inputs;
        membership is value >= -MEMBER_TOL."""
        arr = _unit_rows(_rows(lam))
        if self.kind == "A":
            return _a_values(arr, self.param)
        if self.kind == "R":
            if self.param > arr.shape[1] / 2:
                raise HypothesisViolation("r must not exceed n/2")
            return _r_values(arr, self.param)
        if self.kind == "Gamma":
            if self.param > arr.shape[1]:
                raise HypothesisViolation("k must not exceed n")
            return _gamma_values(arr, self.param)
        return np.array([float(self.func(row)) for row in arr])

    def contains(self, lam) -> np.ndarray | bool:
        out = self.values(lam) >= -MEMBER_TOL
        return out if np.ndim(lam) > 1 else bool(out[0])


def _spot_check_symmetry(cone: Cone, n: int) -> None:
    # custom functions promise permutation symmetry; probe three shuffles
    if cone.kind != "custom":
        return
    rng = np.random.default_rng(12)
    v = rng.standard_normal(n)
    ref = float(cone.func(v))
    for _ in range(3):
        perm = rng.permutation(n)
        if not math.isclose(float(cone.func(v[perm])), ref,
                            rel_tol=1e-9, abs_tol=1e-9):
            raise HypothesisViolation(
                "custom cone function is not permutation symmetric")


def _ray_value(cone: Cone, n: int, a: float) -> float:
    vec = np.full(n, 1.0)
    vec[0] = -a
    return float(cone.values(vec)[0])


def p_gamma(cone: Cone, n: int, *, tol: float = 1e-10) -> float:
    """Critical exponent 1 + (n-1)/a*, where a* is the zero of the
    cone's defining function along (-a, 1, ..., 1), found by bisection
    to `tol` and sharpened by one secant step.

    Returns math.inf when the function is still positive at a = n - 1,
    so no admissible exponent exists; raises DegenerateConeError when
    the ray exits the cone immediately."""
    if n < 2:
        raise HypothesisViolation("need at least two eigenvalues")
    _spot_check_symmetry(cone, n)
    lo = 1e-9 * (n - 1)
    g_lo = _ray_value(cone, n, lo)
    if g_lo <= 0.0:
        raise DegenerateConeError(
            "defining function is nonpositive at the flat end of the ray")
    hi = float(n - 1)
    g_hi = _ray_value(cone, n, hi)
    if g_hi > 1e-11:
        return math.inf
    while hi - lo > max(tol, 1e-13):
        mid = 0.5 * (lo + hi)
        g_mid = _ray_value(cone, n, mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    # the families are piecewise linear in a, so one secant step on the
    # final bracket lands machine-close to the root
    a_star = lo if g_hi == g_lo else lo - g_lo * (hi - lo) / (g_hi - g_lo)
    return 1.0 + (n - 1) / a_star


def _boundary_a(cone: Cone, n: int) -> float:
    try:
        p = p_gamma(cone, n)
    except DegenerateConeError:
        return 0.0
    if math.isinf(p):
        return float(n - 1)
    return (n - 1) / (p - 1.0)


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of sampling the inner cone and asserting outer membership;
    counterexample vectors are recorded verbatim."""

    inner: str
    outer: str
    n: int
    tested: int
    counterexamples: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return len(self.counterexamples) == 0


def inclusion_check(inner: Cone, outer: Cone, n: int, *,
                    samples: int = 100_000, seed: int = 0) -> InclusionReport:
    """Rejection-samples `samples` unit vectors of the inner cone, adds
    `RAYS` points of the boundary-ray family (-a, 1, ..., 1) up to the
    inner boundary, and reports the first `MAX_REPORT` sampled points
    that escape the outer cone."""
    if n < 2:
        raise HypothesisViolation("need at least two eigenvalues")
    rng = np.random.default_rng(seed)
    bad: list[list[float]] = []
    tested = 0
    kept = 0
    while kept < samples:
        draw = rng.standard_normal((max(4 * (samples - kept), 1024), n))
        draw /= np.linalg.norm(draw, axis=1, keepdims=True)
        pts = draw[inner.contains(draw)][:samples - kept]
        if pts.shape[0] == 0:
            continue
        kept += pts.shape[0]
        tested += pts.shape[0]
        out = outer.contains(pts)
        for row in pts[~out]:
            if len(bad) < MAX_REPORT:
                bad.append([float(v) for v in row])
    a_star = _boundary_a(inner, n)
    if a_star > 0.0:
        grid = np.linspace(a_star / RAYS, a_star, RAYS)
        ray_pts = np.ones((RAYS, n))
        ray_pts[:, 0] = -grid
        ray_pts = ray_pts[inner.contains(ray_pts)]
        tested += ray_pts.shape[0]
        for row in ray_pts[~outer.contains(ray_pts)]:
            if len(bad) < MAX_REPORT:
                bad.append([float(v) for v in row])
    return InclusionReport(inner.label(), outer.label(), n, tested,
                           tuple(tuple(v) for v in bad))


@dataclass(frozen=True)
class BridgeReport:
    """Cone check over Hessian-eigenvalue samples plus the singular
    profile selected by the critical exponent: a power |x - x0|^exponent
    when p_index < n, a logarithm when p_index = n."""

    p_index: float
    profile: str
    exponent: float | None
    checked: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def fully_nonlinear_bridge(hessian_eigenvalues, cone: Cone) -> BridgeReport:
    """Verifies -lam(D2 u) in the cone on each sample row, recording the
    first `MAX_REPORT` violations, and returns the critical exponent
    with its predicted singular profile."""
    arr = _rows(hessian_eigenvalues)
    n = arr.shape[1]
    inside = np.asarray(cone.contains(-arr)).reshape(arr.shape[0])
    bad = [tuple(float(v) for v in row)
           for row in arr[~inside][:MAX_REPORT]]
    p = p_gamma(cone, n)
    if math.isinf(p):
        profile, exponent = "none", None
    elif math.isclose(p, n, rel_tol=0.0, abs_tol=1e-9):
        profile, exponent = "log", None
    else:
        profile, exponent = "power", -(n - p) / (p - 1.0)
    return BridgeReport(p, profile, exponent, arr.shape[0], tuple(bad))
