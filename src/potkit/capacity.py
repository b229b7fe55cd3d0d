"""Riesz capacity (discretized linear program) and variational p-capacity
(grid energy minimization), with annulus ratio terms for thinness tests.

The Riesz capacity of E inside a region Omega is the least total mass m
whose potential integral k_alpha * m is >= 1 everywhere on E, with
kernel k_alpha(x,y) = |x-y|^(alpha-n) for alpha < n and log(D/|x-y|)
for alpha = n (D = diameter of Omega).  The discretization places mass
sites on E itself, enforces the constraint on a finer sample of E, and
reports a dual-feasible lower bound along with the primal-feasible
value, so the pair certifies the discretized program.

The variational p-capacity of a compact K inside Omega is the minimum
of sum over cells |grad u|^p h^n over grid functions with u = 1 on the
nodes of cells meeting K and u = 0 outside Omega.  The solve runs on the
smallest piece of the grid that its pinned data determine: it halves
each axis along which the pinned nodes and values are mirror-symmetric,
and the minimum over the piece, counted 2^k times, is the full one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, ResolutionError
from .fitting import loglog_slope
from .geometry import dist2, kappa_exponent, sphere_area
from .grid import EvaluationGrid, _as_vec
from .penergy import (PEnergyProblem, minimize_p_energy,
                      scatter_cells_to_nodes)
from .riesz import _ball_average, _kernel
from .sets import TIE_REL_TOL, ParametricSet, RestrictedSet, Sphere


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Region where the competitor function may be positive.

    Supplies a grid over a bounding box and the mask of nodes pinned to
    zero (the complement of the open region).
    """

    def grid(self, h: float) -> EvaluationGrid:
        return EvaluationGrid.from_box(*self.box, h)

    def zero_mask(self, grid: EvaluationGrid) -> np.ndarray:
        raise NotImplementedError

    @property
    def diameter(self) -> float:
        lo, hi = self.box
        return float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))

    @property
    def box(self):
        raise NotImplementedError

    def scaled(self, lam: float) -> "Domain":
        raise NotImplementedError


@dataclass(frozen=True)
class BoxDomain(Domain):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = _as_vec(self.lo)
        hi = _as_vec(self.hi, lo.size)
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    def zero_mask(self, grid: EvaluationGrid) -> np.ndarray:
        return grid.boundary_node_mask()

    @property
    def box(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    def scaled(self, lam: float) -> "BoxDomain":
        return BoxDomain(tuple(lam * v for v in self.lo),
                         tuple(lam * v for v in self.hi))


@dataclass(frozen=True)
class BallDomain(Domain):
    center: tuple
    radius: float

    def __post_init__(self):
        c = _as_vec(self.center)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def zero_mask(self, grid: EvaluationGrid) -> np.ndarray:
        d2 = grid.node_dist2(np.asarray(self.center))
        return d2 >= self.radius ** 2 * (1.0 - TIE_REL_TOL)

    @property
    def box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def scaled(self, lam: float) -> "BallDomain":
        return BallDomain(tuple(lam * v for v in self.center),
                          lam * self.radius)


@dataclass(frozen=True)
class ShellDomain(Domain):
    """Open shell r_in < |x - center| < r_out."""

    center: tuple
    r_in: float
    r_out: float

    def __post_init__(self):
        c = _as_vec(self.center)
        if not 0.0 <= self.r_in < self.r_out:
            raise ValueError("need 0 <= r_in < r_out")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def zero_mask(self, grid: EvaluationGrid) -> np.ndarray:
        d2 = grid.node_dist2(np.asarray(self.center))
        outside = d2 >= self.r_out ** 2 * (1.0 - TIE_REL_TOL)
        inside = d2 <= self.r_in ** 2 * (1.0 + TIE_REL_TOL)
        return outside | inside

    @property
    def box(self):
        c = np.asarray(self.center)
        return c - self.r_out, c + self.r_out

    def scaled(self, lam: float) -> "ShellDomain":
        return ShellDomain(tuple(lam * v for v in self.center),
                           lam * self.r_in, lam * self.r_out)


# ---------------------------------------------------------------------------
# estimates


@dataclass
class CapacityEstimate:
    """Capacity value with optional certificates bracketing it.

    ``lower`` is dual-feasible (a true lower bound for the discretized
    program) and ``upper`` primal-feasible; ``value`` always sits in
    between when both are present.
    """

    value: float
    method: str
    h: float
    lower: float | None = None
    upper: float | None = None
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("capacity is nonnegative")
        if self.lower is not None and self.upper is not None:
            if not (self.lower <= self.value * (1 + 1e-12) + 1e-300
                    and self.value <= self.upper * (1 + 1e-12) + 1e-300):
                raise ValueError("certificates must bracket the value")


# ---------------------------------------------------------------------------
# Riesz capacity LP


_SITE_CAP = 3500
EQ_MAX_ITER = 6000
EQ_TOL = 1e-7


def _riesz_kernel_matrix(x, y, alpha, n, diam, r_moll):
    """Riesz kernel between point sets, built in place, with distances
    below ``r_moll`` replaced by the kernel's average over that ball."""
    d = dist2(x[:, None, :], y[None, :, :])
    near = np.sqrt(d, out=d) < r_moll
    k = _kernel(np.maximum(d, r_moll, out=d), alpha, n, diam, out=d)
    np.copyto(k, _ball_average(r_moll, alpha, n, diam), where=near)
    return k


def _decimate_sites(points: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic thinning: bucket onto coarser lattices until the
    count fits.  Keeps one representative per occupied bucket."""
    if len(points) <= cap:
        return points
    lo = points.min(axis=0)
    span = float(np.max(points.max(axis=0) - lo)) or 1.0
    pitch = span / max(2, int(round(len(points) ** (1.0 / points.shape[1]))))
    pts = points
    while len(pts) > cap:
        keys = np.floor((points - lo) / pitch + 1e-9).astype(np.int64)
        _, idx = np.unique(keys, axis=0, return_index=True)
        pts = points[np.sort(idx)]
        pitch *= 1.3
    return pts


def riesz_capacity(E: ParametricSet, omega: Domain, alpha: float,
                   h: float) -> CapacityEstimate:
    """Discretized Riesz capacity of E in Omega with certificates.

    Sites carry the candidate masses and sit on E at spacing h; the
    potential constraint is enforced on a finer sample (spacing h/2,
    at least four points per grid cell meeting E).  Equilibrium masses
    come from multiplicative updates m <- m / (K m), at most
    ``EQ_MAX_ITER`` of them, until the site potentials are within
    ``EQ_TOL`` of 1; the fixed point has potential 1 on every charged
    site.
    """
    n = E.dim
    if not 1.0 < alpha <= n:
        raise HypothesisViolation(f"alpha must lie in (1, n], got {alpha}")
    lo, hi = omega.box
    elo, ehi = E.bounding_box()
    if np.any(elo < lo - 1e-9) or np.any(ehi > hi + 1e-9):
        raise HypothesisViolation("E must be contained in Omega")
    diam = omega.diameter
    sites = E.sample_points(h)
    if len(sites) == 0:
        return CapacityEstimate(0.0, "LP-discrete", h, lower=0.0, upper=0.0)
    sites = _decimate_sites(sites, _SITE_CAP)
    fine = _decimate_sites(E.sample_points(h / 2.0), 12 * _SITE_CAP)
    r_moll = 0.5 * h
    K = _riesz_kernel_matrix(sites, sites, alpha, n, diam, r_moll)
    m = np.full(len(sites), 1.0 / max(K.sum(axis=1).max(), 1e-300))
    for it in range(1, EQ_MAX_ITER + 1):
        pot = K @ m
        if np.max(np.abs(pot - 1.0)) <= EQ_TOL:
            break
        m = m / np.maximum(pot, 1e-300)
    site_pot = K @ m
    if np.max(np.abs(site_pot - 1.0)) > 100 * EQ_TOL:
        raise ResolutionError(
            "equilibrium iteration did not converge; the resolution "
            "is too coarse for this set")
    # fine-sample potentials in row blocks; the full kernel block would
    # not fit in memory at production site counts
    fine_lo, fine_hi = math.inf, -math.inf
    for start in range(0, len(fine), 2048):
        block = _riesz_kernel_matrix(fine[start:start + 2048], sites,
                                     alpha, n, diam, r_moll) @ m
        fine_lo = min(fine_lo, float(block.min()))
        fine_hi = max(fine_hi, float(block.max()))
    min_pot = float(min(fine_lo, site_pot.min()))
    if min_pot <= 0:
        raise ResolutionError("potential vanished on a constraint point")
    m = m / min_pot
    value = float(m.sum())
    lower = value * min_pot / max(float(site_pot.max()), fine_hi)
    return CapacityEstimate(value, "LP-discrete", h, lower=lower,
                            upper=value, iterations=it,
                            extras={"sites": len(sites),
                                    "constraints": len(fine)})


# ---------------------------------------------------------------------------
# variational p-capacity


def p_capacity(K: ParametricSet, omega: Domain, p: float, h: float, *,
               fold_center=None) -> CapacityEstimate:
    """Variational p-capacity of K in Omega at grid pitch h.

    Minimizes the cell p-energy with u pinned to 1 on nodes of cells
    meeting K and to 0 outside the open region.  Up to three coarser
    levels (pitch 2h, 4h, 8h, while each has an even cell count on every
    axis, at least 5^n nodes and a free node) warm-start the fine level
    through :func:`~potkit.penergy.minimize_p_energy`'s cascade, which
    starts every finer level inside [0, 1]; the warm start never changes
    the minimizer, only the path to it.

    The solve folds every mirror plane of its pinned data: each axis with
    an even cell count whose fine-grid pinned mask and values equal their
    flip along it.  Every cascade level keeps only the upper half of each
    folded axis, with free nodes on the middle plane unless they are
    pinned, and the energy counts 2^k copies of it.  The energy is convex
    and invariant under the reflections, so a symmetric minimizer exists
    and the folded minimum equals the full one.

    ``fold_center``: a claim that K and Omega are mirror-symmetric about
    each coordinate plane through this point; raises HypothesisViolation
    when the point is not the middle of the domain box or an axis does
    not fold.
    """
    if p <= 1.0:
        raise HypothesisViolation(f"p must exceed 1, got {p}")
    n = K.dim

    def pinned(hh: float):
        grid = omega.grid(hh)
        meets = K.meets_cells(grid)
        ones = scatter_cells_to_nodes(meets.astype(float), grid) > 0
        return grid, omega.zero_mask(grid) | ones, ones

    fine = pinned(h)
    axes = [a for a in range(n) if fine[0].cells[a] % 2 == 0
            and all(np.array_equal(x, np.flip(x, a)) for x in fine[1:])]
    if fold_center is not None:
        lo, hi = omega.box
        mid = _as_vec(fold_center, n)
        if (not np.allclose(mid - lo, hi - mid, rtol=1e-9, atol=1e-12)
                or len(axes) < n):
            raise HypothesisViolation(
                "K and Omega are not mirror-symmetric about fold_center "
                "at this pitch")

    def folded(grid, fixed, ones) -> PEnergyProblem:
        cut = [grid.cells[a] // 2 if a in axes else 0 for a in range(n)]
        sl = tuple(slice(c, None) for c in cut)
        lo = tuple(v + grid.h * c for v, c in zip(grid.lo, cut))
        half = EvaluationGrid(lo, grid.hi, tuple(
            c - k for c, k in zip(grid.cells, cut)), grid.h)
        return PEnergyProblem(half, p, fixed[sl],
                              np.where(ones[sl], 1.0, 0.0),
                              coef=float(2 ** len(axes)))

    # coarse levels, coarsest first: each halves the cell counts of the
    # level above it (from_box raises when 2h does not divide the box)
    coarse = []
    while len(coarse) < 3:
        try:
            level = pinned(h * 2 ** (len(coarse) + 1))
        except ValueError:
            break
        grid, fixed, _ = level
        if (grid.n_nodes < 5 ** n or np.any(np.asarray(grid.cells) % 2)
                or np.all(fixed)):
            break
        coarse.insert(0, folded(*level))
    _, info = minimize_p_energy(folded(*fine), coarse=coarse)
    return CapacityEstimate(max(info.energy, 0.0), "grid-variational", h,
                            iterations=info.iterations,
                            extras={"grad_norm": info.grad_norm,
                                    "levels": len(coarse) + 1,
                                    "folded": len(axes)})


def condenser_capacity(r: float, R: float, n: int, p: float) -> float:
    """Closed-form cap_p of the spherical condenser (ball r inside ball
    R): |S^(n-1)| kappa^(p-1) (r^-kappa - R^-kappa)^(1-p) for p < n and
    |S^(n-1)| (log(R/r))^(1-n) for p = n."""
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    if p == n:
        return sphere_area(n) * math.log(R / r) ** (1 - n)
    kappa = kappa_exponent(n, p)
    return (sphere_area(n) * kappa ** (p - 1)
            * (r ** -kappa - R ** -kappa) ** (1 - p))


# ---------------------------------------------------------------------------
# dyadic annulus terms


_DENOMINATOR_CACHE: dict = {}


def _denominator_unit(n: int, p_or_alpha: float, mode: str,
                      pitch_rel: float) -> float:
    """Capacity of the unit-scale denominator problem: the sphere of
    radius 1 inside the ball of radius 2, at pitch pitch_rel.  Scaled
    copies of the dyadic problem reduce to this one exactly because the
    grid is matched to the annulus scale."""
    key = (n, round(p_or_alpha, 12), mode, round(pitch_rel, 12))
    if key in _DENOMINATOR_CACHE:
        return _DENOMINATOR_CACHE[key]
    sphere = Sphere([0.0] * n, 1.0)
    if mode == "cap":
        est = p_capacity(sphere, BallDomain((0.0,) * n, 2.0), p_or_alpha,
                         pitch_rel * 2.0)
    else:
        est = riesz_capacity(sphere, BallDomain((0.0,) * n, 2.0),
                             p_or_alpha, pitch_rel * 2.0)
    _DENOMINATOR_CACHE[key] = est.value
    return est.value


def annulus_term(E: ParametricSet, x0, i: int, *, mode: str, index: float,
                 delta: float = 1.0, pitch_rel: float = 1.0 / 8.0):
    """Numerator and denominator of the i-th Wiener-type quotient.

    The numerator is the capacity of E intersected with the closed
    annulus omega_i = {2^-i delta <= |x-x0| <= 2^-i+1 delta} relative to
    the open shell Omega_i = {2^-i-1 delta < |x-x0| < 2^-i+2 delta};
    the denominator is the capacity of the sphere of radius 2^-i delta
    in the ball of radius 2^-i+1 delta.  Both are computed at pitch
    proportional to the annulus scale so the quotient is resolution
    consistent; the denominator is evaluated once at unit scale and
    scaled exactly.
    """
    if i < 1:
        raise ValueError("annulus index starts at 1")
    if mode not in ("cap", "riesz"):
        raise ValueError("mode must be 'cap' or 'riesz'")
    x0 = _as_vec(x0, E.dim)
    n = E.dim
    s = 2.0 ** -i * delta
    piece = RestrictedSet(E, x0, s, 2.0 * s)
    shell = ShellDomain(tuple(x0), 0.5 * s, 4.0 * s)
    pitch = 8.0 * s * pitch_rel / 8.0
    grid = shell.grid(pitch)
    if not np.any(piece.meets_cells(grid)):
        return 0.0, None
    solve = p_capacity if mode == "cap" else riesz_capacity
    num = solve(piece, shell, index, pitch).value
    den = _denominator_unit(n, index, mode, pitch_rel) * s ** (n - index)
    return num, den


# ---------------------------------------------------------------------------
# small-ball calibration


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

    def ratio(self, rho: float) -> float:
        return self.amplitude * rho ** self.exponent


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
    from .sets import BallUnion
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
