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
nodes of cells meeting K and u = 0 outside Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, ResolutionError
from .fitting import loglog_slope
from .geometry import kappa_exponent, sphere_area
from .grid import EvaluationGrid, _as_vec
from .penergy import (PEnergyProblem, minimize_p_energy, refine_nodes,
                      scatter_cells_to_nodes)
from .riesz import _kernel
from .sets import ParametricSet, RestrictedSet, Sphere


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
        return d2 >= self.radius ** 2 * (1.0 - 1e-12)

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
        outside = d2 >= self.r_out ** 2 * (1.0 - 1e-12)
        inside = d2 <= self.r_in ** 2 * (1.0 + 1e-12)
        return outside | inside

    @property
    def box(self):
        c = np.asarray(self.center)
        return c - self.r_out, c + self.r_out

    def scaled(self, lam: float) -> "ShellDomain":
        return ShellDomain(tuple(lam * v for v in self.center),
                           lam * self.r_in, lam * self.r_out)


def _as_domain(omega) -> Domain:
    if isinstance(omega, Domain):
        return omega
    lo, hi = omega
    return BoxDomain(tuple(np.atleast_1d(np.asarray(lo, float))),
                     tuple(np.atleast_1d(np.asarray(hi, float))))


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
    """Riesz kernel between point sets, with distances below ``r_moll``
    replaced by the kernel's average over the ball of that radius."""
    d = np.sqrt(np.maximum(
        ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2), 0.0))
    k = _kernel(np.maximum(d, r_moll), alpha, n, diam)
    if alpha < n:
        self_term = (n / alpha) * r_moll ** (alpha - n)
    else:
        self_term = math.log(diam / r_moll) + 1.0 / n
    return np.where(d < r_moll, self_term, k)


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


def riesz_capacity(E: ParametricSet, omega, alpha: float,
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
    dom = _as_domain(omega)
    n = E.dim
    if not 1.0 < alpha <= n:
        raise HypothesisViolation(f"alpha must lie in (1, n], got {alpha}")
    lo, hi = dom.box
    elo, ehi = E.bounding_box()
    if np.any(elo < lo - 1e-9) or np.any(ehi > hi + 1e-9):
        raise HypothesisViolation("E must be contained in Omega")
    diam = dom.diameter
    sites = E.sample_points(h)
    if len(sites) == 0:
        return CapacityEstimate(0.0, "LP-discrete", h, lower=0.0, upper=0.0)
    sites = _decimate_sites(sites, _SITE_CAP)
    fine = E.sample_points(h / 2.0)
    if len(fine) > 12 * _SITE_CAP:
        fine = _decimate_sites(fine, 12 * _SITE_CAP)
    r_moll = 0.5 * h
    K = _riesz_kernel_matrix(sites, sites, alpha, n, diam, r_moll)
    m = np.full(len(sites), 1.0 / max(K.sum(axis=1).max(), 1e-300))
    converged = False
    it = 0
    for it in range(1, EQ_MAX_ITER + 1):
        pot = K @ m
        if np.max(np.abs(pot - 1.0)) <= EQ_TOL:
            converged = True
            break
        m = m / np.maximum(pot, 1e-300)
    if not converged:
        pot = K @ m
        if np.max(np.abs(pot - 1.0)) > 100 * EQ_TOL:
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
    site_pot = K @ m
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


def p_capacity(K: ParametricSet, omega, p: float, h: float, *,
               fold_center=None) -> CapacityEstimate:
    """Variational p-capacity of K in Omega at grid pitch h.

    Minimizes the cell p-energy with u pinned to 1 on nodes of cells
    meeting K and to 0 outside the open region.  Coarse-to-fine warm
    starting keeps the fine-level iteration count low; it never changes
    the minimizer, only the path to it.

    ``fold_center``: when K and Omega are mirror-symmetric about each
    coordinate plane through this point, the solve runs on one orthant
    only, with free nodes on the symmetry planes, and reports 2^n times
    the orthant energy.  The full grid's unique minimizer is symmetric,
    and its restriction satisfies exactly the orthant problem's
    stationarity conditions, so the folded value equals the full one.
    The caller is responsible for the symmetry.
    """
    if p <= 1.0:
        raise HypothesisViolation(f"p must exceed 1, got {p}")
    dom = _as_domain(omega)
    factor = 1.0
    fold = None
    if fold_center is not None:
        fold = _as_vec(fold_center, K.dim)
        lo, hi = dom.box
        if not np.allclose(fold - lo, hi - fold, rtol=1e-9, atol=1e-12):
            raise HypothesisViolation(
                "fold center must be the middle of the domain box")
        factor = float(2 ** K.dim)

    def build(hh: float) -> PEnergyProblem:
        if fold is None:
            grid = dom.grid(hh)
            zero = dom.zero_mask(grid)
        else:
            _lo, hi = dom.box
            grid = EvaluationGrid.from_box(fold, hi, hh)
            if isinstance(dom, BoxDomain):
                # only the outer faces are Dirichlet; the faces through
                # the fold center are symmetry planes and stay free
                zero = np.zeros(grid.node_shape, bool)
                for a in range(grid.dim):
                    sl = [slice(None)] * grid.dim
                    sl[a] = -1
                    zero[tuple(sl)] = True
            else:
                zero = dom.zero_mask(grid)
        meets = K.meets_cells(grid)
        ones = scatter_cells_to_nodes(meets.astype(float), grid) > 0
        fixed = zero | ones
        vals = np.where(ones, 1.0, 0.0)
        return PEnergyProblem(grid, p, fixed, vals, capacity_mode=True)

    # cascade levels, finest first: each coarse level halves the cell
    # counts of the one before it and still has free nodes
    problems = [build(h)]
    while len(problems) < 4:
        try:
            coarse = build(problems[-1].grid.h * 2)
        except ValueError:
            break
        cells = np.asarray(coarse.grid.cells)
        if (coarse.grid.n_nodes < 5 ** coarse.grid.dim or np.any(cells % 2)
                or not np.any(~coarse.fixed_mask)
                or np.any(cells * 2 != np.asarray(problems[-1].grid.cells))):
            break
        problems.append(coarse)
    u = None
    info = None
    for prob in reversed(problems):
        u0 = None
        if u is not None:
            u0 = refine_nodes(u)
            u0 = np.clip(u0, 0.0, 1.0)
            u0[prob.fixed_mask] = prob.fixed_values[prob.fixed_mask]
        u, info = minimize_p_energy(prob, u0=u0)
    value = factor * max(info.energy, 0.0)
    return CapacityEstimate(value, "grid-variational", h,
                            iterations=info.iterations,
                            extras={"grad_norm": info.grad_norm,
                                    "levels": len(problems),
                                    "folded": fold is not None})


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
