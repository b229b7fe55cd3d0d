"""Riesz capacity (discrete equilibrium) and variational p-capacity (grid
energy minimization), and the dyadic annulus quotient that the thinness
tests in :mod:`potkit.thinness` are built from.

The Riesz capacity of E inside a region Omega is the least total mass m
whose potential integral k_alpha * m is >= 1 everywhere on E, with
kernel k_alpha(x,y) = |x-y|^(alpha-n) for alpha < n and log(D/|x-y|)
for alpha = n (D = diameter of Omega).  The discretization places mass
sites on E itself, solves their equilibrium exactly by block principal
pivoting, and scales it to meet the constraint on a finer sample of E.

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
from scipy.linalg import cho_factor, cho_solve

from .errors import HypothesisViolation, ResolutionError
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
    """Capacity value with optional estimates bracketing it.

    ``value`` always sits between ``lower`` and ``upper`` when both are
    present.  ``iterations`` counts the solver's steps: the block pivots
    of the Riesz equilibrium, the minimizer iterations of the p-energy.
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
# Riesz capacity


_SITE_CAP = 3500
_PITCH_GROWTH = 1.1


def _riesz_kernel_matrix(x, y, alpha, n, diam, r_moll):
    """Riesz kernel between point sets, built in place, with distances
    below ``r_moll`` replaced by the kernel's average over that ball."""
    d = dist2(x[:, None, :], y[None, :, :])
    near = np.sqrt(d, out=d) < r_moll
    k = _kernel(np.maximum(d, r_moll, out=d), alpha, n, diam, out=d)
    np.copyto(k, _ball_average(r_moll, alpha, n, diam), where=near)
    return k


def _sample(E: ParametricSet, pitch: float, cap: int) -> np.ndarray:
    """E's own sample (a uniform lattice that scales with E) at the least
    pitch ``pitch * _PITCH_GROWTH**k`` with at most ``cap`` points; raises
    ResolutionError once the pitch passes the span of E's bounding box."""
    lo, hi = E.bounding_box()
    while len(pts := E.sample_points(pitch)) > cap:
        if pitch > float(np.max(hi - lo)):
            raise ResolutionError(f"no sample of the set has <= {cap} points")
        pitch *= _PITCH_GROWTH
    return pts


def _equilibrium(K: np.ndarray) -> tuple[np.ndarray, int]:
    """The m >= 0 minimizing 1/2 m'Km - sum(m), so Km = 1 where m > 0 and
    Km >= 1 elsewhere, and its pivot count.  Block principal pivoting
    (Kim & Park, SIAM J. Sci. Comput. 33, 2011) starts with every site
    charged; each pivot solves Km = 1 on the charged sites by Cholesky
    and swaps every infeasible site (m < 0 or Km < 1), or only the last
    after three swaps that did not shrink their count (Murty's rule).
    Raises ResolutionError after one pivot per site."""
    charged = np.ones(len(K), dtype=bool)
    fewest, backup = len(K) + 1, 3
    for pivot in range(1, len(K) + 1):
        c = np.flatnonzero(charged)
        m = np.zeros(len(K))
        # symmetric K: the block's transpose is F-ordered, factored in place
        m[c] = cho_solve(cho_factor(K[np.ix_(c, c)].T, overwrite_a=True),
                         np.ones(c.size))
        bad = np.flatnonzero(np.where(charged, m < 0.0, K @ m < 1.0))
        if bad.size == 0:
            return m, pivot
        backup = 3 if bad.size < fewest else backup - 1
        fewest = min(fewest, bad.size)
        if backup < 0:
            bad = bad[-1:]
        charged[bad] = ~charged[bad]
    raise ResolutionError(f"no equilibrium after {len(K)} pivots")


def riesz_capacity(E: ParametricSet, omega: Domain, alpha: float,
                   h: float) -> CapacityEstimate:
    """Discretized Riesz capacity of E in Omega with a lower estimate.

    Sites sit on E at spacing h and constraint points at h/2, both E's
    own samples (``_sample``, capped at ``_SITE_CAP`` and 12 times that).
    The site masses are the exact equilibrium (``_equilibrium``, whose
    pivots ``iterations`` counts), scaled so the least potential over
    sites and constraint points is 1: their total is ``value`` and
    ``upper``.  ``lower`` scales them so the largest is 1 instead."""
    n = E.dim
    if not 1.0 < alpha <= n:
        raise HypothesisViolation(f"alpha must lie in (1, n], got {alpha}")
    lo, hi = omega.box
    elo, ehi = E.bounding_box()
    if np.any(elo < lo - 1e-9) or np.any(ehi > hi + 1e-9):
        raise HypothesisViolation("E must be contained in Omega")
    diam = omega.diameter
    sites = _sample(E, h, _SITE_CAP)
    if len(sites) == 0:
        return CapacityEstimate(0.0, "equilibrium", h, lower=0.0, upper=0.0)
    fine = _sample(E, h / 2.0, 12 * _SITE_CAP)
    r_moll = 0.5 * h
    K = _riesz_kernel_matrix(sites, sites, alpha, n, diam, r_moll)
    m, pivots = _equilibrium(K)
    # site potentials, then constraint points in row blocks to save memory
    pot = np.concatenate([K @ m] + [
        _riesz_kernel_matrix(fine[i:i + 2048], sites, alpha, n, diam,
                             r_moll) @ m for i in range(0, len(fine), 2048)])
    min_pot = float(pot.min())
    if min_pot <= 0:
        raise ResolutionError("potential vanished on a constraint point")
    value = float((m / min_pot).sum())
    return CapacityEstimate(value, "equilibrium", h,
                            lower=value * min_pot / float(pot.max()),
                            upper=value, iterations=pivots,
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


def annulus_term(E: ParametricSet, x0, i: int, *, mode: str, index: float,
                 delta: float = 1.0, pitch_rel: float = 1.0 / 8.0):
    """Numerator and denominator of the i-th Wiener-type quotient, or
    (0.0, None) when E misses the annulus at this pitch.

    The numerator is the capacity of E intersected with the closed
    annulus omega_i = {2^-i delta <= |x-x0| <= 2^-i+1 delta} relative to
    the open shell Omega_i = {2^-i-1 delta < |x-x0| < 2^-i+2 delta};
    the denominator is the capacity of the sphere of radius 2^-i delta
    in the ball of radius 2^-i+1 delta.  Both are computed at pitch
    proportional to the annulus scale so the quotient is resolution
    consistent; the denominator is solved at unit scale and scaled
    exactly, since its grid matches the annulus scale.
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
    pitch = s * pitch_rel
    # riesz_capacity raises for a piece outside the shell's box
    if not np.any(piece.meets_cells(shell.grid(pitch))):
        return 0.0, None
    solve = p_capacity if mode == "cap" else riesz_capacity
    num = solve(piece, shell, index, pitch).value
    unit = solve(Sphere([0.0] * n, 1.0), BallDomain((0.0,) * n, 2.0), index,
                 pitch_rel * 2.0).value
    return num, unit * s ** (n - index)
