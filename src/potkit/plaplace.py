"""Measure-data p-Laplace solves on grids, the fundamental-solution
normalization, pointwise potential envelopes and singular asymptotics.

The equation -div(|grad u|^(p-2) grad u) = mu with Dirichlet data is
discretized as the convex functional

    (1/p) sum over cells |grad_h u|^p h^n  -  sum over nodes u w,

where w distributes each cell's measure mass equally to its 2^n nodes
(atoms are assigned to their containing cell).  The radial profile
G_p(x) = |x|^(-(n-p)/(p-1)) for p < n and -log|x| for p = n, scaled by
the normalization coefficient m(n,p), is the unit-mass fundamental
solution: its flux integral equals -1 across any sphere around the
pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import HypothesisViolation, ResolutionError
from .fitting import ApproachPath, LimitReport, fit_limit
from .geometry import dist2, kappa_exponent, sphere_area
from .grid import EvaluationGrid, _as_vec
from .measures import Measure
from .penergy import (PEnergyProblem, affine_fill, minimize_p_energy,
                      refine_nodes, scatter_cells_to_nodes)
from .sets import sphere_directions
from .wolff import WolffParams, wolff_potential


# ---------------------------------------------------------------------------
# fundamental solution


def fundamental_coefficient(n: int, p: float) -> float:
    """m(n,p): the scale making -Delta_p(m G_p) the unit point mass.

    For p < n: m = ((p-1)/(n-p)) |S^(n-1)|^(-1/(p-1)); for p = n the
    logarithmic analog |S^(n-1)|^(-1/(n-1)).
    """
    if not 1.0 < p <= n:
        raise HypothesisViolation(f"p must lie in (1, n], got {p}")
    area = sphere_area(n)
    if p == n:
        return area ** (-1.0 / (n - 1.0))
    kappa = kappa_exponent(n, p)
    return (1.0 / kappa) * area ** (-1.0 / (p - 1.0))


@dataclass(frozen=True)
class FundamentalSolution:
    """u(x) = m G_p(x - x0) with G_p = |x|^(-kappa), kappa=(n-p)/(p-1),
    for p < n and G_p = -log|x| for p = n."""

    n: int
    p: float
    m: float | None = None
    x0: tuple = None

    def __post_init__(self):
        if not 1.0 < self.p <= self.n:
            raise HypothesisViolation(f"p must lie in (1, {self.n}]")
        if self.m is None:
            object.__setattr__(self, "m", fundamental_coefficient(self.n, self.p))
        if self.m < 0:
            raise ValueError("coefficient m must be nonnegative")
        x0 = (0.0,) * self.n if self.x0 is None else tuple(
            float(v) for v in _as_vec(self.x0, self.n))
        object.__setattr__(self, "x0", x0)

    @property
    def kappa(self) -> float:
        return kappa_exponent(self.n, self.p) if self.p < self.n else 0.0

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            if self.p < self.n:
                return self.m * r ** -self.kappa
            return -self.m * np.log(r)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.sqrt(dist2(pts, self.x0))
        out = self.radial(d)
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def gradient(self, points):
        """Exact gradient; infinite at the pole."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = pts - np.asarray(self.x0)
        d = np.sqrt((rel ** 2).sum(axis=1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.p < self.n:
                mag = -self.m * self.kappa * d ** (-self.kappa - 2.0)
            else:
                mag = -self.m / (d * d)
        return mag * rel


# ---------------------------------------------------------------------------
# solutions


@dataclass
class PSolution:
    """Grid minimizer of the measure-data p-energy.

    ``residual`` is the max-norm of the unregularized energy gradient
    over free nodes at ``values`` (the discrete Euler-Lagrange defect).
    """

    grid: EvaluationGrid
    values: np.ndarray
    p: float
    residual: float
    energy: float
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.array([self.grid.interpolate(self.values, pt)
                        for pt in pts])
        return out if np.asarray(points).ndim > 1 else float(out[0])


def _boundary_values(grid: EvaluationGrid, boundary_data,
                     mask: np.ndarray) -> np.ndarray:
    vals = np.zeros(grid.node_shape)
    if callable(boundary_data):
        axes = np.meshgrid(*grid.node_axes(), indexing="ij")
        pts = np.stack([a[mask] for a in axes], axis=1)
        vals[mask] = np.asarray(boundary_data(pts), dtype=float)
    elif np.isscalar(boundary_data):
        vals[mask] = float(boundary_data)
    else:
        arr = np.asarray(boundary_data, dtype=float)
        if arr.shape != grid.node_shape:
            raise ValueError("boundary array must be in node shape")
        vals[mask] = arr[mask]
    return vals


def solve_p_dirichlet(grid: EvaluationGrid, mu: Measure | None, p: float,
                      boundary_data) -> PSolution:
    """Minimize the discrete measure-data functional with Dirichlet data.

    Any p > 1 is accepted without a measure; with one, p must lie in
    (1, n].  A coarse-to-fine cascade (pitch 4h, 2h, h where the cell
    counts allow) warm-starts the fine descent, the monotone convex
    stage.  The sparse Newton refinement follows it whenever the grid is
    small enough to factor directly; the fill-in of the sparse
    factorization caps this at ~1.6e5 nodes in 2-D but ~4e4 in higher
    dimensions.  The nested-dissection order of
    :func:`~potkit.penergy.newton_polish` leaves these caps unchanged.
    For p < 2 the energy is regularized by eps = 1e-12 in the gradient
    magnitude; the reported residual is that of the unregularized
    energy.  Array boundary data is given on the fine grid's nodes; the
    coarse levels of the cascade read it at their own nodes (stride 2,
    4).
    Atoms are rejected when their containing cell touches the Dirichlet
    layer, since the projection would alter the pinned data.
    """
    if p <= 1.0 or (mu is not None and p > grid.dim):
        raise HypothesisViolation(
            f"p must exceed 1, and lie in (1, n] with a measure; got {p}")
    mask = grid.boundary_node_mask()
    if mu is not None:
        for point in mu.atoms()[0]:
            idx = grid.locate_cell(point)
            if idx is None:
                raise HypothesisViolation("atom lies outside the grid box")
            if any(i == 0 or i == c - 1 for i, c in zip(idx, grid.cells)):
                raise HypothesisViolation(
                    "atom sits in a boundary cell; shrink the measure or "
                    "grow the box")
    cap = 160_000 if grid.dim == 2 else 40_000
    polish = "newton" if grid.n_nodes <= cap else None

    def build(g: EvaluationGrid, level: int) -> PEnergyProblem:
        data = boundary_data
        if not (callable(data) or np.isscalar(data)):
            # coarse nodes are the fine nodes at stride 2^level
            data = np.asarray(data, dtype=float)[
                (slice(None, None, 2 ** level),) * g.dim]
        bmask = g.boundary_node_mask()
        bvals = _boundary_values(g, data, bmask)
        load = None
        if mu is not None:
            load = scatter_cells_to_nodes(mu.cell_masses(g), g)
        return PEnergyProblem(g, p, bmask, bvals, load=load,
                              eps=(1e-12 if p < 2 else 0.0))

    grids = [grid]
    g = grid
    while (not np.any(np.asarray(g.cells) % 2)
           and min(g.cells) >= 8 and len(grids) < 3):
        g = EvaluationGrid.from_box(g.lo, g.hi, g.h * 2)
        grids.append(g)
    u = None
    info = None
    for level in reversed(range(len(grids))):
        g = grids[level]
        prob = build(g, level)
        if u is None:
            u0 = affine_fill(g, prob.fixed_values, prob.fixed_mask)
        else:
            u0 = refine_nodes(u)
            u0[prob.fixed_mask] = prob.fixed_values[prob.fixed_mask]
        u, info = minimize_p_energy(prob, u0=u0,
                                    polish=polish if level == 0 else None)
    residual = info.grad_norm
    if prob.eps > 0.0:
        _, grad = replace(prob, eps=0.0).energy_and_grad(u)
        residual = float(np.max(np.abs(grad[~mask])))
    return PSolution(grid, u, p, residual, info.energy,
                     iterations=info.iterations,
                     extras={"method": info.method,
                             "newton_steps": info.newton_steps})


# ---------------------------------------------------------------------------
# flux normalization


def flux_normalization(n: int, p: float) -> float:
    """Discrete flux of the unit-mass fundamental solution m(n,p) G_p
    across the sphere of radius 1/2.

    The gradient is evaluated by centered differences of pitch 1/128 at
    a deterministic equal-weight direction set (2048 directions in the
    plane, 4096 in space, 16384 above); the integrand
    |grad u|^(p-2) (grad u . nu) is summed with weight area/count.
    Must come out -1.
    """
    if not 1.0 < p < n:
        raise HypothesisViolation("flux normalization needs p in (1, n)")
    rho = 0.5
    h = rho / 64.0
    quad_points = 4096 if n == 3 else (2048 if n == 2 else 16384)
    fund = FundamentalSolution(n, p)
    dirs = sphere_directions(n, quad_points)
    pts = rho * dirs
    grads = np.zeros_like(pts)
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        grads[:, a] = (fund(pts + e) - fund(pts - e)) / (2.0 * h)
    mag = np.sqrt((grads ** 2).sum(axis=1))
    normal_deriv = (grads * dirs).sum(axis=1)
    integrand = mag ** (p - 2.0) * normal_deriv
    area = sphere_area(n) * rho ** (n - 1)
    return float(integrand.mean() * area)


# ---------------------------------------------------------------------------
# envelope


@dataclass
class EnvelopeReport:
    """Pointwise potential-envelope ratios at one probe.

    ``lower_ratio`` = u(x) / W(x, r) (None when W vanishes);
    ``upper_ratio`` = u(x) / (inf over B(x,r) of u + W(x, 2r)).
    The envelope holds when the first stays above some c1 > 0 and the
    second below some c2 over a test family.
    """

    x: np.ndarray
    r: float
    u_value: float
    wolff_r: float
    wolff_2r: float
    inf_ball: float
    lower_ratio: float | None
    upper_ratio: float | None


def envelope_check(u_eval, mu: Measure, p: float, x,
                   r: float) -> EnvelopeReport:
    """Evaluate both envelope ratios for a nonnegative supersolution.

    ``u_eval`` is a callable on point arrays or a PSolution; for grid
    solutions the ball B(x, 3r) must sit inside the box and the infimum
    is the minimum over grid nodes in the closed ball.
    """
    x = _as_vec(x)
    grid = u_eval.grid if isinstance(u_eval, PSolution) else None
    if grid is not None:
        lo, hi = np.asarray(grid.lo), np.asarray(grid.hi)
        if np.any(x - 3 * r < lo - 1e-12) or np.any(x + 3 * r > hi + 1e-12):
            raise HypothesisViolation("ball B(x, 3r) must fit in the box")
    u_x = float(np.asarray(u_eval(x[None, :])).ravel()[0])
    if u_x < -1e-12:
        raise HypothesisViolation("envelope check needs u >= 0")
    if grid is not None:
        d2 = grid.node_dist2(x)
        inf_ball = float(u_eval.values[d2 <= r * r * (1 + 1e-12)].min())
    else:
        dirs = sphere_directions(x.size, 256)
        radii = np.linspace(0.0, r, 17)[1:]
        pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, x.size) + x
        inf_ball = float(min(np.asarray(u_eval(pts)).min(), u_x))
    w_r = wolff_potential(mu, WolffParams(p, r), x)
    w_2r = wolff_potential(mu, WolffParams(p, 2.0 * r), x)
    lower = None if w_r <= 0.0 else u_x / w_r
    denom = inf_ball + w_2r
    upper = None if denom <= 0.0 else u_x / denom
    return EnvelopeReport(x, r, u_x, float(w_r), float(w_2r), inf_ball,
                          lower, upper)


def envelope_band(reports) -> tuple:
    """Empirical (c1, c2): the extreme ratios over a family of checks."""
    lowers = [rep.lower_ratio for rep in reports
              if rep.lower_ratio is not None]
    uppers = [rep.upper_ratio for rep in reports
              if rep.upper_ratio is not None]
    c1 = min(lowers) if lowers else math.inf
    c2 = max(uppers) if uppers else 0.0
    return c1, c2


# ---------------------------------------------------------------------------
# singular asymptotics


def super_asymptotic_report(u_eval, p: float, x0, path: ApproachPath, *,
                            window: tuple | None = None) -> LimitReport:
    """Fitted limit of u / G_p along the path, with the smallest c0
    making u >= m_hat G_p - c0 on the sampled window.

    For grid solutions pass window = (4h, r/4) to stay above the atom
    regularization scale; an empty window raises ResolutionError.
    """
    x0 = _as_vec(x0)
    n = x0.size
    if not 1.0 < p <= n:
        raise HypothesisViolation(f"p must lie in (1, n], got {p}")
    radii = path.radii
    if window is not None:
        lo, hi = window
        keep = (radii >= lo - 1e-15) & (radii <= hi + 1e-15)
        if not np.any(keep):
            raise ResolutionError(
                "no path radii inside the resolvable window; the grid is "
                "too coarse for this probe")
        radii = radii[keep]
    pts = x0 + radii[:, None] * path.direction
    u_vals = np.asarray(u_eval(pts), dtype=float).ravel()
    fund = FundamentalSolution(n, p, m=1.0, x0=tuple(x0))
    g_vals = fund.radial(radii)
    if np.any(g_vals <= 0.0):
        raise HypothesisViolation(
            "G_p must be positive on the window (p = n needs radii < 1)")
    ratios = u_vals / g_vals
    fit = fit_limit(radii, ratios)
    m_hat = fit.limit
    c0 = float(np.max(m_hat * g_vals - u_vals))
    return LimitReport(radii, ratios, m_hat, fit.exponent, fit.residual,
                       extras={"m": m_hat, "c0": max(c0, 0.0),
                               "u_values": u_vals, "g_values": g_vals})
