"""p-energy minimization: the frozen-pattern Newton Hessian against a
reference assembly, the Newton polish, the iteration cap, and the
boundary data of the Dirichlet cascade."""

import math
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from potkit import penergy
from potkit.capacity import BallDomain, p_capacity
from potkit.errors import ResolutionError
from potkit.grid import EvaluationGrid
from potkit.penergy import (PEnergyProblem, _FrozenHessian, affine_fill,
                            cell_gradient, minimize_p_energy, newton_polish)
from potkit.plaplace import solve_p_dirichlet
from potkit.sets import BallUnion


def _grad_operator(grid, axis):
    """Sparse cell-gradient operator along one axis (matches
    cell_gradient): difference / h along axis, mean over the others."""
    mats = []
    for b in range(grid.dim):
        nb = grid.cells[b]
        if b == axis:
            m = sp.diags([-1.0, 1.0], [0, 1], shape=(nb, nb + 1)) / grid.h
        else:
            m = sp.diags([0.5, 0.5], [0, 1], shape=(nb, nb + 1))
        mats.append(m.tocsr())
    return reduce(sp.kron, mats).tocsr()


def _reference_hessian(problem, u):
    """coef p h^n sum_ab B_a^T diag(w_ab) B_b on the free nodes, in
    lattice order."""
    grid, p = problem.grid, problem.p
    n = grid.dim
    ops = [_grad_operator(grid, a) for a in range(n)]
    d = [cell_gradient(u, grid.h, a).ravel() for a in range(n)]
    g2 = reduce(np.add, (x * x for x in d)) + problem.eps ** 2
    w_iso = g2 ** ((p - 2.0) / 2.0)
    w_dir = (p - 2.0) * g2 ** ((p - 4.0) / 2.0)
    H = sum(ops[a].T @ sp.diags(w_dir * d[a] * d[b]
                                + (w_iso if a == b else 0.0)) @ ops[b]
            for a in range(n) for b in range(n))
    free = ~problem.fixed_mask.ravel()
    return (problem.coef * p * grid.cell_volume * H).tocsr()[free][:, free]


def _interior_pins(grid):
    mask = grid.boundary_node_mask()
    mask[3:6, 4] = True
    mask[7, 2] = True
    return mask


@pytest.mark.parametrize("cells, p, eps, pins", [
    ((6, 9), 3.0, 0.0, None),
    ((4, 5, 3), 2.5, 0.0, None),
    ((10, 10), 1.5, 1e-3, _interior_pins),
])
def test_frozen_hessian_matches_reference_assembly(cells, p, eps, pins):
    n = len(cells)
    grid = EvaluationGrid.from_box((0.0,) * n, tuple(0.1 * c for c in cells),
                                   0.1)
    mask = grid.boundary_node_mask() if pins is None else pins(grid)
    rng = np.random.default_rng(3)
    problem = PEnergyProblem(grid, p, mask, rng.normal(size=grid.node_shape),
                             capacity_mode=(n == 3), eps=eps)
    u = rng.normal(size=grid.node_shape)
    hess = _FrozenHessian(grid, mask)
    free_nodes = np.flatnonzero(~mask.ravel())
    # the order is a permutation of the free nodes
    assert hess.order.size == free_nodes.size
    assert np.array_equal(np.sort(hess.order), free_nodes)
    H = hess.assemble(problem, u).toarray()
    rank = np.searchsorted(free_nodes, hess.order)
    R = _reference_hessian(problem, u).toarray()[np.ix_(rank, rank)]
    assert np.max(np.abs(H - R)) <= 1e-12 * np.max(np.abs(R))
    assert np.array_equal(hess.assemble(problem, u).data[hess.diag],
                          np.diag(H))


def test_flat_cells_assemble_without_warnings():
    # at p = 2 the directional weight (p-2) g^(p-4) is 0 * inf on flat
    # cells unless it is taken only where g > 0
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 8.0)
    mask = grid.boundary_node_mask()
    problem = PEnergyProblem(grid, 2.0, mask, np.zeros(grid.node_shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = _FrozenHessian(grid, mask).assemble(problem,
                                                np.zeros(grid.node_shape))
    assert np.all(np.isfinite(H.data))


def test_p2_hessian_does_not_depend_on_u():
    # at p = 2 the energy is quadratic, so flat cells keep weight g^0 = 1
    # and the Hessian at u = 0 equals the one at u = x
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 8.0)
    mask = grid.boundary_node_mask()
    problem = PEnergyProblem(grid, 2.0, mask, np.zeros(grid.node_shape))
    hess = _FrozenHessian(grid, mask)
    X, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    at_zero = hess.assemble(problem, np.zeros(grid.node_shape)).toarray()
    at_x = hess.assemble(problem, X).toarray()
    assert np.max(np.abs(at_x)) > 0.0
    assert np.allclose(at_zero, at_x, rtol=0.0, atol=1e-14)


def _comparison_pair_data(grid, p_index, pair):
    """Boundary data g = f + bump of the quick comparison-principle check
    (seed 0) for one p and pair: the check draws 6 normals per pair,
    8 pairs per p."""
    X, Y = np.meshgrid(*grid.node_axes(), indexing="ij")
    rng = np.random.default_rng(0)
    for _ in range(8 * p_index + pair):
        rng.normal(size=6)
    coef = rng.normal(size=6)
    f = (coef[0] + coef[1] * np.sin(math.pi * X + coef[2])
         + coef[3] * np.sin(2.0 * math.pi * Y + coef[4]))
    return f + (0.2 + coef[5] ** 2) * (0.5 + 0.5 * np.cos(
        math.pi * (X + Y))) ** 2


def test_newton_reaches_round_off_on_comparison_pair(monkeypatch):
    # p = 3, pair 7 with the bump: the Armijo test alone stalled here at
    # a residual of 1.25e-9 for 120 iterations
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 64.0)
    bmask = grid.boundary_node_mask()
    fixed = np.where(bmask, _comparison_pair_data(grid, 2, 7), 0.0)
    problem = PEnergyProblem(grid, 3.0, bmask, fixed)
    monkeypatch.setattr(penergy, "REL_ENERGY_TOL", 1e-10)
    u, _ = minimize_p_energy(problem, u0=affine_fill(grid, fixed, bmask))
    monkeypatch.setattr(penergy, "NEWTON_ITERS", 10)
    u, _ = newton_polish(problem, u)
    _, g = problem.energy_and_grad(u)
    assert np.max(np.abs(g[~bmask])) < 1e-13


def test_iteration_cap_raises(monkeypatch):
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    bmask = grid.boundary_node_mask()
    X, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    fixed = np.where(bmask, X * X, 0.0)
    problem = PEnergyProblem(grid, 3.0, bmask, fixed)
    u0 = affine_fill(grid, fixed, bmask)
    monkeypatch.setattr(penergy, "LBFGS_MAXITER", 3)
    with pytest.raises(ResolutionError):
        minimize_p_energy(problem, u0=u0)
    # the Newton polish still finishes a capped descent
    _, info = minimize_p_energy(problem, u0=u0, polish="newton")
    assert info.grad_norm < 1e-12
    with pytest.raises(ResolutionError):
        p_capacity(BallUnion([np.zeros(3)], [0.25]),
                   BallDomain((0.0,) * 3, 1.0), 2.5, 1.0 / 12.0,
                   fold_center=np.zeros(3))


def _pole_data(pts):
    r = np.hypot(pts[..., 0] - 1.3, pts[..., 1] + 0.4)
    return r ** (1.0 / 3.0)


def test_array_boundary_data_matches_callable():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    arr = _pole_data(grid.node_points()).reshape(grid.node_shape)
    from_array = solve_p_dirichlet(grid, None, 1.5, arr)
    from_callable = solve_p_dirichlet(grid, None, 1.5, _pole_data)
    assert from_array.residual < 1e-12
    assert np.max(np.abs(from_array.values - from_callable.values)) < 1e-12


def test_identical_solves_are_bitwise_equal():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    first = solve_p_dirichlet(grid, None, 1.5, _pole_data)
    second = solve_p_dirichlet(grid, None, 1.5, _pole_data)
    assert np.array_equal(first.values, second.values)
    assert first.residual == second.residual


def test_factorizations_go_through_spsolve(monkeypatch):
    calls = []
    original = scipy.sparse.linalg.spsolve

    def counting(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counting)
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    sol = solve_p_dirichlet(grid, None, 2.0, _pole_data)
    assert sol.residual < 1e-12
    assert calls and set(calls) == {"NATURAL"}


def test_flat_start_factors_no_singular_matrix(monkeypatch):
    # from the default constant u0, three L-BFGS steps leave interior
    # nodes whose cells are all flat: at p = 3 their Hessian rows are zero
    results = []
    original = scipy.sparse.linalg.spsolve

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(bool(np.all(np.isfinite(out))))
        return out

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", recording)
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    bmask = grid.boundary_node_mask()
    X, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    problem = PEnergyProblem(grid, 3.0, bmask, np.where(bmask, X * X, 0.0))
    monkeypatch.setattr(penergy, "LBFGS_MAXITER", 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, info = minimize_p_energy(problem, polish="newton")
    assert not [w for w in caught
                if issubclass(w.category,
                              scipy.sparse.linalg.MatrixRankWarning)]
    # every factorization yields a usable step: none is spent on a
    # singular matrix before the damping retry
    assert results and all(results)
    assert info.grad_norm < 1e-12


def test_newton_steps_are_recorded_and_a_spent_polish_raises(monkeypatch):
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    bmask = grid.boundary_node_mask()
    X, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    fixed = np.where(bmask, X * X, 0.0)
    problem = PEnergyProblem(grid, 3.0, bmask, fixed)
    u0 = affine_fill(grid, fixed, bmask)
    _, info = minimize_p_energy(problem, u0=u0, polish="newton")
    assert info.newton_steps >= 1
    assert solve_p_dirichlet(grid, None, 3.0,
                             fixed).extras["newton_steps"] >= 1
    monkeypatch.setattr(penergy, "NEWTON_ITERS", 1)
    with pytest.raises(ResolutionError):
        newton_polish(problem, u0)


def test_polish_without_descent_direction_raises(monkeypatch):
    original = scipy.sparse.linalg.spsolve

    def ascent(*args, **kwargs):
        return -original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", ascent)
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    with pytest.raises(ResolutionError):
        solve_p_dirichlet(grid, None, 2.0, _pole_data)
