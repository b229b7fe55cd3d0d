"""p-energy minimization: the flat-array energy kernel against the
cell-shaped reference, the frozen-pattern Newton Hessian against a
reference assembly, the Newton polish, the iteration cap, and the
boundary data of the Dirichlet cascade."""

import math
import warnings
from dataclasses import replace
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
                            minimize_p_energy, newton_polish)
from potkit.plaplace import solve_p_dirichlet
from potkit.sets import BallUnion


def cell_gradient(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Edge-averaged forward difference along one axis, in cell shape."""
    g = np.diff(u, axis=axis) / h
    for b in range(u.ndim):
        if b == axis:
            continue
        sl0 = [slice(None)] * u.ndim
        sl1 = [slice(None)] * u.ndim
        sl0[b] = slice(None, -1)
        sl1[b] = slice(1, None)
        g = 0.5 * (g[tuple(sl0)] + g[tuple(sl1)])
    return g


def _adjoint_accumulate(w: np.ndarray, h: float, axis: int, out: np.ndarray):
    """Adjoint of cell_gradient: scatter cell weights w back to nodes."""
    t = w
    n = out.ndim
    for b in reversed(range(n)):
        if b == axis:
            continue
        shape = list(t.shape)
        shape[b] += 1
        r = np.zeros(shape)
        sl0 = [slice(None)] * n
        sl1 = [slice(None)] * n
        sl0[b] = slice(None, -1)
        sl1[b] = slice(1, None)
        r[tuple(sl0)] += 0.5 * t
        r[tuple(sl1)] += 0.5 * t
        t = r
    sl0 = [slice(None)] * n
    sl1 = [slice(None)] * n
    sl0[axis] = slice(None, -1)
    sl1[axis] = slice(1, None)
    out[tuple(sl1)] += t / h
    out[tuple(sl0)] -= t / h


def _reference_energy_and_grad(problem, u):
    """The energy and node gradient in cell shape, one temporary per
    operation."""
    grid, p = problem.grid, problem.p
    n = grid.dim
    hn = grid.cell_volume
    grads = [cell_gradient(u, grid.h, a) for a in range(n)]
    g2 = reduce(np.add, (d * d for d in grads))
    if problem.eps > 0.0:
        g2 = g2 + problem.eps ** 2
    gp = g2 ** (p / 2.0)
    energy = problem.coef * hn * float(gp.sum())
    with np.errstate(divide="ignore"):
        gpm2 = np.where(g2 > 0.0, g2 ** ((p - 2.0) / 2.0), 0.0)
    node_grad = np.zeros_like(u)
    for a in range(n):
        _adjoint_accumulate(problem.coef * p * hn * gpm2 * grads[a],
                            grid.h, a, node_grad)
    if problem.load is not None:
        energy -= float((problem.load * u).sum())
        node_grad = node_grad - problem.load
    return energy, node_grad


def _random_problem(cells, p, eps=0.0, load=False, seed=5):
    n = len(cells)
    grid = EvaluationGrid.from_box((0.0,) * n, tuple(0.1 * c for c in cells),
                                   0.1)
    rng = np.random.default_rng(seed)
    return PEnergyProblem(grid, p, grid.boundary_node_mask(),
                          rng.normal(size=grid.node_shape),
                          load=(rng.normal(size=grid.node_shape) if load
                                else None),
                          capacity_mode=not load, eps=eps)


@pytest.mark.parametrize("cells", [(5, 7), (1, 6), (4, 1, 6), (3, 5, 4),
                                   (3, 2, 4, 3), (2, 1, 2, 1)])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_energy_and_grad_equals_cell_shaped_reference(cells, p):
    # the same float operations in the same order: equal to the bit,
    # with nan where the reference has nan
    rng = np.random.default_rng(len(cells) + int(4 * p))
    for eps, load in [(0.0, False), (1e-3, False), (0.0, True),
                      (1e-3, True)]:
        problem = _random_problem(cells, p, eps, load)
        shape = problem.grid.node_shape
        spiked = rng.normal(size=shape)
        spiked[tuple(s // 2 for s in shape)] = np.inf
        for u in (rng.normal(size=shape), np.zeros(shape),
                  np.round(rng.normal(size=shape)), spiked):
            with np.errstate(all="ignore"):
                energy, grad = problem.energy_and_grad(u)
                ref_energy, ref_grad = _reference_energy_and_grad(problem, u)
            assert np.array_equal(energy, ref_energy, equal_nan=True)
            assert grad.shape == shape
            assert np.array_equal(grad, ref_grad, equal_nan=True)


def test_energy_and_grad_returns_fresh_arrays():
    problem = _random_problem((4, 3, 5), 2.5, load=True)
    rng = np.random.default_rng(1)
    u1 = rng.normal(size=problem.grid.node_shape)
    _, g1 = problem.energy_and_grad(u1)
    kept = g1.copy()
    _, g2 = problem.energy_and_grad(2.0 * u1)
    assert not np.shares_memory(g1, g2)
    assert np.array_equal(g1, kept)
    assert not np.array_equal(g1, g2)


def test_replaced_problem_builds_its_own_kernel():
    problem = _random_problem((4, 3, 5), 1.5, eps=1e-3)
    u = np.random.default_rng(2).normal(size=problem.grid.node_shape)
    problem.energy_and_grad(u)
    copy = replace(problem, eps=0.0)
    assert copy._kernel is None
    assert np.array_equal(copy.energy_and_grad(u)[1],
                          _reference_energy_and_grad(copy, u)[1])
    assert copy._kernel is not problem._kernel
    # the kernel is neither shown nor compared
    assert "_kernel" not in repr(copy) and copy == replace(copy)
    assert np.array_equal(problem.energy_and_grad(u)[1],
                          _reference_energy_and_grad(problem, u)[1])


def test_replace_keeps_the_mirror_multiplicity():
    # a folded capacity problem counts 2^k mirror copies of its grid;
    # a replaced copy must count them too, to the bit
    unit = _random_problem((4, 3, 5), 1.5, eps=1e-3)
    folded = replace(unit, _mult=4.0)
    copy = replace(folded, eps=0.0)
    assert copy._mult == 4.0 and copy.coef == 4.0 * unit.coef
    u = np.random.default_rng(2).normal(size=unit.grid.node_shape)
    e1, g1 = replace(unit, eps=0.0).energy_and_grad(u)
    e4, g4 = copy.energy_and_grad(u)
    assert e4 == 4.0 * e1 and np.array_equal(g4, 4.0 * g1)


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
                   BallDomain((0.0,) * 3, 1.0), 2.5, 1.0 / 12.0)


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
