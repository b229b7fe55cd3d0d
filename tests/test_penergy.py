"""p-energy minimization: the flat-array energy kernel against the
cell-shaped reference, the frozen-pattern Newton Hessian against a
reference assembly, the Newton polish, the iteration cap, the
coarse-to-fine cascade and the boundary data of the Dirichlet solve."""

import math
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from potkit import penergy
from potkit.capacity import BallDomain, p_capacity
from potkit.errors import ResolutionError
from potkit.grid import EvaluationGrid
from potkit.measures import AtomicMeasure
from potkit.penergy import (PEnergyProblem, _FrozenHessian, affine_fill,
                            minimize_p_energy, newton_polish, refine_nodes,
                            scatter_cells_to_nodes)
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


def _edge_reference_energy_and_grad(problem, u):
    """The energy and node gradient in cell shape from edge-averaged
    differences, one temporary per operation."""
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


def _halves(axis, n):
    """Index tuples of the lower and the upper n-1 entries along axis."""
    lo, hi = [slice(None)] * n, [slice(None)] * n
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def _reference_energy_and_grad(problem, u):
    """The face-sum energy and node gradient in cell shape.

    v = u / (2^(n-1) h); the sum of v over a set of axes is the sum over
    the set without its largest axis m plus its shift along m, and S_a,
    the sum over every axis but a, gives g_a = S_a[+1 along a] - S_a.
    The adjoint runs the same steps transposed in reverse order.  The
    energy density is summed zero-padded to node shape."""
    grid, p = problem.grid, problem.p
    n = grid.dim
    hn, width = grid.cell_volume, 2.0 ** (n - 1) * grid.h
    plan = []
    for a in range(n):
        face = tuple(b for b in range(n) if b != a)
        plan += [face[:k] for k in range(1, n) if face[:k] not in plan]
    sums = {(): u / width}
    for key in plan:
        lo, hi = _halves(key[-1], n)
        sums[key] = sums[key[:-1]][lo] + sums[key[:-1]][hi]
    faces = [sums[tuple(b for b in range(n) if b != a)] for a in range(n)]
    grads = [s[_halves(a, n)[1]] - s[_halves(a, n)[0]]
             for a, s in enumerate(faces)]
    flat = np.stack(grads).reshape(n, -1)
    g2 = np.einsum("ij,ij->j", flat, flat).reshape(grads[0].shape)
    if problem.eps > 0.0:
        g2 = g2 + problem.eps ** 2
    with np.errstate(divide="ignore"):
        w = np.where(g2 > 0.0, g2 ** ((p - 2.0) / 2.0), 0.0)
    density = np.zeros(u.shape)
    density[(slice(None, -1),) * n] = w * g2
    energy = problem.coef * hn * float(density.sum())
    w = w * (problem.coef * p * hn / width)
    adj = {}
    for a in range(n):
        lo, hi = _halves(a, n)
        d = np.zeros(faces[a].shape)
        d[lo] -= w * grads[a]
        d[hi] += w * grads[a]
        adj[tuple(b for b in range(n) if b != a)] = d
    for key in reversed(plan):
        parent, (lo, hi) = key[:-1], _halves(key[-1], n)
        if parent not in adj:
            adj[parent] = np.zeros(sums[parent].shape)
        adj[parent][lo] += adj[key]
        adj[parent][hi] += adj[key]
    node_grad = adj[()]
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
                          coef=(1.0 / p if load else 1.0), eps=eps)


@pytest.mark.parametrize("cells", [(5, 7), (1, 6), (4, 1, 6), (3, 5, 4),
                                   (3, 2, 4, 3), (2, 1, 2, 1)])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_energy_and_grad_equals_cell_shaped_reference(cells, p):
    # the same float operations in the same order: equal to the bit,
    # with nan where the reference has nan; on finite values within
    # round-off of the edge-averaged form of the same gradient
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
            if np.all(np.isfinite(u)):
                edge_energy, edge_grad = _edge_reference_energy_and_grad(
                    problem, u)
                assert abs(energy - edge_energy) <= 1e-13 * abs(edge_energy)
                assert (np.max(np.abs(grad - edge_grad))
                        <= 1e-13 * np.max(np.abs(edge_grad)))


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
    folded = replace(unit, coef=4.0 * unit.coef)
    copy = replace(folded, eps=0.0)
    assert copy.coef == 4.0 * unit.coef
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
                             coef=(1.0 if n == 3 else 1.0 / p), eps=eps)
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
    problem = PEnergyProblem(grid, 2.0, mask, np.zeros(grid.node_shape),
                             coef=1.0 / 2.0)
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
    problem = PEnergyProblem(grid, 2.0, mask, np.zeros(grid.node_shape),
                             coef=1.0 / 2.0)
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
    problem = PEnergyProblem(grid, 3.0, bmask, fixed, coef=1.0 / 3.0)
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
    problem = PEnergyProblem(grid, 3.0, bmask, fixed, coef=1.0 / 3.0)
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


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_the_energy_stop_is_relative_at_every_scale(p):
    # f_k - f_k+1 <= REL_ENERGY_TOL max(|f_k|, |f_k+1|) with no floor of
    # 1: the problem scaled to an energy of 1e-4 times its own reaches
    # the same relative accuracy in as many iterations
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    bmask = grid.boundary_node_mask()
    X, Y = np.meshgrid(*grid.node_axes(), indexing="ij")
    fixed = np.where(bmask, np.sin(3.0 * X) + Y * Y, 0.0)
    runs = []
    for coef in (1.0, 1e-4):
        problem = PEnergyProblem(grid, p, bmask, fixed, coef=coef,
                                 eps=(1e-12 if p < 2 else 0.0))
        u, info = minimize_p_energy(problem)
        _, exact = newton_polish(problem, u)
        runs.append((info.iterations,
                     (info.energy - exact.energy) / abs(exact.energy)))
    (iters, err), (scaled_iters, scaled_err) = runs
    assert abs(iters - scaled_iters) <= 2
    assert 0.0 <= err < 1e-6 and 0.0 <= scaled_err < 1e-6


def test_lbfgs_minimizes_a_quadratic():
    # 1/2 x'Ax - b'x with condition number 1e3 in 40 unknowns; the start
    # is left as it was
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    A = Q @ np.diag(np.geomspace(1.0, 1e3, 40)) @ Q.T
    b = rng.normal(size=40)
    x0 = np.zeros(40)
    x, f, g, iters, failure = penergy._lbfgs(
        lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b), x0)
    exact = np.linalg.solve(A, b)
    assert failure is None and 0 < iters < 200
    assert np.array_equal(x0, np.zeros(40))
    assert np.array_equal(g, A @ x - b) and f == 0.5 * x @ A @ x - b @ x
    assert abs(f + 0.5 * b @ exact) <= 1e-7 * abs(0.5 * b @ exact)


class _PoisonedProblem(PEnergyProblem):
    """The energy is nan everywhere but at the start, so no step passes
    the Armijo test."""

    def energy_and_grad(self, u):
        energy, grad = super().energy_and_grad(u)
        if not np.array_equal(u, self.fixed_values):
            energy = math.nan
        return energy, grad


def test_a_stalled_descent_raises():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 8.0)
    bmask = grid.boundary_node_mask()
    X, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    fixed = np.where(bmask, X, 0.0)
    problem = _PoisonedProblem(grid, 2.0, bmask, fixed, coef=0.5)
    with pytest.raises(ResolutionError, match="line search stalled"):
        minimize_p_energy(problem, u0=np.zeros(grid.node_shape))


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
    for p in (2.0, 3.0):
        calls.clear()
        sol = solve_p_dirichlet(grid, None, p, _pole_data)
        assert sol.residual < 1e-12
        assert calls and set(calls) == {"NATURAL"}
        # 2-D makes one spsolve per factorization
        assert len(calls) == sol.extras["factorizations"]
        assert sol.extras["factorizations"] >= sol.extras["newton_steps"] >= 1


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
    problem = PEnergyProblem(grid, 3.0, bmask, np.where(bmask, X * X, 0.0),
                             coef=1.0 / 3.0)
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
    problem = PEnergyProblem(grid, 3.0, bmask, fixed, coef=1.0 / 3.0)
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


def _polish_3d(cells, p, coef, atom):
    """A 3-D Dirichlet problem on a box of pitch 1/8 and a start from a
    loose descent: boundary data a + b.x + c |x|^2 + d sin(3x - y + 2z),
    with one interior atom of mass atom[3] at atom[:3] (fractions of
    the interior cells) or none."""
    h = 0.125
    grid = EvaluationGrid.from_box((0.0,) * 3, np.multiply(cells, h), h)
    bmask = grid.boundary_node_mask()
    X, Y, Z = np.meshgrid(*grid.node_axes(), indexing="ij")
    a, bx, by, bz, c, d = coef
    data = (a + bx * X + by * Y + bz * Z + c * (X * X + Y * Y + Z * Z)
            + d * np.sin(3.0 * X - Y + 2.0 * Z))
    load = None
    if atom is not None:
        # within [h, (c - 1) h) the atom's cell is off the boundary
        point = [h * (1.0 + t * (n - 2.0)) for t, n in zip(atom[:3], cells)]
        mu = AtomicMeasure([point], [atom[3]])
        load = scatter_cells_to_nodes(mu.cell_masses(grid), grid)
    problem = PEnergyProblem(grid, p, bmask, np.where(bmask, data, 0.0),
                             coef=1.0 / p, load=load,
                             eps=(1e-12 if p < 2 else 0.0))
    # a loose descent leaves the polish several steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(penergy, "REL_ENERGY_TOL", 1e-4)
        u, _ = minimize_p_energy(
            problem, affine_fill(grid, problem.fixed_values, bmask))
    return problem, u


def _exact_newton(problem, u0):
    """Test-local Newton reference: ``newton_polish``'s steps and line
    search, with every Newton system solved exactly by spsolve."""
    hess = _FrozenHessian(problem.grid, problem.fixed_mask)
    free = hess.order
    u = u0.copy()
    flat = u.reshape(-1)
    e0, grad = problem.energy_and_grad(u)
    g0 = grad.reshape(-1)[free]
    for _ in range(penergy.NEWTON_ITERS):
        gmax = float(np.max(np.abs(g0)))
        if gmax < penergy.NEWTON_GTOL:
            return u
        step = scipy.sparse.linalg.spsolve(hess.assemble(problem, u), -g0)
        slope = float(g0 @ step)
        rounding = 64.0 * np.finfo(float).eps * max(1.0, abs(e0))
        x0, t = flat[free], 1.0
        while True:
            flat[free] = x0 + t * step
            e1, grad = problem.energy_and_grad(u)
            g1 = grad.reshape(-1)[free]
            if -t * slope < rounding:
                if np.max(np.abs(g1)) < gmax:
                    break
                flat[free] = x0
                return u
            if e1 <= e0 + 1e-4 * t * slope:
                break
            t *= 0.5
        e0, g0 = e1, g1
    raise AssertionError("the reference Newton did not converge")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(4, 8)] * 3), st.floats(1.5, 3.0),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       st.none() | st.tuples(*[st.floats(0.0, 0.999)] * 3,
                             st.floats(0.05, 2.0)))
@example((8, 8, 8), 2.5, [0.0] * 6, (0.4, 0.5, 0.5, 1.0))
@example((4, 7, 5), 1.5, [0.3, -1.0, 0.5, 0.2, 1.0, 0.7], None)
def test_3d_polish_with_one_factor_equals_refactoring(cells, p, coef, atom):
    problem, u0 = _polish_3d(cells, p, coef, atom)
    u, info = newton_polish(problem, u0)
    ref = _exact_newton(problem, u0)
    assert info.factorizations <= max(1, info.newton_steps)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def _band_reference(M, kd):
    """The lower band of the CSC matrix M in LAPACK lower band storage,
    single precision: entry (d, j) is M[j + d, j]."""
    low = sp.tril(M).tocoo()
    ab = np.zeros((kd + 1, M.shape[0]), dtype=np.float32)
    ab[low.row - low.col, low.col] = low.data
    return ab


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(4, 8)] * 3), st.floats(1.5, 3.0),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.3))
@example((8, 6, 7), 2.5, 1, 0.3)
def test_3d_band_from_slot_map_equals_csc_band(cells, p, seed, share):
    h = 0.125
    grid = EvaluationGrid.from_box((0.0,) * 3, np.multiply(cells, h), h)
    rng = np.random.default_rng(seed)
    # the boundary and a random share of the interior nodes are pinned
    mask = grid.boundary_node_mask() | (rng.random(grid.node_shape) < share)
    X, Y, Z = np.meshgrid(*grid.node_axes(), indexing="ij")
    data = X * X - Y + 0.5 * np.sin(2.0 * Z) + 0.1 * rng.normal(
        size=grid.node_shape)
    problem = PEnergyProblem(grid, p, mask, np.where(mask, data, 0.0),
                             coef=1.0 / p, eps=(1e-12 if p < 2 else 0.0))
    hess = _FrozenHessian(grid, mask)
    # above 2-D the free nodes are in lattice order, longest axis slowest
    assert np.array_equal(np.sort(hess.order), np.flatnonzero(~mask.ravel()))
    coords = np.unravel_index(hess.order, grid.node_shape)
    slowest_first = sorted(range(3), key=lambda a: -grid.node_shape[a])
    keys = [coords[a] for a in reversed(slowest_first)]
    assert np.array_equal(np.lexsort(keys), np.arange(hess.order.size))
    M = hess.assemble(problem, rng.normal(size=grid.node_shape))
    low = sp.tril(M).tocoo()
    kd = int(np.max(low.row - low.col, initial=0))
    assert hess.kd == kd
    for lam in (0.0, 1e-10, 1e-4):
        D = M.copy()
        D.data[hess.diag] += lam
        band = hess.band(D.data)
        ref = _band_reference(D, kd)
        assert band.dtype == ref.dtype and band.shape == ref.shape
        assert np.array_equal(band, ref)
    # a polish on such a mask converges to NEWTON_GTOL
    u0 = affine_fill(grid, problem.fixed_values, mask)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(penergy, "REL_ENERGY_TOL", 1e-4)
        u0, _ = minimize_p_energy(problem, u0)
    u, info = newton_polish(problem, u0)
    assert info.grad_norm < penergy.NEWTON_GTOL
    assert np.array_equal(u[mask], problem.fixed_values[mask])


def test_3d_flat_start_factors_no_singular_matrix(monkeypatch):
    # the 3-D form of test_flat_start_factors_no_singular_matrix: every
    # band factorization succeeds and every preconditioner solve is
    # finite
    results = []
    factor, solve = scipy.linalg.lapack.spbtrf, scipy.linalg.lapack.spbtrs

    def recording_factor(*args, **kwargs):
        c, info = factor(*args, **kwargs)
        results.append(info == 0)
        return c, info

    def recording_solve(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        results.append(info == 0 and bool(np.all(np.isfinite(x))))
        return x, info

    monkeypatch.setattr(scipy.linalg.lapack, "spbtrf", recording_factor)
    monkeypatch.setattr(scipy.linalg.lapack, "spbtrs", recording_solve)
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 1.0 / 8.0)
    bmask = grid.boundary_node_mask()
    X, _, _ = np.meshgrid(*grid.node_axes(), indexing="ij")
    problem = PEnergyProblem(grid, 3.0, bmask, np.where(bmask, X * X, 0.0),
                             coef=1.0 / 3.0)
    monkeypatch.setattr(penergy, "LBFGS_MAXITER", 3)
    _, info = minimize_p_energy(problem, polish="newton")
    assert results and all(results)
    assert info.grad_norm < 1e-12
    # the later steps ran CG on the kept factor
    assert info.factorizations < info.newton_steps


def test_3d_polish_without_descent_direction_raises(monkeypatch):
    # the 3-D form of test_polish_without_descent_direction_raises: a
    # factor whose solve points uphill is never kept, and every damping
    # retry factors again.  CG does not change under a sign flip of its
    # preconditioner, so the step here is the factor's own solve.
    factor, solve = scipy.linalg.lapack.spbtrf, scipy.linalg.lapack.spbtrs
    factored = []

    def counting(*args, **kwargs):
        factored.append(1)
        return factor(*args, **kwargs)

    def ascent(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        return -x, info

    monkeypatch.setattr(scipy.linalg.lapack, "spbtrf", counting)
    monkeypatch.setattr(scipy.linalg.lapack, "spbtrs", ascent)
    monkeypatch.setattr(penergy, "_pcg", lambda H, b, precond: precond(b))
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 1.0 / 8.0)
    with pytest.raises(ResolutionError, match="no descent direction"):
        solve_p_dirichlet(grid, None, 2.0,
                          lambda pts: np.sin(pts @ [3.0, -1.0, 2.0]))
    assert len(factored) == 8


@pytest.mark.parametrize("box", [(0.1, 0.1, 3.0), (3.0, 0.1, 0.1),
                                 (0.1, 3.0, 0.1)])
def test_3d_band_is_as_wide_as_the_smallest_lattice_plane(box):
    # 11 x 11 x 301 nodes in any axis order: the longest axis runs
    # slowest, so the band half-width is 9 * 9 + 9 + 1 free nodes rather
    # than the 9 * 299 + 299 + 1 of lattice order along a long last axis
    grid = EvaluationGrid.from_box((0.0,) * 3, box, 0.01)
    hess = _FrozenHessian(grid, grid.boundary_node_mask())
    assert hess.order.size == 9 * 9 * 299
    assert hess.kd == 91


def test_3d_failed_band_factorization_is_retried(monkeypatch):
    # a zero-data problem started from two bumped interior nodes: at
    # p = 2.5 its Hessian is positive definite in double precision, but
    # spbtrf finds its single-precision band is not (info > 0).  The
    # failed factor is never solved with; the retry shifts the band, so
    # one factorization more succeeds, while CG keeps solving the
    # undamped Hessian
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 0.25)
    mask = grid.boundary_node_mask()
    problem = PEnergyProblem(grid, 2.5, mask, np.zeros(grid.node_shape),
                             coef=0.4)
    u0 = np.zeros(grid.node_shape)
    u0[2:4, 2, 2] = 1.0
    hess = _FrozenHessian(grid, mask)
    H0 = hess.assemble(problem, u0)
    assert np.all(H0.data[hess.diag] > 0.0)
    ab = hess.band(H0.data)
    assert scipy.linalg.lapack.dpbtrf(ab.astype(float), lower=1)[1] == 0
    assert scipy.linalg.lapack.spbtrf(ab, lower=1)[1] > 0

    factor, solve = scipy.linalg.lapack.spbtrf, scipy.linalg.lapack.spbtrs
    assemble, pcg = _FrozenHessian.assemble, penergy._pcg
    calls, diagonals, assembled, solved = [], [], [], []

    def recording_factor(ab, **kwargs):
        diagonals.append(ab[0].copy())
        c, info = factor(ab, **kwargs)
        calls.append(info)
        return c, info

    def recording_solve(*args, **kwargs):
        calls.append("solve")
        return solve(*args, **kwargs)

    def recording_assemble(self, problem, u):
        assembled.append(assemble(self, problem, u))
        return assembled[-1]

    def recording_pcg(H, b, precond):
        solved.append(H)
        return pcg(H, b, precond)

    monkeypatch.setattr(scipy.linalg.lapack, "spbtrf", recording_factor)
    monkeypatch.setattr(scipy.linalg.lapack, "spbtrs", recording_solve)
    monkeypatch.setattr(_FrozenHessian, "assemble", recording_assemble)
    monkeypatch.setattr(penergy, "_pcg", recording_pcg)
    _, info = newton_polish(problem, u0)
    assert info.grad_norm < penergy.NEWTON_GTOL
    factored = [c for c in calls if c != "solve"]
    assert info.factorizations == len(factored)
    # the failure is followed at once by a factorization that succeeds
    assert factored[0] > 0 and calls[1] == 0
    assert all(c == 0 for c in factored[1:])
    # no band is factored again bit for bit
    assert all(not np.array_equal(a, b)
               for a, b in zip(diagonals, diagonals[1:]))
    # every CG solve runs on an assembled Hessian, undamped
    assert solved and all(any(H is A for A in assembled) for H in solved)


def _hand_cascade(levels, u0, polish=None):
    """Reference cascade written out level by level, coarsest first: each
    level starts from the prolonged minimizer below it, clipped to its
    pinned range when it has no load, with its pinned nodes reset (which
    the solver ignores: it reads only the free nodes of a start)."""
    u = info = None
    for k, prob in enumerate(levels):
        if u is not None:
            pinned = prob.fixed_values[prob.fixed_mask]
            u0 = refine_nodes(u)
            if prob.load is None:
                u0 = np.clip(u0, pinned.min(), pinned.max())
            u0[prob.fixed_mask] = pinned
        u, info = minimize_p_energy(
            prob, u0, polish=polish if k == len(levels) - 1 else None)
    return u, info


def _capacity_level(h, p=1.5):
    """The ball of radius 0.3 in the unit ball of R^3 at pitch h."""
    omega = BallDomain((0.0,) * 3, 1.0)
    grid = omega.grid(h)
    meets = BallUnion([np.zeros(3)], [0.3]).meets_cells(grid)
    ones = scatter_cells_to_nodes(meets.astype(float), grid) > 0
    return PEnergyProblem(grid, p, omega.zero_mask(grid) | ones,
                          np.where(ones, 1.0, 0.0), coef=1.0)


def _dirichlet_level(data, stride):
    """Array boundary data on the unit square, read at every stride-th
    node, with the solver's p < 2 regularization."""
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0),
                                   stride / (data.shape[0] - 1))
    bmask = grid.boundary_node_mask()
    vals = np.where(bmask, data[::stride, ::stride], 0.0)
    return PEnergyProblem(grid, 1.5, bmask, vals, coef=1.0 / 1.5, eps=1e-12)


@pytest.mark.parametrize("kind", ["capacity", "dirichlet"])
def test_cascade_equals_the_hand_written_loop(kind):
    if kind == "capacity":
        levels = [_capacity_level(h) for h in (0.4, 0.2, 0.1)]
        u0, polish = None, None
    else:
        fine = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
        data = _pole_data(fine.node_points()).reshape(fine.node_shape)
        levels = [_dirichlet_level(data, s) for s in (4, 2, 1)]
        top = levels[0]
        u0 = affine_fill(top.grid, top.fixed_values, top.fixed_mask)
        polish = "newton"
    u, info = minimize_p_energy(levels[-1], u0, coarse=levels[:-1],
                                polish=polish)
    ref_u, ref_info = _hand_cascade(levels, u0, polish)
    assert np.array_equal(u, ref_u)
    assert info == ref_info


def _recording_descent(monkeypatch):
    """Record (start, minimizer) of the free nodes of every descent."""
    runs = []
    original = penergy._lbfgs

    def recording(fg, x0, *args):
        start = x0.copy()
        out = original(fg, x0, *args)
        runs.append((start, out[0].copy()))
        return out

    monkeypatch.setattr(penergy, "_lbfgs", recording)
    return runs


def test_capacity_cascade_starts_inside_the_unit_interval(monkeypatch):
    # the cell-averaged gradient lets the coarse minimizer leave [0, 1]
    # (here it dips to -0.05); the maximum principle puts the finer
    # level's start back inside
    runs = _recording_descent(monkeypatch)
    est = p_capacity(BallUnion([np.zeros(3)], [0.3]),
                     BallDomain((0.0,) * 3, 1.0), 1.5, 0.1)
    assert est.extras["levels"] == len(runs) == 2
    (_, coarse_min), (fine_start, _) = runs
    assert coarse_min.min() < -0.01
    assert 0.0 <= fine_start.min() and fine_start.max() <= 1.0


def test_an_unknown_polish_raises_before_any_descent(monkeypatch):
    runs = _recording_descent(monkeypatch)
    levels = [_capacity_level(h) for h in (0.4, 0.2)]
    with pytest.raises(ValueError, match="polish"):
        minimize_p_energy(levels[1], coarse=levels[:1], polish="Newton")
    assert runs == []


def test_a_level_with_a_load_is_not_clipped(monkeypatch):
    # zero boundary data pins the range [0, 0]; the load lifts the
    # minimizer above it, and the finer start keeps that lift
    def level(h):
        grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), h)
        bmask = grid.boundary_node_mask()
        load = scatter_cells_to_nodes(np.full(grid.cells, h * h), grid)
        return PEnergyProblem(grid, 2.0, bmask, np.zeros(grid.node_shape),
                              coef=0.5, load=load)

    coarse, fine = level(1.0 / 8.0), level(1.0 / 16.0)
    u_coarse, _ = minimize_p_energy(coarse)
    runs = _recording_descent(monkeypatch)
    minimize_p_energy(fine, coarse=[coarse])
    start = runs[1][0]
    assert start.max() > 0.01
    assert np.array_equal(start, refine_nodes(u_coarse)[~fine.fixed_mask])
