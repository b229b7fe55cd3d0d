"""Boundary-data and measure-data p-Laplace solves: the range of p, and
the residual a solve reports."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potkit import penergy
from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath
from potkit.grid import EvaluationGrid
from potkit.measures import AtomicMeasure
from potkit.penergy import (PEnergyProblem, affine_fill, minimize_p_energy,
                            scatter_cells_to_nodes)
from potkit.plaplace import (FundamentalSolution, _boundary_values,
                             solve_p_dirichlet, super_asymptotic_report)


def _radial_p_harmonic(p):
    """r^((p-2)/(p-1)) in 2-D, with its pole outside the unit square."""
    def u(pts):
        r = np.hypot(pts[..., 0] - 1.3, pts[..., 1] + 0.4)
        return r ** ((p - 2.0) / (p - 1.0))
    return u


def test_boundary_data_solve_above_dimension():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    exact = _radial_p_harmonic(3.0)
    sol = solve_p_dirichlet(grid, None, 3.0, exact)
    ref = exact(grid.node_points()).reshape(grid.node_shape)
    assert sol.residual < 1e-12
    assert np.max(np.abs(sol.values - ref)) <= 1e-2 * np.ptp(ref)


def test_measure_solve_above_dimension_raises():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 16.0)
    mu = AtomicMeasure([[0.5, 0.5]], [1.0])
    with pytest.raises(HypothesisViolation):
        solve_p_dirichlet(grid, mu, 3.0, 0.0)


@pytest.mark.parametrize("p", [1.0, 0.5, float("nan")])
def test_a_p_that_does_not_exceed_1_names_p(p):
    # NaN fails every comparison, so it reached the descent as a p that
    # passed the guard and stalled its line search at iteration 0
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 8.0)
    with pytest.raises(HypothesisViolation, match="p must exceed 1"):
        solve_p_dirichlet(grid, None, p, 0.0)
    with pytest.raises(ValueError, match="p must exceed 1"):
        PEnergyProblem(grid, p, grid.boundary_node_mask(),
                       np.zeros(grid.node_shape), coef=1.0)


def test_residual_is_the_unregularized_defect():
    # at amplitude 1e-9 the cell gradients are small enough for the
    # solver's eps = 1e-12 to move the defect by orders of magnitude
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    exact = _radial_p_harmonic(1.5)
    sol = solve_p_dirichlet(grid, None, 1.5, lambda pts: 1e-9 * exact(pts))
    mask = grid.boundary_node_mask()
    problem = PEnergyProblem(grid, 1.5, mask, np.where(mask, sol.values, 0.0),
                             coef=1.0 / 1.5)
    _, grad = problem.energy_and_grad(sol.values)
    assert sol.residual == float(np.max(np.abs(grad[~mask])))
    _, reg = replace(problem, eps=1e-12).energy_and_grad(sol.values)
    assert sol.residual > 1e3 * float(np.max(np.abs(reg[~mask])))


def _cascade_solve(grid, mu, data):
    """The p = 2 solve by the L-BFGS cascade: levels at 2h and 4h while
    the cell counts are even and at least 8, the fine descent, then the
    Newton polish."""
    def level(g):
        mask = g.boundary_node_mask()
        load = (None if mu is None
                else scatter_cells_to_nodes(mu.cell_masses(g), g))
        return PEnergyProblem(g, 2.0, mask, _boundary_values(g, data, mask),
                              coef=0.5, load=load)
    levels, g = [level(grid)], grid
    while (not np.any(np.asarray(g.cells) % 2) and min(g.cells) >= 8
           and len(levels) < 3):
        g = EvaluationGrid.from_box(g.lo, g.hi, 2.0 * g.h)
        levels.append(level(g))
    top = levels[-1]
    u, _ = minimize_p_energy(
        levels[0], affine_fill(top.grid, top.fixed_values, top.fixed_mask),
        coarse=levels[:0:-1], polish="newton")
    return u


def _check_newton_only(grid, mu, data):
    """A p = 2 solve takes at most 2 Newton steps and no descent, its
    residual is at round-off of the data range, and its values are the
    cascade's."""
    def no_descent(*args):
        raise AssertionError("a p = 2 solve ran the L-BFGS descent")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(penergy, "_lbfgs", no_descent)
        sol = solve_p_dirichlet(grid, mu, 2.0, data)
    span = np.ptp(sol.values[grid.boundary_node_mask()])
    # in 2-D every Newton step factors its Hessian once
    assert sol.extras == {"method": "newton",
                          "newton_steps": sol.iterations,
                          "factorizations": sol.iterations}
    assert sol.iterations <= 2
    assert sol.residual <= 1e-12 * span
    ref = _cascade_solve(grid, mu, data)
    assert np.max(np.abs(sol.values - ref)) <= 1e-10 * max(1.0, span)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(16, 64),
       st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
       st.floats(0.5, 2.0), st.floats(0.0, 6.0),
       st.none() | st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9),
                             st.floats(0.1, 3.0)))
@example(64, [0.3, -1.0, 0.5, 1.2, 0.4], 1.0, 5.0, (0.37, 0.61, 1.5))
@example(32, [0.0, 0.0, 0.0, 2.0, -1.0], 0.5, 6.0, None)
def test_p2_solve_is_one_newton_step(cells, coef, amp, freq, atom):
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / cells)
    a, b, c, d, phase = coef

    def data(pts):
        # the x^2 term spreads the data by at least amp / 4 on y = 0
        x, y = pts[..., 0], pts[..., 1]
        return (a + b * x + c * y + amp * x * x
                + d * np.sin(freq * (x - 0.3 * y) + phase) * np.cosh(y))

    mu = None if atom is None else AtomicMeasure([atom[:2]], [atom[2]])
    _check_newton_only(grid, mu, data)


@pytest.mark.parametrize("cells", [(2, 2), (9, 7)])
def test_p2_solve_without_a_coarse_level(cells):
    # odd or tiny cell counts leave the cascade no coarse level either
    grid = EvaluationGrid.from_box((0.0, 0.0), np.multiply(cells, 0.125),
                                   0.125)
    assert grid.cells == cells
    _check_newton_only(grid, None, lambda pts: np.exp(pts[..., 0])
                       * np.cos(2.0 * pts[..., 1]))


def test_super_asymptotic_limit_at_p_equal_n():
    # G_n = log(1/r): u / G_n = 1.7 + 0.9 / log(1/r) tends to 1.7 with a
    # correction of order 1/log(1/r)
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=24)
    rep = super_asymptotic_report(
        lambda pts: 1.7 * np.log(1.0 / np.linalg.norm(pts, axis=1)) + 0.9,
        3.0, np.zeros(3), path)
    assert rep.limit == pytest.approx(1.7, abs=1e-12)
    assert rep.correction_exponent == 1.0


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_super_asymptotic_limit_of_a_multiple_of_g_p(shift):
    # u = 2 G_p + shift: u / G_p = 2 + shift r^kappa tends to 2, and
    # u >= 2 G_p everywhere, so no constant c0 is needed
    u = FundamentalSolution(3, 2.5, m=2.0)
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=12)
    rep = super_asymptotic_report(lambda pts: u(pts) + shift, 2.5,
                                  np.zeros(3), path)
    assert rep.limit == pytest.approx(2.0, rel=1e-12)
    assert rep.extras["c0"] == 0.0


def test_super_asymptotic_report_at_p_equal_n_needs_radii_below_1():
    # G_n = log(1/r) vanishes at r = 1: a scene value the scaling cannot
    # take, a ValueError like the Wolff and Riesz reports raise, not a
    # failed hypothesis
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=1.0, ratio=0.5, count=12)
    with pytest.raises(ValueError, match="below 1") as exc:
        super_asymptotic_report(FundamentalSolution(3, 3.0), 3.0,
                                np.zeros(3), path)
    assert not isinstance(exc.value, HypothesisViolation)
