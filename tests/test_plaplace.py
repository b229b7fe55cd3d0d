"""Boundary-data and measure-data p-Laplace solves: the range of p, and
the residual a solve reports."""

from dataclasses import replace

import numpy as np
import pytest

from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath
from potkit.grid import EvaluationGrid
from potkit.measures import AtomicMeasure
from potkit.penergy import PEnergyProblem
from potkit.plaplace import (FundamentalSolution, solve_p_dirichlet,
                             super_asymptotic_report)


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


def test_residual_is_the_unregularized_defect():
    # at amplitude 1e-9 the cell gradients are small enough for the
    # solver's eps = 1e-12 to move the defect by orders of magnitude
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 32.0)
    exact = _radial_p_harmonic(1.5)
    sol = solve_p_dirichlet(grid, None, 1.5, lambda pts: 1e-9 * exact(pts))
    mask = grid.boundary_node_mask()
    problem = PEnergyProblem(grid, 1.5, mask, np.where(mask, sol.values, 0.0))
    _, grad = problem.energy_and_grad(sol.values)
    assert sol.residual == float(np.max(np.abs(grad[~mask])))
    _, reg = replace(problem, eps=1e-12).energy_and_grad(sol.values)
    assert sol.residual > 1e3 * float(np.max(np.abs(reg[~mask])))


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
