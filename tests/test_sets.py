"""Parametric sets: membership, cell marking, segment hits, samples."""

import math

import numpy as np
import pytest

from potkit.grid import EvaluationGrid
from potkit.sets import (
    BallUnion,
    BoxUnion,
    Cusp,
    PointList,
    RestrictedSet,
    Sphere,
    cantor_dust,
    _halton,
    segment_set,
    sphere_directions,
)


def test_ball_union_contains():
    E = BallUnion([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.5])
    pts = np.array([[0.0, 0.0], [0.9, 0.0], [1.6, 0.0], [1.4, 0.0]])
    assert E.contains(pts).tolist() == [True, True, True, False]


def test_ball_union_closed_boundary():
    E = BallUnion([[0.0, 0.0]], [1.0])
    assert E.contains(np.array([[1.0, 0.0]]))[0]


def test_box_union_contains():
    E = BoxUnion([[0.0, 0.0]], [[1.0, 1.0]])
    pts = np.array([[0.5, 0.5], [1.0, 1.0], [1.1, 0.5]])
    assert E.contains(pts).tolist() == [True, True, False]


def test_meets_cells_marks_all_touched_cells():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.25)
    # ball centered on the cell corner (0.5, 0.5) touches four cells
    E = BallUnion([[0.5, 0.5]], [0.05])
    mask = E.meets_cells(grid)
    assert mask.shape == grid.cell_shape
    assert mask[1, 1] and mask[1, 2] and mask[2, 1] and mask[2, 2]
    assert mask.sum() == 4


def test_meets_cells_symmetric_for_centered_ball():
    grid = EvaluationGrid.from_box((-1.0, -1.0), (1.0, 1.0), 0.125)
    mask = BallUnion([[0.0, 0.0]], [0.4]).meets_cells(grid)
    assert np.array_equal(mask, mask[::-1])
    assert np.array_equal(mask, mask[:, ::-1])
    assert np.array_equal(mask, mask.T)


# every radius is a whole number of cells, so cells touch the spheres
# exactly; touching counts as meeting whatever the round-off in lo + h i
@pytest.mark.parametrize("E", [
    BallUnion([np.zeros(3)], [0.25]),
    BallUnion([np.zeros(3)], [0.75]),
    Sphere(np.zeros(3), 0.25),
    Sphere(np.zeros(3), 0.5),
    RestrictedSet(BallUnion([np.zeros(3)], [0.75]), np.zeros(3), 0.25, 0.5),
], ids=["ball-0.25", "ball-0.75", "sphere-0.25", "sphere-0.5", "restricted"])
def test_cell_marks_of_touching_sets_equal_their_flips(E):
    grid = EvaluationGrid.from_box((-1.0,) * 3, (1.0,) * 3, 1.0 / 12.0)
    mask = E.meets_cells(grid)
    for axis in range(3):
        assert np.array_equal(mask, np.flip(mask, axis))


def test_segment_hits_ball():
    E = BallUnion([[1.0, 0.0, 0.0]], [0.25])
    assert E.segment_hits(np.zeros(3), np.array([2.0, 0.0, 0.0]))
    assert not E.segment_hits(np.zeros(3), np.array([0.0, 2.0, 0.0]))
    # tangent segment just misses the open complement, still a hit
    assert E.segment_hits(np.array([0.0, 0.25, 0.0]),
                          np.array([2.0, 0.25, 0.0]))


def test_segment_hits_box():
    E = BoxUnion([[0.4, 0.4]], [[0.6, 0.6]])
    assert E.segment_hits(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
    assert not E.segment_hits(np.array([0.0, 0.0]), np.array([0.3, 0.0]))


def test_sphere_membership_is_thin_shell():
    E = Sphere([0.0, 0.0, 0.0], 1.0)
    pts = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    got = E.contains(pts)
    assert got.tolist() == [True, False, False]


def test_point_list_and_empty_sample():
    E = PointList([[0.0, 0.0], [0.5, 0.5]])
    assert E.contains(np.array([[0.5, 0.5]]))[0]
    assert not E.contains(np.array([[0.25, 0.25]]))[0]
    assert E.sample_points(0.1).shape[0] == 2


def test_cusp_contains_power_region():
    # gamma-cusp: |y| <= x^gamma along the axis, 0 <= x <= length
    E = Cusp(2.0, 1.0, dim=2)
    assert E.contains(np.array([[0.5, 0.2]]))[0]
    assert not E.contains(np.array([[0.5, 0.3]]))[0]
    assert not E.contains(np.array([[-0.1, 0.0]]))[0]


def test_cantor_dust_depth_scaling():
    E2 = cantor_dust(2, dim=2)
    E3 = cantor_dust(3, dim=2)
    # each level keeps 2 of 3 thirds along the chosen axis
    assert len(E2.los) == 4
    assert len(E3.los) == 8
    width2 = E2.his[0][0] - E2.los[0][0]
    assert width2 == pytest.approx(1.0 / 9.0)


def test_cantor_dust_nested():
    E2 = cantor_dust(2, dim=2)
    E4 = cantor_dust(4, dim=2)
    pts = E4.sample_points(0.01)
    assert E2.contains(pts).all()


def test_segment_set_is_degenerate_box():
    E = segment_set(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert E.contains(np.array([[0.5, 0.0, 0.0]]))[0]
    assert not E.contains(np.array([[0.5, 0.1, 0.0]]))[0]


def test_restricted_set_annulus_window():
    base = segment_set(np.zeros(2), np.array([1.0, 0.0]))
    E = RestrictedSet(base, np.zeros(2), 0.25, 0.5)
    assert E.contains(np.array([[0.3, 0.0]]))[0]
    assert not E.contains(np.array([[0.1, 0.0]]))[0]
    assert not E.contains(np.array([[0.7, 0.0]]))[0]


def test_sample_points_lie_in_set():
    rng = np.random.default_rng(9)
    centers = rng.uniform(-0.5, 0.5, size=(3, 2))
    E = BallUnion(centers, [0.3, 0.2, 0.25])
    pts = E.sample_points(0.05)
    assert pts.shape[0] > 0
    assert E.contains(pts).all()


def test_sphere_directions_unit_and_deterministic():
    a = sphere_directions(3, 64)
    b = sphere_directions(3, 64)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    # reasonably spread: mean direction near zero
    assert np.linalg.norm(a.mean(axis=0)) < 0.2


@pytest.mark.parametrize("dim", [4, 5, 6, 8])
@pytest.mark.parametrize("count", [1, 64, 16384])
def test_halton_is_scipys_unscrambled_sequence_without_the_origin(dim, count):
    from scipy.stats import qmc
    want = qmc.Halton(d=dim, scramble=False).random(count + 1)[1:]
    assert np.array_equal(_halton(dim, count), want)


@pytest.mark.parametrize("dim", [4, 5, 6, 8])
def test_sphere_directions_in_higher_dimension_are_unit(dim):
    a = sphere_directions(dim, 256)
    assert a.shape == (256, dim)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-14)
    assert np.linalg.norm(a.mean(axis=0)) < 0.2


def test_sphere_directions_in_the_plane_and_on_the_2_sphere():
    # equiangular in the plane, Fibonacci on the 2-sphere, bit for bit
    ang = 2.0 * math.pi * (np.arange(7) + 0.5) / 7
    assert np.array_equal(sphere_directions(2, 7),
                          np.stack([np.cos(ang), np.sin(ang)], axis=1))
    k = np.arange(9)
    z = 1.0 - (2.0 * k + 1.0) / 9
    theta = 2.0 * math.pi * k / ((1.0 + math.sqrt(5.0)) / 2.0)
    rho = np.sqrt(1.0 - z * z)
    assert np.array_equal(
        sphere_directions(3, 9),
        np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1))


def test_scaled():
    E = BallUnion([[1.0, 0.0]], [0.5])
    S = E.scaled(0.5)
    assert S.contains(np.array([[0.5, 0.0]]))[0]
    assert not S.contains(np.array([[1.0, 0.35]]))[0]


def test_bounding_box_covers_set():
    E = BallUnion([[0.0, 0.0], [2.0, 1.0]], [1.0, 0.5])
    lo, hi = E.bounding_box()
    assert np.allclose(lo, [-1.0, -1.0])
    assert np.allclose(hi, [2.5, 1.5])
