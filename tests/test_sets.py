"""Parametric sets: membership, cell marking, segment hits, samples."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potkit.grid import EvaluationGrid
from potkit.sets import (
    TIE_REL_TOL,
    BallUnion,
    BoxUnion,
    Cusp,
    PointList,
    RestrictedSet,
    Sphere,
    cantor_dust,
    _halton,
    _lattice,
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


_SEGMENT_SAMPLE = 4001
_VEC3 = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _segment_sample(a, b):
    """Points of [a, b] at equal steps of |b - a| / 4000, and that step."""
    ts = np.linspace(0.0, 1.0, _SEGMENT_SAMPLE)
    return (a[None, :] + ts[:, None] * (b - a)[None, :],
            float(np.linalg.norm(b - a)) / (_SEGMENT_SAMPLE - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), center=_VEC3,
       radius=st.floats(0.1, 1.0), a=_VEC3, b=_VEC3)
# tangent at the midpoint, ending on the sphere from outside, and a = b
# on the sphere and off it, in 2-D and 3-D
@example(n=2, center=[0.0] * 3, radius=0.5, a=[-1.0, 0.5, 0.0],
         b=[1.0, 0.5, 0.0])
@example(n=3, center=[0.0] * 3, radius=0.5, a=[-1.0, 0.0, 0.5],
         b=[1.0, 0.0, 0.5])
@example(n=3, center=[0.1, 0.0, 0.0], radius=0.5, a=[1.0, 0.0, 0.0],
         b=[0.6, 0.0, 0.0])
@example(n=2, center=[0.0] * 3, radius=0.5, a=[0.0, 0.5, 0.0],
         b=[0.0, 0.5, 0.0])
@example(n=3, center=[0.0] * 3, radius=0.5, a=[0.0, 0.3, 0.0],
         b=[0.0, 0.3, 0.0])
def test_sphere_segment_hits_agree_with_a_dense_sample(n, center, radius,
                                                       a, b):
    c, a, b = (np.asarray(v[:n]) for v in (center, a, b))
    hit = Sphere(c, radius).segment_hits(a, b)
    pts, step = _segment_sample(a, b)
    off = np.sqrt(((pts - c) ** 2).sum(axis=1)) - radius
    # a sample on the sphere, or samples on both sides, is a hit; a hit
    # has a sample within a step of the sphere
    if off.min() <= 0.0 <= off.max():
        assert hit
    if hit:
        assert np.abs(off).min() <= step + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]),
       points=st.lists(_VEC3, min_size=1, max_size=5), a=_VEC3, b=_VEC3,
       on=st.none() | st.tuples(st.integers(0, 4),
                                st.integers(0, _SEGMENT_SAMPLE - 1)))
# through a listed point, and a = b on a listed point and off every one,
# in 2-D and 3-D
@example(n=2, points=[[0.3, 0.2, 0.0], [0.5, 0.5, 0.0]], a=[0.0, 0.0, 0.0],
         b=[0.6, 0.4, 0.0], on=None)
@example(n=3, points=[[0.3, 0.2, 0.1]], a=[0.0, 0.0, 0.0],
         b=[0.6, 0.4, 0.2], on=None)
@example(n=3, points=[[0.3, 0.2, 0.1]], a=[0.3, 0.2, 0.1],
         b=[0.3, 0.2, 0.1], on=None)
@example(n=2, points=[[0.3, 0.2, 0.0]], a=[0.3, 0.25, 0.0],
         b=[0.3, 0.25, 0.0], on=None)
def test_point_list_segment_hits_agree_with_a_dense_sample(n, points, a, b,
                                                          on):
    a, b = np.asarray(a[:n]), np.asarray(b[:n])
    pts, step = _segment_sample(a, b)
    listed = np.asarray(points)[:, :n]
    if on is not None:  # a listed point that is a sample of the segment
        listed[on[0] % len(listed)] = pts[on[1]]
    hit = PointList(listed).segment_hits(a, b)
    near = np.sqrt(((listed[:, None, :] - pts[None, :, :]) ** 2)
                   .sum(axis=2)).min()
    # a listed point at a sample is a hit; a hit has a listed point within
    # half a step of a sample
    if near == 0.0 or on is not None:
        assert hit
    if hit:
        assert near <= step / 2.0 + 1e-12


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


# the cell marks of ball and box unions as they were computed before
# the grid answered cell distances: each piece scanned an index window
# around its bounding box, widened by one cell
def _windowed_ball_marks(E, grid):
    mask = np.zeros(grid.cell_shape, dtype=bool)
    lo = np.asarray(grid.lo)
    shape = np.asarray(grid.cell_shape)
    for c, r in zip(E.centers, E.radii):
        lo_i = np.clip(np.floor((c - r - lo) / grid.h).astype(int) - 1,
                       0, shape - 1)
        hi_i = np.clip(np.floor((c + r - lo) / grid.h).astype(int) + 1,
                       0, shape - 1)
        axes = [np.arange(lo_i[a], hi_i[a] + 1) for a in range(E.dim)]
        d2 = 0.0
        for a in range(E.dim):
            cell_lo = lo[a] + grid.h * axes[a]
            nearest = np.clip(c[a], cell_lo, cell_lo + grid.h)
            sh = [1] * E.dim
            sh[a] = cell_lo.size
            d2 = d2 + ((nearest - c[a]) ** 2).reshape(sh)
        mask[tuple(np.ix_(*axes))] |= d2 <= r * r * (1.0 + TIE_REL_TOL)
    return mask


def _windowed_box_marks(E, grid):
    mask = np.zeros(grid.cell_shape, dtype=bool)
    glo = np.asarray(grid.lo)
    shape = np.asarray(grid.cell_shape)
    for lo, hi in zip(E.los, E.his):
        lo_i = np.clip(np.floor((lo - glo) / grid.h).astype(int) - 1,
                       0, shape - 1)
        hi_i = np.clip(np.floor((hi - glo) / grid.h).astype(int) + 1,
                       0, shape - 1)
        keep = []
        for a in range(E.dim):
            ks = np.arange(lo_i[a], hi_i[a] + 1)
            cl = glo[a] + grid.h * ks
            keep.append(ks[(cl + grid.h >= lo[a]) & (cl <= hi[a])])
        if all(k.size for k in keep):
            mask[tuple(np.ix_(*keep))] = True
    return mask


@st.composite
def _grid_and_pieces(draw, kind):
    """A small grid and 1-3 pieces placed in cell units: centres and
    corners on nodes, cell centres or off the lattice, also outside the
    grid; radii and box extents whole numbers of cells or not, boxes
    also degenerate."""
    n = draw(st.sampled_from([2, 3]))
    h = draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0]))
    lo = np.array(draw(st.lists(st.sampled_from([0.0, -0.5, 0.3]),
                                min_size=n, max_size=n)))
    cells = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    grid = EvaluationGrid.from_box(lo, lo + h * np.array(cells), h)
    units = st.builds(lambda i, f: i + f, st.integers(-2, 7),
                      st.sampled_from([0.0, 0.5, 0.137]))
    sizes = st.one_of(st.integers(0, 3).map(float), st.floats(0.01, 3.0))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        corner = lo + h * np.array(draw(st.lists(units, min_size=n,
                                                 max_size=n)))
        if kind == "ball":
            pieces.append((corner, h * max(draw(sizes), 0.01)))
        else:
            ext = h * np.array(draw(st.lists(sizes, min_size=n, max_size=n)))
            pieces.append((corner, corner + ext))
    a, b = (np.array(v) for v in zip(*pieces))
    return grid, (BallUnion(a, b) if kind == "ball" else BoxUnion(a, b))


def _ball_touching_cells_by_round_off():
    # a ball one cell wide centred on a node, whose touching cells lie
    # above r^2 by round-off in the corners 0.3 + h i
    h = 1.0 / 3.0
    lo = np.array([0.3, 0.0])
    grid = EvaluationGrid.from_box(lo, lo + h * np.array([2, 4]), h)
    return grid, BallUnion([lo + h * np.array([1.0, 2.0])], [h])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_grid_and_pieces("ball"))
@example(case=_ball_touching_cells_by_round_off())
def test_ball_union_marks_are_the_windowed_marks(case):
    grid, E = case
    assert np.array_equal(E.meets_cells(grid), _windowed_ball_marks(E, grid))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_grid_and_pieces("box"))
def test_box_union_marks_are_the_windowed_marks(case):
    grid, E = case
    assert np.array_equal(E.meets_cells(grid), _windowed_box_marks(E, grid))


@pytest.mark.parametrize("lo, hi", [
    ((0.0, 0.0), (1.0, 0.5)),
    ((-0.3, 0.1, 0.0), (0.2, 0.1, 0.7)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.5)),
], ids=["box", "plate", "segment"])
def test_one_box_samples_its_own_lattice(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    got = BoxUnion(lo[None, :], hi[None, :]).sample_points(0.1)
    assert np.array_equal(got, np.unique(_lattice(lo, hi, 0.1), axis=0))


def test_a_segment_between_the_layers_keeps_its_own_lattice():
    # the union lattice has layers at y = 0.125, ..., 0.875, of which the
    # box keeps the first; the segment at y = 1 meets none, so it falls
    # back to its own points
    E = BoxUnion([[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.3], [1.0, 1.0]])
    pts = E.sample_points(0.25)
    assert E.contains(pts).all()
    assert np.array_equal(np.unique(pts[:, 1]), [0.125, 1.0])
    on_segment = pts[pts[:, 1] == 1.0]
    assert np.array_equal(on_segment[:, 0], [0.125, 0.375, 0.625, 0.875])
