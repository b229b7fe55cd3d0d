"""Uniform lattice bookkeeping: axes, masks, location, interpolation."""

import numpy as np
import pytest

from potkit.grid import EvaluationGrid, _mesh


def test_from_box_counts_cells():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 2.0), 0.25)
    assert g.cells == (4, 8)
    assert g.node_shape == (5, 9)
    assert g.h == 0.25
    assert g.cell_volume == pytest.approx(0.0625)


def test_from_box_requires_divisible_pitch():
    with pytest.raises(ValueError):
        EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.3)


def test_node_axes_span_box():
    g = EvaluationGrid.from_box((-1.0, 0.0), (1.0, 1.0), 0.5)
    ax0, ax1 = g.node_axes()
    assert ax0[0] == -1.0 and ax0[-1] == 1.0
    assert np.allclose(np.diff(ax0), 0.5)
    assert ax1.size == 3


def test_boundary_mask_marks_faces_only():
    g = EvaluationGrid.from_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.25)
    mask = g.boundary_node_mask()
    assert mask.shape == g.node_shape
    assert mask[0].all() and mask[-1].all()
    assert mask[:, 0].all() and mask[:, :, 0].all()
    assert not mask[1:-1, 1:-1, 1:-1].any()
    inner = np.prod([s - 2 for s in g.node_shape])
    assert mask.sum() == g.n_nodes - inner


def test_locate_cell_and_centers():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.25)
    assert g.locate_cell((0.1, 0.1)) == (0, 0)
    assert g.locate_cell((0.99, 0.01)) == (3, 0)
    assert g.locate_cell((2.0, 0.0)) is None
    centers = g.cell_center_axes()
    assert centers[0][0] == pytest.approx(0.125)


def test_interpolate_reproduces_affine():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.125)
    X, Y = np.meshgrid(*g.node_axes(), indexing="ij")
    vals = 2.0 * X - 0.5 * Y + 0.25
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=2)
        want = 2.0 * x[0] - 0.5 * x[1] + 0.25
        assert g.interpolate(vals, x) == pytest.approx(want, abs=1e-12)


def test_contains_with_slack():
    g = EvaluationGrid.from_box((0.0,) * 2, (1.0,) * 2, 0.5)
    assert g.contains((0.5, 0.5))
    assert not g.contains((1.1, 0.5))
    assert g.contains((1.05, 0.5), slack=0.1)


def _meshgrid_stack(axes):
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def test_node_points_order_matches_ravel():
    for g in (EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.5),
              EvaluationGrid.from_box((-1.0, 0.0, 0.5), (0.5, 1.0, 1.0), 0.25)):
        assert np.array_equal(g.node_points(), _meshgrid_stack(g.node_axes()))
        centres = _meshgrid_stack(g.cell_center_axes())
        assert np.array_equal(g.cell_center_points(), centres)
        mask = np.random.default_rng(3).random(g.cell_shape) < 0.3
        assert np.array_equal(g.cell_center_points(mask),
                              centres[mask.ravel()])
        nodes = g.boundary_node_mask()
        assert np.array_equal(_mesh(g.node_axes(), nodes),
                              g.node_points()[nodes.ravel()])


def test_cell_center_dist2():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.5)
    d2 = g.cell_center_dist2((0.25, 0.25))
    assert d2.shape == g.cell_shape
    assert d2[0, 0] == pytest.approx(0.0)
    assert d2[1, 1] == pytest.approx(0.5)


def _brute_cell_dist2_range(g, x):
    """Cell by cell: the least squared distance is to x clipped to the
    closed cell [c, c + h], the greatest the largest over its corners;
    squares are summed axis by axis, first axis first."""
    corners = [ax[:-1] for ax in g.node_axes()]
    d2min, d2max = np.empty(g.cell_shape), np.empty(g.cell_shape)
    for idx in np.ndindex(*g.cell_shape):
        lo = [corners[a][k] for a, k in enumerate(idx)]
        near = 0.0
        for a in range(g.dim):
            near += (min(max(x[a], lo[a]), lo[a] + g.h) - x[a]) ** 2
        far = 0.0
        for bits in np.ndindex(*(2,) * g.dim):
            d2 = 0.0
            for a in range(g.dim):
                d2 += (lo[a] + g.h * bits[a] - x[a]) ** 2
            far = max(far, d2)
        d2min[idx], d2max[idx] = near, far
    return d2min, d2max


@pytest.mark.parametrize("lo, hi, h, x", [
    ((-1.0, 0.0), (1.0, 1.5), 0.25, (0.1, 0.7)),            # inside
    ((-1.0, 0.0), (1.0, 1.5), 0.25, (-0.5, 0.3)),           # on a node
    ((-1.0, 0.0), (1.0, 1.5), 0.25, (-1.0, 0.9)),           # on a face
    ((-1.0, 0.0), (1.0, 1.5), 0.25, (1.7, -0.3)),           # outside
    ((0.0, -0.3, 0.1), (0.6, 0.3, 0.5), 0.1, (0.33, 0.05, 0.2)),
    ((0.0, -0.3, 0.1), (0.6, 0.3, 0.5), 0.1, (0.2, 0.3, 0.27)),
    ((0.0, -0.3, 0.1), (0.6, 0.3, 0.5), 0.1, (-0.4, 0.9, 0.0)),
], ids=["2d-inside", "2d-node", "2d-face", "2d-outside",
        "3d-inside", "3d-face", "3d-outside"])
def test_cell_dist2_range_is_the_brute_force_bit_for_bit(lo, hi, h, x):
    g = EvaluationGrid.from_box(lo, hi, h)
    d2min, d2max = g.cell_dist2_range(x)
    want_min, want_max = _brute_cell_dist2_range(g, x)
    assert d2min.shape == d2max.shape == g.cell_shape
    assert np.array_equal(d2min, want_min)
    assert np.array_equal(d2max, want_max)
    # the cells holding x are the ones at distance 0
    assert (d2min == 0.0).any() == g.contains(x)


def test_cells_within_is_the_whole_grid_least_distance_test():
    """Each row's sub-block holds every cell it can reach, so the mask is
    the union of ``cell_dist2_range(x)[0] <= r2`` over the rows, also for
    radii of whole cells, rows on faces and rows far outside the grid."""
    rng = np.random.default_rng(5)
    for g in (EvaluationGrid.from_box((-1.0, 0.0), (1.0, 1.5), 0.25),
              EvaluationGrid.from_box((0.0, -0.3, 0.1), (0.6, 0.3, 0.5), 0.1)):
        lo, hi = np.asarray(g.lo), np.asarray(g.hi)
        centers = np.concatenate([lo + (hi - lo) * rng.uniform(-0.5, 1.5, (40, g.dim)),
                                  [lo, hi, lo - 3.0, lo + g.h]])
        r2 = np.concatenate([rng.uniform(0.0, 0.3, 40),
                             [g.h ** 2, (2 * g.h) ** 2, 0.01, 0.0]])
        want = np.zeros(g.cell_shape, dtype=bool)
        for x, t in zip(centers, r2):
            want |= g.cell_dist2_range(x)[0] <= t
            assert np.array_equal(g.cells_within([x], [t]),
                                  g.cell_dist2_range(x)[0] <= t)
        assert np.array_equal(g.cells_within(centers, r2), want)
