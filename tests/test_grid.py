"""Uniform lattice bookkeeping: axes, masks, location, interpolation."""

import numpy as np
import pytest

from potkit.grid import EvaluationGrid


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


def test_node_points_order_matches_ravel():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.5)
    pts = g.node_points()
    X, Y = np.meshgrid(*g.node_axes(), indexing="ij")
    assert np.allclose(pts[:, 0], X.ravel())
    assert np.allclose(pts[:, 1], Y.ravel())


def test_cell_center_dist2():
    g = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.5)
    d2 = g.cell_center_dist2((0.25, 0.25))
    assert d2.shape == g.cell_shape
    assert d2[0, 0] == pytest.approx(0.0)
    assert d2[1, 1] == pytest.approx(0.5)
