"""Uniform tensor-product grids on axis-aligned boxes.

A grid holds ``cells[a]`` cells of pitch ``h`` along each axis, hence
``cells[a] + 1`` nodes.  Nodes carry solution values (p-Laplace module),
cells carry densities and gradient samples (measures and energies).
Coordinates are never materialised as a full point array unless a caller
asks for them; axis vectors are enough for most operations and keep the
memory footprint linear.
The geometry of cells and point meshes lives here: ``_mesh`` is the one
tensor point array (nodes, cell centres, the lattices of ``sets``), and
``EvaluationGrid.cell_dist2_range`` and ``cells_within`` the cell
distance ranges behind the cell marks of balls, spheres and shells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


def _as_vec(x, n=None):
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        if n is None:
            raise ValueError("scalar given where a vector was expected")
        v = np.full(n, float(v))
    if v.ndim != 1:
        raise ValueError("expected a 1-D coordinate vector")
    if n is not None and v.size != n:
        raise ValueError(f"expected a vector of length {n}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    return v


def _dist2(axes, x) -> np.ndarray:
    """Squared distances from ``x`` to the tensor grid of the coordinate
    ``axes``, built by broadcasting axis by axis."""
    parts = []
    for a, ax in enumerate(axes):
        shape = [1] * len(axes)
        shape[a] = ax.size
        parts.append(((ax - x[a]) ** 2).reshape(shape))
    return reduce(np.add, parts)


def _mesh(axes, mask=None) -> np.ndarray:
    """Points of the tensor grid of the coordinate ``axes``, all or where
    ``mask`` (grid shape) holds, as (points, dim) in the grid's ravel order."""
    sel = slice(None) if mask is None else np.asarray(mask, dtype=bool).ravel()
    return np.stack([m.ravel()[sel] for m in np.meshgrid(*axes, indexing="ij")], 1)


@dataclass(frozen=True)
class EvaluationGrid:
    """Uniform grid with scalar pitch ``h`` on the box ``[lo, hi]``."""

    lo: tuple
    hi: tuple
    cells: tuple
    h: float

    @staticmethod
    def from_box(lo, hi, h) -> "EvaluationGrid":
        lo = _as_vec(lo)
        hi = _as_vec(hi, lo.size)
        if lo.size < 2:
            raise ValueError("grids are defined for dimension >= 2")
        if h <= 0:
            raise ValueError("pitch h must be positive")
        extent = hi - lo
        if np.any(extent <= 0):
            raise ValueError("box must have positive extent on every axis")
        cells = np.maximum(1, np.round(extent / h).astype(int))
        if not np.allclose(cells * h, extent, rtol=1e-9, atol=0.0):
            raise ValueError("pitch h must divide the box extent on every axis")
        return EvaluationGrid(tuple(lo), tuple(hi), tuple(int(c) for c in cells), float(h))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def node_shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    @property
    def cell_shape(self) -> tuple:
        return self.cells

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def node_axes(self) -> list:
        return [np.asarray(self.lo)[a] + self.h * np.arange(self.cells[a] + 1)
                for a in range(self.dim)]

    def cell_center_axes(self) -> list:
        return [np.asarray(self.lo)[a] + self.h * (np.arange(self.cells[a]) + 0.5)
                for a in range(self.dim)]

    def node_points(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim).  Materialises the
        full array; prefer :meth:`node_axes` for large grids."""
        return _mesh(self.node_axes())

    def cell_center_points(self, mask=None) -> np.ndarray:
        return _mesh(self.cell_center_axes(), mask)

    def cell_center_dist2(self, x) -> np.ndarray:
        """Squared distances from ``x`` to every cell center, in cell
        shape."""
        return _dist2(self.cell_center_axes(), _as_vec(x, self.dim))

    def node_dist2(self, x) -> np.ndarray:
        """Squared distances from ``x`` to every node, in node shape."""
        return _dist2(self.node_axes(), _as_vec(x, self.dim))

    def cell_dist2_range(self, x):
        """Least and greatest squared distance from ``x`` to each closed
        cell, both in cell shape: the distances to the point of the cell
        nearest ``x`` and to its corner farthest from ``x``."""
        x = _as_vec(x, self.dim)
        corners = [ax[:-1] for ax in self.node_axes()]
        nearest = [np.clip(x[a], c, c + self.h) for a, c in enumerate(corners)]
        far = [np.where(np.abs(c - x[a]) >= np.abs(c + self.h - x[a]),
                        c, c + self.h) for a, c in enumerate(corners)]
        return _dist2(nearest, x), _dist2(far, x)

    def cells_within(self, centers, r2) -> np.ndarray:
        """Cell-shape mask of the cells whose least squared distance (see
        :meth:`cell_dist2_range`) from a row of ``centers`` is at most its
        ``r2``.  A row sums only where each axis term is within its ``r2``;
        a float sum of non-negative terms is never below one of them."""
        mask = np.zeros(self.cell_shape, dtype=bool)
        corners = [ax[:-1] for ax in self.node_axes()]
        for x, t in zip(centers, r2):
            near = [np.clip(x[a], c, c + self.h) for a, c in enumerate(corners)]
            keep = [(p - x[a]) ** 2 <= t for a, p in enumerate(near)]
            near = [p[k] for p, k in zip(near, keep)]
            mask[np.ix_(*keep)] |= _dist2(near, x) <= t
        return mask

    def contains(self, x, slack=0.0) -> bool:
        x = _as_vec(x, self.dim)
        lo = np.asarray(self.lo) - slack
        hi = np.asarray(self.hi) + slack
        return bool(np.all(x >= lo) & np.all(x <= hi))

    def locate_cell(self, x):
        """Multi-index of the cell containing ``x``, or None if outside.
        Points on the upper face are assigned to the last cell."""
        x = _as_vec(x, self.dim)
        if not self.contains(x, slack=1e-12 * max(1.0, float(np.max(np.abs(x))))):
            return None
        idx = np.floor((x - np.asarray(self.lo)) / self.h).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.cells) - 1)
        return tuple(int(i) for i in idx)

    def boundary_node_mask(self) -> np.ndarray:
        """Boolean node array marking the faces of the box."""
        mask = np.zeros(self.node_shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return mask

    def interpolate(self, values, x) -> float:
        """Multilinear interpolation of a node array at a point."""
        x = _as_vec(x, self.dim)
        values = np.asarray(values)
        if values.shape != self.node_shape:
            raise ValueError("values must be in node shape")
        rel = (x - np.asarray(self.lo)) / self.h
        base = np.floor(rel).astype(int)
        base = np.clip(base, 0, np.asarray(self.cells) - 1)
        frac = rel - base
        out = 0.0
        for corner in range(1 << self.dim):
            w = 1.0
            idx = []
            for a in range(self.dim):
                bit = (corner >> a) & 1
                idx.append(base[a] + bit)
                w *= frac[a] if bit else (1.0 - frac[a])
            if w != 0.0:
                out += w * float(values[tuple(idx)])
        return float(out)
