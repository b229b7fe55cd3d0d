"""Parametric point sets: unions of balls and boxes, spheres, point
lists and power cusps, and their restrictions to closed shells.

Every set answers containment for batches of points, produces a
deterministic sample cloud at a requested pitch (lattices are anchored
to each primitive's own bounding box, so scaled copies of a set yield
exactly scaled clouds), reports which grid cells it meets, and supports
segment-intersection queries.  Segment and cell tests are exact for
balls, boxes and spheres; the cusp kind falls back to dense sampling
and says so in its docstring.  A cell that touches a ball or a sphere
meets it: cell tests compare squared radii with the relative slack
``TIE_REL_TOL``, so round-off in the cell corners lo + h i never
decides a tie and the marks of a mirror-symmetric set are
mirror-symmetric.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .geometry import dist2, sphere_area
from .grid import EvaluationGrid, _as_vec

_SEGMENT_SAMPLES = 2048
# relative slack of every ball and sphere tie: cell marks here and the
# domain masks of ``capacity``
TIE_REL_TOL = 1e-12


def _as_points(pts, n):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != n:
        raise ValueError(f"points must have dimension {n}")
    return pts


def _lattice(lo, hi, pitch):
    """Cell-centered lattice filling [lo, hi]; degenerate axes collapse
    to a single layer at their coordinate."""
    axes = []
    for a in range(lo.size):
        extent = hi[a] - lo[a]
        if extent <= 0:
            axes.append(np.array([lo[a]]))
            continue
        count = max(1, int(math.ceil(extent / pitch)))
        step = extent / count
        axes.append(lo[a] + step * (np.arange(count) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _cell_dist2_range(grid: EvaluationGrid, center):
    """Least and greatest squared distance from ``center`` to each
    closed grid cell, in cell shape."""
    lo = np.asarray(grid.lo)
    d2min = 0.0
    d2max = 0.0
    for a in range(grid.dim):
        cell_lo = lo[a] + grid.h * np.arange(grid.cell_shape[a])
        nearest = np.clip(center[a], cell_lo, cell_lo + grid.h)
        far = np.maximum(np.abs(cell_lo - center[a]),
                         np.abs(cell_lo + grid.h - center[a]))
        sh = [1] * grid.dim
        sh[a] = cell_lo.size
        d2min = d2min + ((nearest - center[a]) ** 2).reshape(sh)
        d2max = d2max + (far ** 2).reshape(sh)
    return d2min, d2max


def _dedupe(points):
    if points.shape[0] <= 1:
        return points
    return np.unique(points, axis=0)


class ParametricSet:
    """Interface shared by all set kinds."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def sample_points(self, pitch: float) -> np.ndarray:
        raise NotImplementedError

    def segment_hits(self, a, b) -> bool:
        """True when the closed segment [a, b] meets the set."""
        a = _as_vec(a, self.dim)
        b = _as_vec(b, self.dim)
        ts = np.linspace(0.0, 1.0, _SEGMENT_SAMPLES)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        return bool(np.any(self.contains(pts)))

    def meets_cells(self, grid: EvaluationGrid) -> np.ndarray:
        """Boolean cell array marking grid cells the set meets; the
        default combines sampled points with cell-center containment."""
        mask = np.zeros(grid.cell_shape, dtype=bool)
        lo = np.asarray(grid.lo)
        pts = self.sample_points(grid.h / 2.0)
        if pts.shape[0]:
            idx = np.floor((pts - lo) / grid.h).astype(int)
            ok = np.all((idx >= 0) & (idx < np.asarray(grid.cell_shape)), axis=1)
            mask[tuple(idx[ok].T)] = True
        centers = grid.cell_center_points()
        mask |= self.contains(centers).reshape(grid.cell_shape)
        return mask

    def scaled(self, lam: float) -> "ParametricSet":
        raise NotImplementedError(f"{type(self).__name__} does not support scaling")


class BallUnion(ParametricSet):
    """Finite union of closed balls."""

    def __init__(self, centers, radii):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if centers.shape[0] != radii.size:
            raise ValueError("need one radius per center")
        if centers.shape[1] < 2:
            raise ValueError("dimension must be at least 2")
        if np.any(radii <= 0) or not np.all(np.isfinite(radii)):
            raise ValueError("radii must be positive and finite")
        self.centers = centers
        self.radii = radii

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def bounding_box(self):
        lo = (self.centers - self.radii[:, None]).min(axis=0)
        hi = (self.centers + self.radii[:, None]).max(axis=0)
        return lo, hi

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0], dtype=bool)
        for c, r in zip(self.centers, self.radii):
            out |= dist2(pts, c) <= r * r
        return out

    def sample_points(self, pitch: float) -> np.ndarray:
        chunks = []
        for c, r in zip(self.centers, self.radii):
            if 2.0 * r <= pitch:
                chunks.append(c[None, :])
                continue
            cand = _lattice(c - r, c + r, pitch)
            keep = dist2(cand, c) <= r * r
            sel = cand[keep]
            chunks.append(sel if sel.shape[0] else c[None, :])
        return _dedupe(np.concatenate(chunks, axis=0))

    def segment_hits(self, a, b) -> bool:
        a = _as_vec(a, self.dim)
        b = _as_vec(b, self.dim)
        d = b - a
        dd = float(d @ d)
        for c, r in zip(self.centers, self.radii):
            t = 0.0 if dd == 0.0 else float(np.clip((c - a) @ d / dd, 0.0, 1.0))
            nearest = a + t * d
            if dist2(nearest, c) <= r * r:
                return True
        return False

    def meets_cells(self, grid: EvaluationGrid) -> np.ndarray:
        mask = np.zeros(grid.cell_shape, dtype=bool)
        lo = np.asarray(grid.lo)
        shape = np.asarray(grid.cell_shape)
        for c, r in zip(self.centers, self.radii):
            # window widened by one cell so exactly-touching cells survive
            # the floor; the d2 test below is the authoritative filter
            lo_i = np.clip(np.floor((c - r - lo) / grid.h).astype(int) - 1,
                           0, shape - 1)
            hi_i = np.clip(np.floor((c + r - lo) / grid.h).astype(int) + 1,
                           0, shape - 1)
            axes = [np.arange(lo_i[a], hi_i[a] + 1) for a in range(self.dim)]
            d2 = 0.0
            for a in range(self.dim):
                cell_lo = lo[a] + grid.h * axes[a]
                nearest = np.clip(c[a], cell_lo, cell_lo + grid.h)
                term = (nearest - c[a]) ** 2
                sh = [1] * self.dim
                sh[a] = term.size
                d2 = d2 + term.reshape(sh)
            sub = d2 <= r * r * (1.0 + TIE_REL_TOL)
            mask[tuple(np.ix_(*axes))] |= sub
        return mask

    def scaled(self, lam: float) -> "BallUnion":
        return BallUnion(self.centers * lam, self.radii * lam)


class BoxUnion(ParametricSet):
    """Finite union of closed axis-aligned boxes; degenerate extents
    (zero thickness) are allowed and model segments and plates."""

    def __init__(self, los, his):
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        if los.shape != his.shape or los.shape[1] < 2:
            raise ValueError("need matching lo/hi corner arrays, dimension >= 2")
        if np.any(his < los):
            raise ValueError("box corners must satisfy lo <= hi")
        self.los = los
        self.his = his

    @property
    def dim(self) -> int:
        return self.los.shape[1]

    def bounding_box(self):
        return self.los.min(axis=0), self.his.max(axis=0)

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        out = np.zeros(pts.shape[0], dtype=bool)
        for lo, hi in zip(self.los, self.his):
            out |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return out

    def sample_points(self, pitch: float) -> np.ndarray:
        chunks = [_lattice(lo, hi, pitch) for lo, hi in zip(self.los, self.his)]
        return _dedupe(np.concatenate(chunks, axis=0))

    def segment_hits(self, a, b) -> bool:
        a = _as_vec(a, self.dim)
        b = _as_vec(b, self.dim)
        d = b - a
        for lo, hi in zip(self.los, self.his):
            t0, t1 = 0.0, 1.0
            ok = True
            for ax in range(self.dim):
                if d[ax] == 0.0:
                    if not lo[ax] <= a[ax] <= hi[ax]:
                        ok = False
                        break
                    continue
                ta = (lo[ax] - a[ax]) / d[ax]
                tb = (hi[ax] - a[ax]) / d[ax]
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
                if t0 > t1:
                    ok = False
                    break
            if ok:
                return True
        return False

    def meets_cells(self, grid: EvaluationGrid) -> np.ndarray:
        mask = np.zeros(grid.cell_shape, dtype=bool)
        glo = np.asarray(grid.lo)
        shape = np.asarray(grid.cell_shape)
        for lo, hi in zip(self.los, self.his):
            lo_i = np.clip(np.floor((lo - glo) / grid.h).astype(int) - 1,
                           0, shape - 1)
            hi_i = np.clip(np.floor((hi - glo) / grid.h).astype(int) + 1,
                           0, shape - 1)
            # keep only cells whose closed extent meets the closed box
            keep = []
            for a in range(self.dim):
                ks = np.arange(lo_i[a], hi_i[a] + 1)
                cl = glo[a] + grid.h * ks
                keep.append(ks[(cl + grid.h >= lo[a]) & (cl <= hi[a])])
            if all(k.size for k in keep):
                mask[tuple(np.ix_(*keep))] = True
        return mask

    def scaled(self, lam: float) -> "BoxUnion":
        return BoxUnion(self.los * lam, self.his * lam)


def segment_set(a, b) -> BoxUnion:
    """Axis-aligned segment as a degenerate box (a and b must differ in
    at most one coordinate)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (a != b).sum() > 1:
        raise ValueError("segment_set only supports axis-aligned segments")
    return BoxUnion(np.minimum(a, b)[None, :], np.maximum(a, b)[None, :])


def sphere_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions: equiangular in the
    plane, Fibonacci points on the 2-sphere, normalized Halton-Gaussian
    points in higher dimension."""
    if dim == 2:
        ang = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        theta = 2.0 * math.pi * k / golden
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
        return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    sampler = qmc.Halton(d=dim, scramble=False)
    u = sampler.random(count + 1)[1:]
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    return g / norm


class Sphere(ParametricSet):
    """Sphere |x - center| = radius, with a relative thickness band of
    ``TIE_REL_TOL`` for containment queries."""

    def __init__(self, center, radius):
        self.center = _as_vec(center)
        if self.center.size < 2:
            raise ValueError("dimension must be at least 2")
        if radius <= 0 or not math.isfinite(radius):
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        d = np.sqrt(dist2(pts, self.center))
        return np.abs(d - self.radius) <= TIE_REL_TOL * self.radius

    def sample_points(self, pitch: float) -> np.ndarray:
        area = sphere_area(self.dim) * self.radius ** (self.dim - 1)
        count = int(min(400_000, max(2 * self.dim + 2,
                                     math.ceil(area / pitch ** (self.dim - 1)))))
        return self.center + self.radius * sphere_directions(self.dim, count)

    def segment_hits(self, a, b) -> bool:
        a = _as_vec(a, self.dim) - self.center
        b = _as_vec(b, self.dim) - self.center
        d = b - a
        dd = float(d @ d)
        t_star = 0.0 if dd == 0.0 else float(np.clip(-(a @ d) / dd, 0.0, 1.0))
        r2 = self.radius ** 2
        f = [float(a @ a) - r2, float(b @ b) - r2,
             float((a + t_star * d) @ (a + t_star * d)) - r2]
        fmin, fmax = min(f), max(f)
        return fmin <= TIE_REL_TOL * r2 and fmax >= -TIE_REL_TOL * r2

    def meets_cells(self, grid: EvaluationGrid) -> np.ndarray:
        d2min, d2max = _cell_dist2_range(grid, self.center)
        r2 = self.radius ** 2
        return ((d2min <= r2 * (1.0 + TIE_REL_TOL))
                & (d2max >= r2 * (1.0 - TIE_REL_TOL)))

    def scaled(self, lam: float) -> "Sphere":
        return Sphere(self.center * lam, self.radius * lam)


class PointList(ParametricSet):
    """Finite point set."""

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.points.shape[1] < 2 or self.points.shape[0] == 0:
            raise ValueError("need a nonempty (k, n>=2) point array")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        scale = max(1.0, float(np.max(np.abs(self.points))))
        out = np.zeros(pts.shape[0], dtype=bool)
        for q in self.points:
            out |= np.all(np.abs(pts - q) <= 1e-12 * scale, axis=1)
        return out

    def sample_points(self, pitch: float) -> np.ndarray:
        del pitch
        return self.points.copy()

    def segment_hits(self, a, b) -> bool:
        a = _as_vec(a, self.dim)
        b = _as_vec(b, self.dim)
        d = b - a
        dd = float(d @ d)
        scale = max(1.0, float(np.max(np.abs(self.points))))
        for q in self.points:
            t = 0.0 if dd == 0.0 else float(np.clip((q - a) @ d / dd, 0.0, 1.0))
            if np.linalg.norm(a + t * d - q) <= 1e-12 * scale:
                return True
        return False

    def scaled(self, lam: float) -> "PointList":
        return PointList(self.points * lam)


class Cusp(ParametricSet):
    """Power cusp {0 <= x_axis <= length, |x_perp| <= x_axis^gamma}
    with vertex at ``vertex``; gamma > 1 sharpens the tip.  Segment and
    cell queries use dense sampling, not exact geometry."""

    def __init__(self, gamma: float, length: float, dim: int, vertex=None, axis: int = 0):
        if gamma <= 0 or length <= 0:
            raise ValueError("gamma and length must be positive")
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        if not 0 <= axis < dim:
            raise ValueError("axis out of range")
        self.gamma = float(gamma)
        self.length = float(length)
        self._dim = dim
        self.vertex = np.zeros(dim) if vertex is None else _as_vec(vertex, dim)
        self.axis = axis

    @property
    def dim(self) -> int:
        return self._dim

    def bounding_box(self):
        w = self.length ** self.gamma
        lo = self.vertex - w
        hi = self.vertex + w
        lo[self.axis] = self.vertex[self.axis]
        hi[self.axis] = self.vertex[self.axis] + self.length
        return lo, hi

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim) - self.vertex
        s = pts[:, self.axis]
        perp2 = (pts ** 2).sum(axis=1) - s ** 2
        inside = (s >= 0.0) & (s <= self.length)
        with np.errstate(invalid="ignore"):
            inside &= perp2 <= np.where(s >= 0.0, s, 0.0) ** (2.0 * self.gamma)
        return inside

    def sample_points(self, pitch: float) -> np.ndarray:
        lo, hi = self.bounding_box()
        cand = _lattice(lo, hi, pitch)
        keep = self.contains(cand)
        if not np.any(keep):
            # keep at least the spine so thin cusps never sample empty
            s = np.arange(pitch / 2.0, self.length, pitch)
            spine = np.tile(self.vertex, (s.size, 1))
            spine[:, self.axis] += s
            return spine
        return cand[keep]

    def scaled(self, lam: float) -> "Cusp":
        # x -> lam x maps the cusp to a cusp with rescaled width profile
        # only when gamma = 1; reject otherwise rather than mislead
        if self.gamma != 1.0:
            raise NotImplementedError("power cusps are not scale invariant")
        return Cusp(self.gamma, self.length * lam, self.dim,
                    self.vertex * lam, self.axis)


class RestrictedSet(ParametricSet):
    """Intersection of a base set with the closed shell
    r_in <= |x - center| <= r_out (r_in = 0 gives a ball)."""

    def __init__(self, base: ParametricSet, center, r_in: float, r_out: float):
        if not 0.0 <= r_in < r_out:
            raise ValueError("need 0 <= r_in < r_out")
        self.base = base
        self.center = _as_vec(center, base.dim)
        self.r_in = float(r_in)
        self.r_out = float(r_out)

    @property
    def dim(self) -> int:
        return self.base.dim

    def bounding_box(self):
        lo_b, hi_b = self.base.bounding_box()
        lo = np.maximum(lo_b, self.center - self.r_out)
        hi = np.minimum(hi_b, self.center + self.r_out)
        return lo, np.maximum(hi, lo)

    def _in_shell(self, pts) -> np.ndarray:
        d2 = dist2(pts, self.center)
        return (d2 >= self.r_in ** 2) & (d2 <= self.r_out ** 2)

    def contains(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        return self.base.contains(pts) & self._in_shell(pts)

    def sample_points(self, pitch: float) -> np.ndarray:
        pts = self.base.sample_points(pitch)
        if pts.shape[0] == 0:
            return pts
        return pts[self._in_shell(pts)]

    def meets_cells(self, grid: EvaluationGrid) -> np.ndarray:
        mask = self.base.meets_cells(grid)
        d2min, d2max = _cell_dist2_range(grid, self.center)
        return (mask & (d2min <= self.r_out ** 2 * (1.0 + TIE_REL_TOL))
                & (d2max >= self.r_in ** 2 * (1.0 - TIE_REL_TOL)))


def cantor_dust(depth: int, dim: int = 3, axis: int = 0) -> BoxUnion:
    """Middle-thirds construction on one axis to the given depth, as a
    union of degenerate boxes in R^dim."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    los = np.zeros((len(intervals), dim))
    his = np.zeros((len(intervals), dim))
    for i, (a, b) in enumerate(intervals):
        los[i, axis] = a
        his[i, axis] = b
    return BoxUnion(los, his)
