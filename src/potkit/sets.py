"""Parametric point sets: unions of balls and boxes, spheres, point
lists and power cusps, and their restrictions to closed shells.

Every set answers containment for batches of points, produces a
deterministic sample cloud at a requested pitch (lattices are anchored
to the set's bounding box, a union's pieces all reading one lattice,
so scaled copies of a set yield exactly scaled clouds), reports which
grid cells it meets, and supports segment-intersection queries.  Segment
and cell tests are exact for balls, boxes and spheres; the cusp kind
falls back to dense sampling and says so in its docstring.  A cell that
touches a ball or a sphere meets it: ``EvaluationGrid.cell_dist2_range``
is compared with squared radii under the relative slack ``TIE_REL_TOL``,
so round-off in the cell corners lo + h i never decides a tie and the
marks of a mirror-symmetric set are mirror-symmetric.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from .geometry import dist2, sphere_area
from .grid import EvaluationGrid, _as_vec, _mesh

_SEGMENT_SAMPLES = 2048
# relative slack of every ball and sphere tie: cell marks here and the
# domain masks of ``capacity``
TIE_REL_TOL = 1e-12


def _as_points(pts, n):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != n:
        raise ValueError(f"points must have dimension {n}")
    return pts


def _axis(axis, dim: int) -> int:
    """``axis`` as an int in [0, dim); a bool or a non-integer raises."""
    if (isinstance(axis, bool) or not isinstance(axis, (int, np.integer))
            or not 0 <= axis < dim):
        raise ValueError(f"axis must be an integer in [0, {dim}), got {axis!r}")
    return int(axis)


def _lattice_axes(lo, hi, pitch):
    """Coordinates of the cell-centered lattice filling [lo, hi], one
    array per axis; a degenerate axis is a single layer at lo.  Along an
    axis of positive extent they lie more than pitch/2 apart."""
    axes = []
    for a in range(lo.size):
        extent = hi[a] - lo[a]
        if extent <= 0:
            axes.append(np.array([lo[a]]))
            continue
        count = max(1, int(math.ceil(extent / pitch)))
        step = extent / count
        axes.append(lo[a] + step * (np.arange(count) + 0.5))
    return axes


def _lattice(lo, hi, pitch):
    """All points of the lattice of ``_lattice_axes``."""
    return _mesh(_lattice_axes(lo, hi, pitch))


def _union_sample(box, pitch, pieces):
    """Sample of a union on one lattice over its bounding ``box`` (see
    ``_lattice_axes``).  Each piece ``(lo, hi, inside, fallback)`` keeps
    the lattice points of its window [lo, hi] where ``inside`` holds; a
    piece that keeps none adds its ``fallback()`` points, each unless a
    kept point lies within pitch/2.  No two points are then within one
    mollification radius in ``capacity``: they lie more than pitch/2 apart."""
    axes = _lattice_axes(*box, pitch)
    chunks, extra = [], []
    for lo, hi, inside, fallback in pieces:
        cand = _mesh([ax[(ax >= lo[a]) & (ax <= hi[a])]
                      for a, ax in enumerate(axes)])
        sel = cand[inside(cand)]
        if sel.shape[0]:
            chunks.append(sel)
        else:
            extra.extend(fallback())
    pts = np.concatenate(chunks or [np.empty((0, len(axes)))])
    for q in extra:
        if not np.any(dist2(pts, q) <= 0.25 * pitch * pitch):
            pts = np.concatenate([pts, q[None, :]])
    return np.unique(pts, axis=0) if pts.shape[0] > 1 else pts


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
        """The union lattice points (see ``_union_sample``) in a ball
        wider than the pitch; a ball that is no wider, or that holds no
        lattice point, falls back to its centre."""
        return _union_sample(self.bounding_box(), pitch, [
            (c - r, c + r,
             lambda p, c=c, r=r: (dist2(p, c) <= r * r) & (2.0 * r > pitch),
             lambda c=c: [c])
            for c, r in zip(self.centers, self.radii)])

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
        return grid.cells_within(self.centers,
                                 self.radii * self.radii * (1.0 + TIE_REL_TOL))

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
        """The union lattice points (see ``_union_sample``) in a box; a
        box that holds none, such as a segment off the lattice's layers,
        falls back to its own lattice."""
        return _union_sample(self.bounding_box(), pitch, [
            (lo, hi, lambda p: np.ones(len(p), dtype=bool),
             lambda lo=lo, hi=hi: _lattice(lo, hi, pitch))
            for lo, hi in zip(self.los, self.his)])

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
        corners = [ax[:-1] for ax in grid.node_axes()]
        for lo, hi in zip(self.los, self.his):
            # the cells whose closed extent meets the closed box, per axis
            mask[np.ix_(*[(c + grid.h >= lo[a]) & (c <= hi[a])
                          for a, c in enumerate(corners)])] = True
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


def _halton(dim: int, count: int) -> np.ndarray:
    """Points 1..count of the unscrambled Halton sequence in [0, 1)^dim:
    coordinate a of point i is the radical inverse of i in the a-th
    prime, summed digit by digit, least significant first."""
    primes, b = [], 2
    while len(primes) < dim:
        if all(b % f for f in primes):
            primes.append(b)
        b += 1
    out = np.zeros((count, dim))
    for a, base in enumerate(primes):
        q, b2r = np.arange(1, count + 1), 1.0 / base
        while q.any():
            q, r = np.divmod(q, base)
            out[:, a] += r * b2r
            b2r /= base
    return out


def sphere_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions: equiangular in the
    plane, Fibonacci points on the 2-sphere, and in higher dimension the
    unscrambled Halton points 1..count (coordinate a of point i is the
    radical inverse of i in the a-th prime; point 0, the origin, is left
    out) mapped through the inverse normal CDF and normalized."""
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
    g = ndtri(np.clip(_halton(dim, count), 1e-12, 1.0 - 1e-12))
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
        d2min, d2max = grid.cell_dist2_range(self.center)
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
        self.gamma = float(gamma)
        self.length = float(length)
        self._dim = dim
        self.vertex = np.zeros(dim) if vertex is None else _as_vec(vertex, dim)
        self.axis = _axis(axis, dim)

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
        d2min, d2max = grid.cell_dist2_range(self.center)
        return (mask & (d2min <= self.r_out ** 2 * (1.0 + TIE_REL_TOL))
                & (d2max >= self.r_in ** 2 * (1.0 - TIE_REL_TOL)))


def cantor_dust(depth: int, dim: int = 3, axis: int = 0) -> BoxUnion:
    """Middle-thirds construction on one axis to the given depth, as a
    union of degenerate boxes in R^dim."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    axis = _axis(axis, dim)
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
