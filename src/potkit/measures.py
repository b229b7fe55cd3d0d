"""Nonnegative measures with queryable ball masses.

Every measure answers ``ball_mass(x, t)``, the mass of the closed ball
of radius ``t`` about ``x``; distances within a relative tolerance of
``1e-12`` of ``t`` count as inside.  Where the map ``t -> ball_mass(x, t)``
has a closed piecewise form (atomic measures everywhere, radial-profile
measures at their center, grid measures via their finite cell table),
``radial_mass_profile`` exposes it so that potential integrals can be
evaluated piece by piece instead of by blind quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import HypothesisViolation, RepresentationError
from .geometry import ball_intersection_fraction, ball_volume
from .grid import EvaluationGrid, _as_vec

BALL_REL_TOL = 1e-12


def _inside_ball(dist, t):
    return np.asarray(dist) <= t * (1.0 + BALL_REL_TOL)


@dataclass(frozen=True)
class RadialMassFunction:
    """Piecewise representation of ``t -> ball_mass(x, t)`` for a fixed x.

    ``breakpoints`` is increasing and starts at 0; on the interval
    ``[breakpoints[k], breakpoints[k+1])`` the value is
    ``mass_at_zero + sum(c * t**m for (c, m) in pieces[k])`` where a term
    with exponent 0 is a constant.  Beyond the last breakpoint the final
    piece extends to infinity.  ``mass_at_zero`` is the mass of the
    evaluation point itself.
    """

    mass_at_zero: float
    breakpoints: np.ndarray
    pieces: tuple  # tuple of tuples of (coef, exponent)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 1 or bp[0] != 0.0:
            raise ValueError("breakpoints must be 1-D and start at 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != bp.size:
            raise ValueError("need exactly one piece per breakpoint")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        out = np.full(t.shape, self.mass_at_zero)
        for k, terms in enumerate(self.pieces):
            sel = idx == k
            if not np.any(sel):
                continue
            for c, m in terms:
                out[sel] += c * np.power(t[sel], m) if m != 0.0 else c
        return out if out.ndim else float(out)

    def intervals_up_to(self, r: float):
        """Yield (a, b, terms) covering (0, r], clipped at r."""
        bp = self.breakpoints
        for k in range(len(self.pieces)):
            a = bp[k]
            b = bp[k + 1] if k + 1 < bp.size else math.inf
            if a >= r:
                break
            yield float(a), float(min(b, r)), self.pieces[k]


def _merge_profiles(parts):
    """Sum of several RadialMassFunction objects."""
    mass0 = sum(p.mass_at_zero for p in parts)
    bp = np.unique(np.concatenate([p.breakpoints for p in parts]))
    pieces = []
    for a in bp:
        terms = {}
        for p in parts:
            k = int(np.searchsorted(p.breakpoints, a, side="right") - 1)
            for c, m in p.pieces[k]:
                terms[m] = terms.get(m, 0.0) + c
        pieces.append(tuple((c, m) for m, c in sorted(terms.items()) if c != 0.0))
    return RadialMassFunction(mass0, bp, tuple(pieces))


class Measure:
    """Common interface; concrete classes below."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    def ball_mass(self, x, t: float) -> float:
        raise NotImplementedError

    def atom_mass_at(self, x) -> float:
        """Exact point mass carried by the location ``x`` (0 if none)."""
        return 0.0

    def restrict(self, center, radius: float) -> "Measure":
        raise NotImplementedError

    def radial_mass_profile(self, x):
        """Closed piecewise form of ``t -> ball_mass(x, t)`` or None."""
        return None

    def small_scale_floor(self, x) -> float:
        """Scale below which ``ball_mass(x, .)`` is constant or follows
        the ambient-volume law; used to anchor numerical quadratures."""
        return 0.0

    def atoms(self):
        """Point masses as (locations (k, n), masses (k,)), positive
        masses only."""
        return np.empty((0, self.dim)), np.empty(0)

    def cell_masses(self, grid: EvaluationGrid) -> np.ndarray:
        """Mass of each cell of ``grid``, in cell shape."""
        raise RepresentationError(
            f"cannot project {type(self).__name__} onto grid cells")


class AtomicMeasure(Measure):
    """Finite sum of point masses."""

    def __init__(self, locations, masses):
        locations = np.atleast_2d(np.asarray(locations, dtype=float))
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        if locations.ndim != 2 or locations.shape[1] < 2:
            raise ValueError("locations must be (k, n) with n >= 2")
        if masses.shape != (locations.shape[0],):
            raise ValueError("need one mass per location")
        if not np.all(np.isfinite(locations)) or not np.all(np.isfinite(masses)):
            raise ValueError("locations and masses must be finite")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if locations.shape[0] > 1:
            order = np.lexsort(locations.T)
            srt = locations[order]
            if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                raise ValueError("atom locations must be pairwise distinct")
        self._loc = locations
        self._mass = masses

    @property
    def dim(self) -> int:
        return self._loc.shape[1]

    @property
    def locations(self) -> np.ndarray:
        return self._loc.copy()

    @property
    def masses(self) -> np.ndarray:
        return self._mass.copy()

    @property
    def total_mass(self) -> float:
        return float(self._mass.sum())

    def _dists(self, x):
        x = _as_vec(x, self.dim)
        return np.sqrt(((self._loc - x) ** 2).sum(axis=1))

    def ball_mass(self, x, t: float) -> float:
        if t <= 0:
            raise ValueError("ball radius must be positive")
        return float(self._mass[_inside_ball(self._dists(x), t)].sum())

    def atom_mass_at(self, x) -> float:
        d = self._dists(x)
        return float(self._mass[d == 0.0].sum())

    def restrict(self, center, radius: float) -> "AtomicMeasure":
        keep = _inside_ball(self._dists(center), radius)
        return AtomicMeasure(self._loc[keep].reshape(-1, self.dim), self._mass[keep])

    def radial_mass_profile(self, x):
        d = self._dists(x)
        keep = self._mass > 0
        d, w = d[keep], self._mass[keep]
        at_zero = float(w[d == 0.0].sum())
        pos = d > 0.0
        d, w = d[pos], w[pos]
        if d.size == 0:
            return RadialMassFunction(at_zero, np.array([0.0]), ((),))
        order = np.argsort(d)
        d, w = d[order], w[order]
        radii, start = np.unique(d, return_index=True)
        cum = np.cumsum(w)
        totals = cum[np.append(start[1:] - 1, w.size - 1)]
        bp = np.concatenate([[0.0], radii])
        pieces = [()] + [((float(v), 0.0),) for v in totals]
        return RadialMassFunction(at_zero, bp, tuple(pieces))

    def small_scale_floor(self, x) -> float:
        d = self._dists(x)
        d = d[(d > 0) & (self._mass > 0)]
        return float(d.min()) if d.size else 0.0

    def atoms(self):
        keep = self._mass > 0
        return self._loc[keep], self._mass[keep]

    def cell_masses(self, grid: EvaluationGrid) -> np.ndarray:
        """Each atom goes to its containing cell."""
        masses = np.zeros(grid.cell_shape)
        for point, a in zip(*self.atoms()):
            idx = grid.locate_cell(point)
            if idx is None:
                raise HypothesisViolation("atom lies outside the grid box")
            masses[idx] += a
        return masses


class RadialProfile:
    """Cumulative mass profile M(t) of a radially symmetric measure."""

    def mass_at_zero(self) -> float:
        return 0.0

    def eval(self, t):
        raise NotImplementedError

    @property
    def total(self) -> float:
        raise NotImplementedError

    def shells(self):
        """Discrete spherical shells as (radius, mass) pairs."""
        return []

    def continuous_pieces(self):
        """Absolutely continuous radial part as (a, b, coef, exponent)
        pieces meaning dM = coef * exponent * s**(exponent-1) ds on (a, b)."""
        return []

    def profile_function(self) -> RadialMassFunction:
        raise NotImplementedError

    def truncated(self, radius: float) -> "RadialProfile":
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawProfile(RadialProfile):
    """M(t) = coef * min(t, rmax)**exponent."""

    coef: float
    exponent: float
    rmax: float | None = None

    def __post_init__(self):
        if self.coef < 0 or not math.isfinite(self.coef):
            raise ValueError("profile coefficient must be finite and nonnegative")
        if self.exponent <= 0:
            raise ValueError("profile exponent must be positive")
        if self.rmax is not None and self.rmax <= 0:
            raise ValueError("rmax must be positive when given")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        cap = t if self.rmax is None else np.minimum(t, self.rmax)
        out = self.coef * np.power(cap, self.exponent)
        return out if out.ndim else float(out)

    @property
    def total(self) -> float:
        return math.inf if self.rmax is None else self.coef * self.rmax ** self.exponent

    def continuous_pieces(self):
        hi = math.inf if self.rmax is None else self.rmax
        return [(0.0, hi, self.coef, self.exponent)]

    def profile_function(self) -> RadialMassFunction:
        if self.rmax is None:
            return RadialMassFunction(0.0, np.array([0.0]),
                                      (((self.coef, self.exponent),),))
        return RadialMassFunction(
            0.0, np.array([0.0, self.rmax]),
            (((self.coef, self.exponent),), ((self.total, 0.0),)))

    def truncated(self, radius: float) -> "PowerLawProfile":
        rmax = radius if self.rmax is None else min(radius, self.rmax)
        return PowerLawProfile(self.coef, self.exponent, rmax)


@dataclass(frozen=True)
class AtomPlusPowerProfile(RadialProfile):
    """M(t) = atom + coef * min(t, rmax)**exponent."""

    atom: float
    coef: float
    exponent: float
    rmax: float | None = None

    def __post_init__(self):
        if self.atom < 0 or not math.isfinite(self.atom):
            raise ValueError("atom mass must be finite and nonnegative")
        # delegate remaining validation
        PowerLawProfile(self.coef, self.exponent, self.rmax)

    def _power(self) -> PowerLawProfile:
        return PowerLawProfile(self.coef, self.exponent, self.rmax)

    def mass_at_zero(self) -> float:
        return self.atom

    def eval(self, t):
        return self.atom + self._power().eval(t)

    @property
    def total(self) -> float:
        return self.atom + self._power().total

    def continuous_pieces(self):
        return self._power().continuous_pieces()

    def profile_function(self) -> RadialMassFunction:
        base = self._power().profile_function()
        return RadialMassFunction(self.atom, base.breakpoints, base.pieces)

    def truncated(self, radius: float) -> "AtomPlusPowerProfile":
        pw = self._power().truncated(radius)
        return AtomPlusPowerProfile(self.atom, pw.coef, pw.exponent, pw.rmax)


@dataclass(frozen=True)
class TableProfile(RadialProfile):
    """Right-continuous step profile given by (radius, cumulative mass)
    rows; the jumps are spherical shells, a jump at radius 0 is an atom."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size == 0:
            raise ValueError("table needs matching 1-D radius and value arrays")
        if np.any(r < 0) or np.any(np.diff(r) <= 0):
            raise ValueError("table radii must be nonnegative and increasing")
        if np.any(v < 0) or np.any(np.diff(v) < 0):
            raise ValueError("table values must be nonnegative and nondecreasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    def mass_at_zero(self) -> float:
        return float(self.values[0]) if self.radii[0] == 0.0 else 0.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.radii, t * (1.0 + BALL_REL_TOL), side="right") - 1
        out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 0.0)
        return out if out.ndim else float(out)

    @property
    def total(self) -> float:
        return float(self.values[-1])

    def shells(self):
        jumps = np.diff(np.concatenate([[0.0], self.values]))
        return [(float(r), float(j)) for r, j in zip(self.radii, jumps)
                if r > 0.0 and j > 0.0]

    def profile_function(self) -> RadialMassFunction:
        at_zero = self.mass_at_zero()
        r = self.radii
        v = self.values
        if r[0] == 0.0:
            r, v = r[1:], v[1:]
        bp = np.concatenate([[0.0], r])
        pieces = [()] + [((float(val - at_zero), 0.0),) for val in v]
        if len(pieces) == 1:
            return RadialMassFunction(at_zero, np.array([0.0]), ((),))
        return RadialMassFunction(at_zero, bp, tuple(pieces))

    def truncated(self, radius: float) -> "TableProfile":
        keep = self.radii <= radius * (1.0 + BALL_REL_TOL)
        if not np.any(keep):
            return TableProfile(np.array([radius]), np.array([0.0]))
        return TableProfile(self.radii[keep], self.values[keep])


class RadialProfileMeasure(Measure):
    """Radially symmetric measure about a center, given by a profile."""

    def __init__(self, center, profile: RadialProfile):
        self._center = _as_vec(center)
        if self._center.size < 2:
            raise ValueError("dimension must be at least 2")
        self._profile = profile

    @property
    def dim(self) -> int:
        return self._center.size

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def profile(self) -> RadialProfile:
        return self._profile

    @property
    def total_mass(self) -> float:
        return self._profile.total

    def _rho(self, x) -> float:
        x = _as_vec(x, self.dim)
        return float(np.sqrt(((x - self._center) ** 2).sum()))

    def ball_mass(self, x, t: float) -> float:
        if t <= 0:
            raise ValueError("ball radius must be positive")
        rho = self._rho(x)
        scale = max(t, rho)
        if rho <= BALL_REL_TOL * scale:
            return float(self._profile.eval(t))
        out = 0.0
        if rho <= t * (1.0 + BALL_REL_TOL):
            out += self._profile.mass_at_zero()
        for s, dm in self._profile.shells():
            out += dm * ball_intersection_fraction(s, rho, t, self.dim)
        for a, b, coef, m in self._profile.continuous_pieces():
            lo = max(a, abs(t - rho))
            hi = min(b, t + rho)
            if t > rho:
                full_hi = min(b, max(a, t - rho))
                if full_hi > a:
                    out += coef * (full_hi ** m - a ** m)
            if hi > lo:
                val, _ = quad(
                    lambda s: ball_intersection_fraction(s, rho, t, self.dim)
                    * coef * m * s ** (m - 1.0),
                    lo, hi, limit=200)
                out += val
        return float(out)

    def atom_mass_at(self, x) -> float:
        if self._rho(x) == 0.0:
            return self._profile.mass_at_zero()
        return 0.0

    def restrict(self, center, radius: float) -> "RadialProfileMeasure":
        rho = self._rho(center)
        if rho > BALL_REL_TOL * max(radius, 1.0):
            raise RepresentationError(
                "radial measures can only be restricted to concentric balls")
        return RadialProfileMeasure(self._center, self._profile.truncated(radius))

    def radial_mass_profile(self, x):
        rho = self._rho(x)
        if rho <= BALL_REL_TOL:
            return self._profile.profile_function()
        return None

    def small_scale_floor(self, x) -> float:
        rho = self._rho(x)
        return 1e-3 * rho if rho > 0 else 0.0


class GridMeasure(Measure):
    """Piecewise-constant density on the cells of a uniform grid; all
    cell mass is treated as sitting at the cell center."""

    def __init__(self, grid: EvaluationGrid, density):
        density = np.asarray(density, dtype=float)
        if density.shape != grid.cell_shape:
            raise ValueError("density must be given per cell")
        if not np.all(np.isfinite(density)) or np.any(density < 0):
            raise ValueError("density must be finite and nonnegative")
        self._grid = grid
        self._density = density
        self._cache_key = None
        self._cache_profile = None

    @property
    def dim(self) -> int:
        return self._grid.dim

    @property
    def grid(self) -> EvaluationGrid:
        return self._grid

    @property
    def density(self) -> np.ndarray:
        return self._density.copy()

    @property
    def total_mass(self) -> float:
        return float(self._density.sum() * self._grid.cell_volume)

    def _table(self, x):
        """Sorted (distance, cumulative mass) over loaded cells."""
        x = _as_vec(x, self.dim)
        key = x.tobytes()
        if key != self._cache_key:
            d2 = self._grid.cell_center_dist2(x)
            loaded = self._density > 0
            d = np.sqrt(d2[loaded])
            w = self._density[loaded] * self._grid.cell_volume
            order = np.argsort(d, kind="stable")
            self._cache_key = key
            self._cache_profile = (d[order], np.cumsum(w[order]))
        return self._cache_profile

    def ball_mass(self, x, t: float) -> float:
        if t <= 0:
            raise ValueError("ball radius must be positive")
        d, cum = self._table(x)
        if d.size == 0:
            return 0.0
        k = int(np.searchsorted(d, t * (1.0 + BALL_REL_TOL), side="right"))
        return float(cum[k - 1]) if k > 0 else 0.0

    def restrict(self, center, radius: float) -> "GridMeasure":
        d2 = self._grid.cell_center_dist2(_as_vec(center, self.dim))
        keep = d2 <= (radius * (1.0 + BALL_REL_TOL)) ** 2
        return GridMeasure(self._grid, np.where(keep, self._density, 0.0))

    def radial_mass_profile(self, x):
        d, cum = self._table(x)
        if d.size == 0:
            return RadialMassFunction(0.0, np.array([0.0]), ((),))
        radii, start = np.unique(d, return_index=True)
        totals = cum[np.append(start[1:] - 1, d.size - 1)]
        at_zero = 0.0
        if radii[0] == 0.0:
            at_zero = float(totals[0] if radii.size == 1 else cum[start[1] - 1])
            radii, totals = radii[1:], totals[1:]
        bp = np.concatenate([[0.0], radii])
        pieces = [()] + [((float(v - at_zero), 0.0),) for v in totals]
        if len(pieces) == 1:
            return RadialMassFunction(at_zero, np.array([0.0]), ((),))
        return RadialMassFunction(at_zero, bp, tuple(pieces))

    def small_scale_floor(self, x) -> float:
        return 0.5 * self._grid.h

    def cell_masses(self, grid: EvaluationGrid) -> np.ndarray:
        """The density integrated cellwise; on a grid of other geometry
        it is sampled at the target cell centers (exact when the target
        pitch divides the source pitch)."""
        src = self._grid
        if (src.dim == grid.dim and np.allclose(src.lo, grid.lo)
                and np.allclose(src.hi, grid.hi)
                and abs(src.h - grid.h) <= 1e-12 * grid.h):
            return self._density * grid.cell_volume
        centers = grid.cell_center_points()
        rel = (centers - np.asarray(src.lo)) / src.h
        idx = np.floor(rel).astype(int)
        inside = np.all((idx >= 0) & (idx < np.asarray(src.cells)), axis=1)
        vals = np.zeros(len(centers))
        if np.any(inside):
            flat = np.ravel_multi_index(idx[inside].T, src.cell_shape)
            vals[inside] = self._density.ravel()[flat]
        return vals.reshape(grid.cell_shape) * grid.cell_volume


class SumMeasure(Measure):
    """Sum of finitely many measures of equal dimension."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dims = {m.dim for m in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")
        self._parts = parts

    @property
    def dim(self) -> int:
        return self._parts[0].dim

    @property
    def parts(self) -> list:
        return list(self._parts)

    @property
    def total_mass(self) -> float:
        return float(sum(m.total_mass for m in self._parts))

    def ball_mass(self, x, t: float) -> float:
        return float(sum(m.ball_mass(x, t) for m in self._parts))

    def atom_mass_at(self, x) -> float:
        return float(sum(m.atom_mass_at(x) for m in self._parts))

    def restrict(self, center, radius: float) -> "SumMeasure":
        return SumMeasure([m.restrict(center, radius) for m in self._parts])

    def radial_mass_profile(self, x):
        profs = [m.radial_mass_profile(x) for m in self._parts]
        if any(p is None for p in profs):
            return None
        return _merge_profiles(profs)

    def small_scale_floor(self, x) -> float:
        floors = [m.small_scale_floor(x) for m in self._parts]
        positive = [f for f in floors if f > 0]
        return min(positive) if positive else 0.0

    def atoms(self):
        locs, masses = zip(*(m.atoms() for m in self._parts))
        return np.concatenate(locs), np.concatenate(masses)

    def cell_masses(self, grid: EvaluationGrid) -> np.ndarray:
        masses = np.zeros(grid.cell_shape)
        for part in self._parts:
            masses += part.cell_masses(grid)
        return masses


def uniform_ball_measure(grid: EvaluationGrid, center, radius: float,
                         density: float = 1.0) -> GridMeasure:
    """Grid measure with constant density on cells whose centers lie in
    the closed ball; a common ingredient of diffuse-background scenes."""
    d2 = grid.cell_center_dist2(_as_vec(center, grid.dim))
    inside = d2 <= (radius * (1.0 + BALL_REL_TOL)) ** 2
    return GridMeasure(grid, np.where(inside, float(density), 0.0))


def normalized_sphere_shell(center, radius: float, mass: float,
                            dim: int | None = None) -> RadialProfileMeasure:
    """Uniform measure of given total mass on a sphere, as a one-row table."""
    center = _as_vec(center, dim)
    prof = TableProfile(np.array([radius]), np.array([float(mass)]))
    return RadialProfileMeasure(center, prof)


def lebesgue_ball_measure(center, radius: float, density: float = 1.0,
                          dim: int | None = None) -> RadialProfileMeasure:
    """Constant-density volume measure on a ball, as an exact radial profile."""
    center = _as_vec(center, dim)
    n = center.size
    coef = density * ball_volume(n)
    return RadialProfileMeasure(center, PowerLawProfile(coef, float(n), radius))
