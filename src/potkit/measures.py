"""Nonnegative measures with queryable ball masses.

Every measure answers ``ball_mass(x, t)``, the mass of the closed ball
of radius ``t`` about ``x``, for one radius or an array of radii;
distances within a relative tolerance of ``1e-12`` of ``t`` count as
inside.  ``ball_mass_breakpoints(x)`` lists the radii between which
``t -> ball_mass(x, t)`` is smooth.  Where that map has a closed
piecewise form (atomic and grid measures everywhere, radial-profile
measures at their center), ``radial_mass_profile`` exposes it as a
``RadialMassFunction``: arrays of breakpoints and of per-interval
coefficients, so that potential integrals can be evaluated over all
intervals at once.  Atomic ball masses are read off that profile, and a
grid measure's are those of point masses at its loaded cell centers, so
grids and atoms share one code path.  Off its center, a radial-profile
measure integrates its profile against the covered fraction of each
sphere by the tanh-sinh rule of ``integrate``.

The same ``RadialMassFunction`` is the one profile type of radially
symmetric measures: ``PowerLawProfile``, ``AtomPlusPowerProfile`` and
``TableProfile`` build it, and ``RadialProfileMeasure`` holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolation, RepresentationError
from .geometry import ball_intersection_fraction, ball_volume, dist2
from .grid import EvaluationGrid, _as_vec
from .integrate import tanh_sinh

BALL_REL_TOL = 1e-12


def _radii(t) -> np.ndarray:
    """Ball radii as an array; each must be positive."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("ball radius must be positive")
    return t


@dataclass(frozen=True)
class RadialMassFunction:
    """Piecewise form of ``t -> ball_mass(x, t)`` for a fixed x, as arrays;
    with x the center, also the mass profile of a radial measure.

    ``breakpoints`` is increasing and starts at 0; interval k is
    ``[breakpoints[k], breakpoints[k+1])``, and the last interval extends
    to infinity.  On interval k the mass is
    ``constant[k] + sum(coefs[k] * t**m for m, coefs in powers)``:
    ``constant`` holds the constant part of the mass on each interval,
    and ``powers`` one coefficient array per power exponent m > 0 that
    occurs (only power-law radial profiles have any).  ``constant[0]`` is
    the mass of the evaluation point itself, the jumps at later
    breakpoints are spherical shells (``shells``), and the power terms
    are the absolutely continuous part (``continuous_pieces``).
    """

    breakpoints: np.ndarray
    constant: np.ndarray
    powers: tuple = ()  # (exponent, coefficient array) pairs

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 1 or bp[0] != 0.0:
            raise ValueError("breakpoints must be 1-D and start at 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        const = np.asarray(self.constant, dtype=float)
        powers = tuple((float(m), np.asarray(c, dtype=float))
                       for m, c in self.powers)
        if const.shape != bp.shape or any(c.shape != bp.shape
                                          for _, c in powers):
            raise ValueError("need one coefficient per breakpoint")
        if any(m <= 0.0 for m, _ in powers):
            raise ValueError("power exponents must be positive")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "powers", powers)

    @property
    def mass_at_zero(self) -> float:
        return float(self.constant[0])

    @property
    def total(self) -> float:
        """M(infinity): +inf when a power term has no cutoff."""
        if any(coefs[-1] > 0.0 for _, coefs in self.powers):
            return math.inf
        return float(self.constant[-1])

    def eval(self, t):
        """M(t); a breakpoint within ``BALL_REL_TOL`` of t counts as
        reached, as in every ``ball_mass``."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t * (1.0 + BALL_REL_TOL),
                              side="right")
        out = self.constant[idx - 1]
        for m, coefs in self.powers:
            out = out + coefs[idx - 1] * t ** m
        return out if out.ndim else float(out)

    def shells(self):
        """Jumps of M at the positive breakpoints as (radius, mass) pairs,
        each the right minus the left limit summed in the same order, so a
        power term stopping at a breakpoint leaves no round-off shell."""
        out = []
        for k in range(1, self.breakpoints.size):
            s = float(self.breakpoints[k])
            right, left = float(self.constant[k]), float(self.constant[k - 1])
            for m, coefs in self.powers:
                right += float(coefs[k]) * s ** m
                left += float(coefs[k - 1]) * s ** m
            if right > left:
                out.append((s, right - left))
        return out

    def continuous_pieces(self):
        """Absolutely continuous part as (a, b, coef, m) pieces meaning
        dM = coef * m * s**(m-1) ds on (a, b)."""
        ends = np.append(self.breakpoints[1:], math.inf)
        return [(float(a), float(b), float(c), m)
                for m, coefs in self.powers
                for a, b, c in zip(self.breakpoints, ends, coefs) if c != 0.0]


def _step_profile(d, cum):
    """Step profile of masses at the sorted distances ``d`` with running
    totals ``cum``: each run of equal distances is one jump."""
    if d.size == 0:
        return RadialMassFunction(np.zeros(1), np.zeros(1))
    end = np.append(np.flatnonzero(np.diff(d)), d.size - 1)
    radii, totals = d[end], cum[end]
    if radii[0] == 0.0:
        return RadialMassFunction(radii, totals)
    return RadialMassFunction(np.concatenate([[0.0], radii]),
                              np.concatenate([[0.0], totals]))


def _merge_profiles(parts):
    """Sum of several RadialMassFunction objects."""
    bp = np.unique(np.concatenate([p.breakpoints for p in parts]))
    idx = [np.searchsorted(p.breakpoints, bp, side="right") - 1 for p in parts]
    constant = sum(p.constant[k] for p, k in zip(parts, idx))
    powers = {}
    for p, k in zip(parts, idx):
        for m, coefs in p.powers:
            powers[m] = powers.get(m, 0.0) + coefs[k]
    return RadialMassFunction(bp, constant, tuple(sorted(powers.items())))


class Measure:
    """Common interface; concrete classes below."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    def ball_mass(self, x, t):
        """Mass of the closed ball B(x, t): a float for one radius, an
        array for an array of radii."""
        raise NotImplementedError

    def ball_mass_breakpoints(self, x) -> np.ndarray:
        """Increasing radii, starting at 0, between which
        ``ball_mass(x, .)`` is smooth: by default the breakpoints of the
        closed profile at x."""
        return self.radial_mass_profile(x).breakpoints

    def atom_mass_at(self, x) -> float:
        """Exact point mass carried by the location ``x`` (0 if none)."""
        return 0.0

    def radial_mass_profile(self, x):
        """Closed piecewise form of ``t -> ball_mass(x, t)`` or None."""
        return None

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
        return np.sqrt(dist2(self._loc, _as_vec(x, self.dim)))

    def ball_mass(self, x, t):
        return self.radial_mass_profile(x).eval(_radii(t))

    def atom_mass_at(self, x) -> float:
        d = self._dists(x)
        return float(self._mass[d == 0.0].sum())

    def radial_mass_profile(self, x):
        keep = self._mass > 0
        d, w = self._dists(x)[keep], self._mass[keep]
        order = np.argsort(d)
        return _step_profile(d[order], np.cumsum(w[order]))

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


def AtomPlusPowerProfile(atom: float, coef: float, exponent: float,
                         rmax: float | None = None) -> RadialMassFunction:
    """M(t) = atom + coef * min(t, rmax)**exponent."""
    if atom < 0 or not math.isfinite(atom):
        raise ValueError("atom mass must be finite and nonnegative")
    if coef < 0 or not math.isfinite(coef):
        raise ValueError("profile coefficient must be finite and nonnegative")
    if exponent <= 0:
        raise ValueError("profile exponent must be positive")
    if rmax is None:
        return RadialMassFunction([0.0], [atom], ((exponent, [coef]),))
    if rmax <= 0:
        raise ValueError("rmax must be positive when given")
    return RadialMassFunction([0.0, rmax], [atom, atom + coef * rmax ** exponent],
                              ((exponent, [coef, 0.0]),))


def PowerLawProfile(coef: float, exponent: float,
                    rmax: float | None = None) -> RadialMassFunction:
    """M(t) = coef * min(t, rmax)**exponent."""
    return AtomPlusPowerProfile(0.0, coef, exponent, rmax)


def TableProfile(radii, values) -> RadialMassFunction:
    """Right-continuous step profile given by (radius, cumulative mass)
    rows; the jumps are spherical shells, a jump at radius 0 is an atom."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != v.shape or r.size == 0:
        raise ValueError("table needs matching 1-D radius and value arrays")
    if np.any(r < 0) or np.any(np.diff(r) <= 0):
        raise ValueError("table radii must be nonnegative and increasing")
    if np.any(v < 0) or np.any(np.diff(v) < 0):
        raise ValueError("table values must be nonnegative and nondecreasing")
    return _step_profile(r, v)


def _is_center(rho: float) -> bool:
    """Whether a point at distance ``rho`` from a radial measure's center
    is the center: exactly 0, as ``AtomicMeasure`` decides that a point
    carries an atom.  Ball masses, profiles, atoms and Riesz values all
    use this one test."""
    return rho == 0.0


class RadialProfileMeasure(Measure):
    """Radially symmetric measure about a center, given by its profile
    M(t) = mu(B(center, t)); off the center, ``ball_mass`` integrates the
    profile's shells and pieces, split out once, against the covered
    fraction of each sphere."""

    def __init__(self, center, profile: RadialMassFunction):
        self._center = _as_vec(center)
        if self._center.size < 2:
            raise ValueError("dimension must be at least 2")
        self._profile = profile
        self._shells = profile.shells()
        self._pieces = profile.continuous_pieces()

    @property
    def dim(self) -> int:
        return self._center.size

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def profile(self) -> RadialMassFunction:
        return self._profile

    @property
    def total_mass(self) -> float:
        return self._profile.total

    def _rho(self, x) -> float:
        x = _as_vec(x, self.dim)
        return float(np.sqrt(dist2(x, self._center)))

    def ball_mass(self, x, t):
        t = _radii(t)
        rho = self._rho(x)
        if _is_center(rho):
            return self._profile.eval(t)
        n, tt = self.dim, np.atleast_1d(t)
        out = np.where(rho <= tt * (1.0 + BALL_REL_TOL),
                       self._profile.mass_at_zero, 0.0)
        for s, dm in self._shells:
            out += dm * ball_intersection_fraction(s, rho, tt, n)
        for a, b, coef, m in self._pieces:
            # spheres wholly inside the ball, then those it cuts
            out += coef * (np.clip(tt - rho, a, b) ** m - a ** m)
            lo = np.maximum(a, np.abs(tt - rho))
            hi = np.minimum(b, tt + rho)
            cut = hi > lo
            tc = tt[cut]
            out[cut] += tanh_sinh(
                lambda s, k: ball_intersection_fraction(s, rho, tc[k, None], n)
                * coef * m * s ** (m - 1.0), lo[cut], hi[cut])
        return out if t.ndim else float(out[0])

    def ball_mass_breakpoints(self, x) -> np.ndarray:
        """The distance rho to the center, and |s - rho| and s + rho, where
        B(x, t) starts and stops cutting the sphere of radius s, for each
        shell and each finite piece edge s."""
        rho = self._rho(x)
        s = np.array([s for s, _ in self._shells]
                     + [e for a, b, _, _ in self._pieces for e in (a, b)
                        if math.isfinite(e)])
        return np.unique(np.concatenate([[0.0, rho], np.abs(s - rho),
                                         s + rho]))

    def atom_mass_at(self, x) -> float:
        if _is_center(self._rho(x)):
            return self._profile.mass_at_zero
        return 0.0

    def radial_mass_profile(self, x):
        if _is_center(self._rho(x)):
            return self._profile
        return None


class GridMeasure(Measure):
    """Piecewise-constant density on the cells of a uniform grid.  For
    ball masses each cell's mass sits at its center: ``ball_mass`` and
    ``radial_mass_profile`` are those of the ``AtomicMeasure`` of the
    loaded cell centers, built once here.  The grid itself reports no
    atoms: ``atoms()`` is empty and ``atom_mass_at`` is 0."""

    def __init__(self, grid: EvaluationGrid, density):
        density = np.asarray(density, dtype=float)
        if density.shape != grid.cell_shape:
            raise ValueError("density must be given per cell")
        if not np.all(np.isfinite(density)) or np.any(density < 0):
            raise ValueError("density must be finite and nonnegative")
        self._grid = grid
        self._density = density
        loaded = density > 0
        self._centers = AtomicMeasure(grid.cell_center_points(loaded),
                                      density[loaded] * grid.cell_volume)

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

    def ball_mass(self, x, t):
        return self._centers.ball_mass(x, t)

    def radial_mass_profile(self, x):
        return self._centers.radial_mass_profile(x)

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

    def ball_mass(self, x, t):
        return sum(m.ball_mass(x, t) for m in self._parts)

    def ball_mass_breakpoints(self, x) -> np.ndarray:
        return np.unique(np.concatenate([m.ball_mass_breakpoints(x)
                                         for m in self._parts]))

    def atom_mass_at(self, x) -> float:
        return float(sum(m.atom_mass_at(x) for m in self._parts))

    def radial_mass_profile(self, x):
        profs = [m.radial_mass_profile(x) for m in self._parts]
        if any(p is None for p in profs):
            return None
        return _merge_profiles(profs)

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
