"""Ball-mass and total-mass behavior across the three measure kinds."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from potkit.errors import HypothesisViolation, RepresentationError
from potkit.geometry import ball_intersection_fraction
from potkit.grid import EvaluationGrid
from potkit.measures import (
    AtomicMeasure,
    AtomPlusPowerProfile,
    GridMeasure,
    PowerLawProfile,
    RadialMassFunction,
    RadialProfileMeasure,
    SumMeasure,
    TableProfile,
    lebesgue_ball_measure,
    normalized_sphere_shell,
    uniform_ball_measure,
)
from potkit.riesz import RieszParams, riesz_potential
from potkit.wolff import WolffParams, wolff_potential


def test_atom_inside_ball():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [3.0])
    assert mu.ball_mass([0.0, 0.0, 0.0], 0.5) == 3.0


def test_atom_outside_ball():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [3.0])
    assert mu.ball_mass([1.0, 0.0, 0.0], 0.5) == 0.0


def test_atom_on_sphere_counts_as_inside():
    # closed balls: distance exactly t is included
    mu = AtomicMeasure([[0.5, 0.0, 0.0]], [1.0])
    assert mu.ball_mass([0.0, 0.0, 0.0], 0.5) == 1.0


def test_power_profile_ball_mass():
    mu = RadialProfileMeasure([0.0, 0.0, 0.0], PowerLawProfile(2.0, 1.5))
    assert mu.ball_mass([0.0, 0.0, 0.0], 4.0) == pytest.approx(16.0, rel=1e-14)


def test_total_mass_of_atoms():
    mu = AtomicMeasure([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 2.0])
    assert mu.total_mass == 3.0


def test_atoms_must_be_distinct():
    with pytest.raises(ValueError, match="pairwise distinct"):
        AtomicMeasure([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]], [1.0, 2.0, 3.0])


def test_total_mass_uniform_grid_density():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.1)
    mu = GridMeasure(grid, np.ones(grid.cell_shape))
    assert mu.total_mass == pytest.approx(1.0, abs=1e-15)


def test_ball_mass_rejects_nonpositive_radius():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        mu.ball_mass([0.0, 0.0, 0.0], 0.0)


def test_ball_mass_monotone_in_radius():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 3))
    mu = AtomicMeasure(pts, rng.uniform(0.1, 1.0, size=12))
    x = np.zeros(3)
    radii = np.sort(rng.uniform(0.05, 4.0, size=24))
    vals = [mu.ball_mass(x, t) for t in radii]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_sum_measure_adds_ball_masses():
    rng = np.random.default_rng(11)
    a = AtomicMeasure(rng.normal(size=(5, 3)), rng.uniform(size=5))
    b = RadialProfileMeasure(np.zeros(3), PowerLawProfile(0.7, 2.5))
    s = SumMeasure([a, b])
    for _ in range(10):
        x = rng.normal(size=3)
        t = rng.uniform(0.1, 2.0)
        want = a.ball_mass(x, t) + b.ball_mass(x, t)
        assert s.ball_mass(x, t) == pytest.approx(want, rel=1e-14)


def test_atoms_to_profile_agrees_at_center():
    mu = AtomicMeasure([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0], [0.0, 0.9, 0.0]],
                       [1.0, 2.0, 0.5])
    prof = mu.radial_mass_profile([0.0, 0.0, 0.0])
    pm = RadialProfileMeasure([0.0, 0.0, 0.0], prof)
    for t in (0.1, 0.4, 0.5, 0.9, 1.3):
        assert pm.ball_mass([0.0, 0.0, 0.0], t) == pytest.approx(
            mu.ball_mass([0.0, 0.0, 0.0], t), abs=1e-14)


def _brute_ball_masses(points, masses, x, ts):
    """Sorted-cumsum ball masses: total mass at distance <= t."""
    d = np.sqrt(((points - x) ** 2).sum(axis=1))
    order = np.argsort(d)
    d, cum = d[order], np.concatenate([[0.0], np.cumsum(masses[order])])
    return cum[np.searchsorted(d, ts, side="right")]


def test_sum_profile_at_power_law_centre_matches_parts():
    rng = np.random.default_rng(12)
    center = np.array([0.1, -0.2, 0.05])
    pts = np.vstack([center, center + rng.normal(size=(9, 3)) * 0.5])
    masses = rng.uniform(0.2, 1.5, 10)
    atoms = AtomicMeasure(pts, masses)
    ball = RadialProfileMeasure(center, PowerLawProfile(0.7, 2.5, rmax=0.6))
    prof = SumMeasure([atoms, ball]).radial_mass_profile(center)
    assert prof.mass_at_zero == masses[0]
    assert [m for m, _ in prof.powers] == [2.5]
    ts = np.sort(rng.uniform(0.01, 2.0, 40))
    want = _brute_ball_masses(pts, masses, center, ts) \
        + 0.7 * np.minimum(ts, 0.6) ** 2.5
    assert np.allclose(prof.eval(ts), want, rtol=1e-13, atol=0.0)
    for t, w in zip(ts[::8], want[::8]):
        parts = atoms.ball_mass(center, t) + ball.ball_mass(center, t)
        assert prof.eval(t) == pytest.approx(parts, rel=1e-13)
        assert parts == pytest.approx(w, rel=1e-13)


def test_grid_profile_has_one_jump_per_distinct_distance():
    # at a cell centre many cells share a distance: each shared distance
    # is one breakpoint carrying the running total past all of them
    rng = np.random.default_rng(13)
    m = 4
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 1.0 / m)
    dens = rng.uniform(0.5, 1.5, (m,) * 3)
    mu = GridMeasure(grid, dens)
    centers = (np.argwhere(dens > 0.0) + 0.5) / m
    cmass = dens.ravel() / m ** 3
    x = centers[21]
    prof = mu.radial_mass_profile(x)
    d = np.unique(np.sqrt(((centers - x) ** 2).sum(axis=1)))
    assert np.array_equal(prof.breakpoints, d)
    assert prof.mass_at_zero == pytest.approx(cmass[21], rel=1e-15)
    ts = np.concatenate([d, 0.5 * (d[1:] + d[:-1])])
    assert np.allclose(prof.eval(ts), _brute_ball_masses(centers, cmass, x, ts),
                       rtol=1e-13, atol=0.0)


def test_atom_plus_power_profile():
    mu = RadialProfileMeasure(np.zeros(3), AtomPlusPowerProfile(2.0, 1.0, 3.0))
    assert mu.ball_mass(np.zeros(3), 0.5) == pytest.approx(2.0 + 0.125)
    assert mu.atom_mass_at(np.zeros(3)) == 2.0


def test_table_profile_right_continuous():
    prof = TableProfile(np.array([0.5, 1.0]), np.array([1.0, 3.0]))
    mu = RadialProfileMeasure(np.zeros(2), prof)
    assert mu.ball_mass(np.zeros(2), 0.25) == 0.0
    assert mu.ball_mass(np.zeros(2), 0.5) == 1.0
    assert mu.ball_mass(np.zeros(2), 0.75) == 1.0
    assert mu.ball_mass(np.zeros(2), 2.0) == 3.0


def test_profile_eval_counts_breakpoints_within_tolerance():
    # a breakpoint within the relative ball tolerance of t is reached,
    # as in ball_mass
    atoms = AtomicMeasure([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0], [0.0, 0.9, 0.0]],
                          [1.0, 2.0, 0.5])
    table = RadialProfileMeasure(np.zeros(3), TableProfile([0.5, 1.0],
                                                           [2.0, 3.0]))
    for mu, d in ((atoms, 0.4), (table, 0.5)):
        t = d * (1.0 - 1e-13)
        prof = mu.radial_mass_profile(np.zeros(3))
        assert prof.eval(t) == mu.ball_mass(np.zeros(3), t)
    assert table.profile.eval(0.5 * (1.0 - 1e-13)) == 2.0


def test_atom_plus_power_profile_has_no_shells():
    # the power term stops at rmax, where the mass is continuous
    rng = np.random.default_rng(21)
    for _ in range(100):
        atom, coef = rng.uniform(0.0, 3.0, 2)
        prof = AtomPlusPowerProfile(atom, coef, rng.uniform(0.5, 4.0),
                                    rmax=rng.uniform(0.05, 2.0))
        assert prof.shells() == []
        assert len(prof.continuous_pieces()) == 1


def test_profile_totals_and_parts():
    table = TableProfile([0.0, 0.5, 1.0], [1.0, 1.0, 4.0])
    assert table.mass_at_zero == 1.0
    assert table.total == 4.0
    assert table.shells() == [(1.0, 3.0)]
    assert table.continuous_pieces() == []
    power = PowerLawProfile(2.0, 3.0, rmax=0.5)
    assert power.total == 2.0 * 0.5 ** 3
    assert power.continuous_pieces() == [(0.0, 0.5, 2.0, 3.0)]
    assert PowerLawProfile(2.0, 3.0).total == np.inf


def test_radial_measure_from_two_atom_profile_matches_sphere_shells():
    rng = np.random.default_rng(22)
    c = np.array([0.1, -0.2, 0.3])
    dirs = rng.normal(size=(2, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii, masses = np.array([0.3, 0.7]), np.array([1.5, 0.5])
    atoms = AtomicMeasure(c + radii[:, None] * dirs, masses)
    radial = RadialProfileMeasure(c, atoms.radial_mass_profile(c))
    shells = SumMeasure([normalized_sphere_shell(c, r, m)
                         for r, m in zip(radii, masses)])
    assert radial.total_mass == shells.total_mass == 2.0
    for _ in range(5):
        v = rng.normal(size=3)
        x = c + rng.uniform(0.05, 1.0) * v / np.linalg.norm(v)
        for t in rng.uniform(0.05, 1.5, 4):
            assert radial.ball_mass(x, t) == pytest.approx(
                shells.ball_mass(x, t), rel=1e-14, abs=1e-14)
        params = RieszParams(2.0)
        assert riesz_potential(radial, params, x) == pytest.approx(
            riesz_potential(shells, params, x), rel=1e-14)


@pytest.mark.parametrize("offset", [0.0, 1e-13])
def test_radial_centre_is_decided_once(offset):
    # the profile, the atom and the finiteness of the Wolff and Riesz
    # values agree on whether x is the centre, also 1e-13 away from it
    c = np.array([0.3, 0.2, 0.1])
    mu = RadialProfileMeasure(c, TableProfile([0.0, 0.5], [1.0, 2.0]))
    x = c + np.array([offset, 0.0, 0.0])
    at_centre = mu.radial_mass_profile(x) is not None
    assert at_centre == (offset == 0.0)
    assert (mu.atom_mass_at(x) > 0.0) == at_centre
    assert math.isinf(wolff_potential(mu, WolffParams(2.5, 1.0), x)) == at_centre
    assert math.isinf(riesz_potential(mu, RieszParams(2.0), x)) == at_centre


def _radial_ball_mass_oracle(atom, coef, m, R, shell, n, rho, t):
    """Ball mass off the centre of atom + coef * min(s, R)**m + a shell of
    mass 1 at ``shell``, the cut spheres by a tight adaptive quadrature."""
    out = (atom if rho <= t else 0.0) + ball_intersection_fraction(
        shell, rho, t, n)
    if t > rho:
        out += coef * min(R, t - rho) ** m
    lo, hi = abs(t - rho), min(R, t + rho)
    if hi > lo:
        out += quad(lambda s: ball_intersection_fraction(s, rho, t, n)
                    * coef * m * s ** (m - 1.0),
                    lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radial_ball_mass_matches_tight_quadrature(n):
    R, shell = 0.3, 0.4
    ts = np.geomspace(0.01, 0.9, 9)
    for m in (0.5, float(n)):
        prof = AtomPlusPowerProfile(0.7, 1.3, m, rmax=R)
        prof = RadialMassFunction(
            np.append(prof.breakpoints, shell),
            np.append(prof.constant, prof.constant[-1] + 1.0),
            tuple((e, np.append(c, 0.0)) for e, c in prof.powers))
        mu = RadialProfileMeasure(np.zeros(n), prof)
        for rho in (0.05, 0.2, 0.45):
            x = np.zeros(n)
            x[-1] = rho
            want = [_radial_ball_mass_oracle(0.7, 1.3, m, R, shell, n, rho, t)
                    for t in ts]
            assert mu.ball_mass(x, ts) == pytest.approx(want, rel=1e-9)


def test_ball_mass_breakpoints_off_centre_and_of_sums():
    # a radial measure breaks at rho and at |s -+ rho| for its piece edges
    # s = 0 and 0.3; a sum breaks wherever one of its parts does
    mu = RadialProfileMeasure(np.zeros(3),
                              AtomPlusPowerProfile(1.0, 1.0, 3.0, rmax=0.3))
    x = [0.1, 0.0, 0.0]
    assert mu.ball_mass_breakpoints(x) == pytest.approx([0.0, 0.1, 0.2, 0.4])
    both = SumMeasure([mu, AtomicMeasure([[0.6, 0.0, 0.0]], [1.0])])
    assert both.ball_mass_breakpoints(x) == pytest.approx(
        [0.0, 0.1, 0.2, 0.4, 0.5])


def test_ball_mass_takes_an_array_of_radii():
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 0.25)
    density = np.random.default_rng(31).uniform(0.0, 2.0, grid.cell_shape)
    atomic = AtomicMeasure([[0.4, 0.5, 0.6], [0.2, 0.2, 0.2]], [1.0, 2.0])
    radial = RadialProfileMeasure(
        np.full(3, 0.5), AtomPlusPowerProfile(0.5, 2.0, 1.5, rmax=0.3))
    measures = [atomic, GridMeasure(grid, density), radial,
                SumMeasure([atomic, radial])]
    ts = np.array([0.01, 0.1, 0.15, 0.3, 0.45, 0.8])
    for mu in measures:
        for x in ([0.45, 0.5, 0.55], [0.5, 0.5, 0.5], [0.4, 0.5, 0.6]):
            got = mu.ball_mass(x, ts)
            assert got.shape == ts.shape
            assert got.tolist() == [mu.ball_mass(x, t) for t in ts]
            assert all(type(mu.ball_mass(x, t)) is float for t in ts)
        with pytest.raises(ValueError):
            mu.ball_mass(x, np.array([0.1, 0.0]))


def test_uniform_ball_measure_mass():
    grid = EvaluationGrid.from_box((-1.0,) * 3, (1.0,) * 3, 1.0 / 16.0)
    mu = uniform_ball_measure(grid, np.zeros(3), 0.5)
    vol = 4.0 / 3.0 * np.pi * 0.5 ** 3
    assert mu.total_mass == pytest.approx(vol, rel=0.05)


def test_lebesgue_ball_measure_exact_at_center():
    mu = lebesgue_ball_measure(np.zeros(3), 1.0)
    vol = 4.0 / 3.0 * np.pi
    assert mu.ball_mass(np.zeros(3), 1.0) == pytest.approx(vol, rel=1e-12)
    assert mu.ball_mass(np.zeros(3), 0.5) == pytest.approx(vol / 8.0, rel=1e-12)
    assert mu.ball_mass(np.zeros(3), 7.0) == pytest.approx(vol, rel=1e-12)


def test_grid_ball_mass_counts_cell_centers():
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 0.25)
    density = np.zeros(grid.cell_shape)
    density[0, 0] = 16.0  # mass 1 in the cell centered at (0.125, 0.125)
    mu = GridMeasure(grid, density)
    c = np.array([0.125, 0.125])
    assert mu.ball_mass(c, 0.01) == pytest.approx(1.0)
    assert mu.ball_mass(np.zeros(2), 0.1) == 0.0


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0, 0.0]], [-1.0])


# --- point masses and cell masses -----------------------------------------


def _box_grid(h):
    return EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), h)


def test_atoms_of_each_kind():
    atomic = AtomicMeasure([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                           [1.0, 0.0, 2.5])
    loc, mass = atomic.atoms()
    assert np.array_equal(loc, [[0.1, 0.2], [0.5, 0.6]])
    assert np.array_equal(mass, [1.0, 2.5])
    diffuse = [GridMeasure(_box_grid(0.25), np.ones((4, 4))),
               RadialProfileMeasure([0.5, 0.5],
                                    AtomPlusPowerProfile(1.0, 1.0, 2.0))]
    for mu in diffuse:
        loc, mass = mu.atoms()
        assert loc.shape == (0, 2) and mass.shape == (0,)
    loc, mass = SumMeasure([atomic, diffuse[0],
                            AtomicMeasure([[0.9, 0.9]], [3.0])]).atoms()
    assert np.array_equal(loc, [[0.1, 0.2], [0.5, 0.6], [0.9, 0.9]])
    assert np.array_equal(mass, [1.0, 2.5, 3.0])


def test_atomic_cell_masses_go_to_containing_cells():
    grid = _box_grid(0.25)
    mu = AtomicMeasure([[0.1, 0.1], [0.2, 0.05], [0.6, 0.9], [0.8, 0.3]],
                       [1.0, 2.0, 0.5, 0.0])
    masses = mu.cell_masses(grid)
    expected = np.zeros((4, 4))
    expected[0, 0] = 3.0
    expected[2, 3] = 0.5
    assert np.array_equal(masses, expected)


def test_sum_cell_masses_add_parts():
    grid = _box_grid(0.125)
    atoms = AtomicMeasure([[0.3, 0.7], [0.55, 0.2]], [1.5, 0.25])
    rng = np.random.default_rng(4)
    diffuse = GridMeasure(grid, rng.random((8, 8)))
    total = SumMeasure([atoms, diffuse]).cell_masses(grid)
    parts = atoms.cell_masses(grid) + diffuse.cell_masses(grid)
    assert np.array_equal(total, parts)
    assert total.sum() == pytest.approx(atoms.total_mass + diffuse.total_mass,
                                        rel=1e-14)


def test_grid_cell_masses_resampled_on_finer_pitch():
    density = np.arange(16.0).reshape(4, 4)
    mu = GridMeasure(_box_grid(0.25), density)
    same = mu.cell_masses(_box_grid(0.25))
    assert np.array_equal(same, density * 0.0625)
    fine = mu.cell_masses(_box_grid(0.125))
    # each source cell splits into four target cells of a quarter volume
    expected = np.kron(density, np.ones((2, 2))) * 0.125 ** 2
    assert np.array_equal(fine, expected)
    assert fine.sum() == pytest.approx(mu.total_mass, rel=1e-14)


def test_atom_outside_box_cannot_be_projected():
    mu = AtomicMeasure([[0.5, 0.5], [1.5, 0.5]], [1.0, 1.0])
    with pytest.raises(HypothesisViolation):
        mu.cell_masses(_box_grid(0.25))


def test_radial_measure_has_no_cell_masses():
    radial = lebesgue_ball_measure([0.5, 0.5], 0.25)
    with pytest.raises(RepresentationError):
        radial.cell_masses(_box_grid(0.25))
    with pytest.raises(RepresentationError):
        SumMeasure([AtomicMeasure([[0.5, 0.5]], [1.0]),
                    radial]).cell_masses(_box_grid(0.25))
