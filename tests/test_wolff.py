"""Wolff potential closed forms, quadrature agreement, and the witness
family whose scaled potential blows up along its atom centers."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath
from potkit.grid import EvaluationGrid
from potkit.integrate import ball_mass_integral, profile_integral
from potkit.measures import (
    BALL_REL_TOL,
    AtomicMeasure,
    AtomPlusPowerProfile,
    GridMeasure,
    PowerLawProfile,
    RadialProfileMeasure,
    SumMeasure,
    normalized_sphere_shell,
)
from potkit.thinness import thin_witness_blowup
from potkit.wolff import (
    WolffParams,
    wolff_asymptotic_report,
    wolff_decay_check,
    wolff_potential,
)


def _atom_oracle(a, n, p, d, r):
    """Independent quadrature of the single-atom Wolff integrand."""
    val, _ = quad(lambda t: (a / t ** (n - p)) ** (1.0 / (p - 1.0)) / t,
                  d, r, epsabs=1e-14, epsrel=1e-13)
    return val


def test_atom_closed_form_matches_quad_oracle():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [2.0])
    got = wolff_potential(mu, WolffParams(2.5, 1.0), [0.25, 0.0, 0.0])
    assert got == pytest.approx(2.7973231434646406, rel=1e-12)
    assert got == pytest.approx(_atom_oracle(2.0, 3, 2.5, 0.25, 1.0),
                                rel=1e-12)


def test_atom_closed_form_p2():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    got = wolff_potential(mu, WolffParams(2.0, 0.8), [0.1, 0.0, 0.0])
    assert got == pytest.approx(8.75, rel=1e-13)


def test_atom_closed_form_n4():
    mu = AtomicMeasure([[0.0, 0.0, 0.0, 0.0]], [3.0])
    got = wolff_potential(mu, WolffParams(2.5, 2.0), [0.3, 0.0, 0.0, 0.0])
    assert got == pytest.approx(5.893570831980394, rel=1e-12)


def test_atom_log_case_p_equals_n():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [2.0])
    got = wolff_potential(mu, WolffParams(3.0, 1.0), [0.2, 0.0, 0.0])
    assert got == pytest.approx(math.sqrt(2.0) * math.log(5.0), rel=1e-13)


def test_zero_measure_gives_zero():
    mu = AtomicMeasure(np.zeros((0, 3)), [])
    assert wolff_potential(mu, WolffParams(2.5, 1.0), [0.3, 0.0, 0.0]) == 0.0


def test_at_atom_location_diverges():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    assert wolff_potential(mu, WolffParams(2.5, 1.0), np.zeros(3)) == math.inf


def test_power_profile_closed_form():
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.5, 3.0))
    got = wolff_potential(mu, WolffParams(2.5, 1.0), np.zeros(3))
    assert got == pytest.approx(0.7862224182626691, rel=1e-12)


def test_quadrature_agrees_with_exact_piecewise():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(6, 3)) * 0.3
    mu = AtomicMeasure(pts, rng.uniform(0.2, 1.5, size=6))
    params = WolffParams(2.5, 1.0)
    for _ in range(5):
        x = rng.normal(size=3)
        a = wolff_potential(mu, params, x)
        b = ball_mass_integral(mu, x, 0.5, 1.5, 0.0, 1.0)
        assert b == pytest.approx(a, rel=1e-10)


def _lens_volume(t, rho, R):
    """Volume of B(x, t) intersected with B(0, R) in R^3, |x| = rho."""
    if rho >= t + R:
        return 0.0
    if rho <= abs(R - t):
        return 4.0 / 3.0 * math.pi * min(t, R) ** 3
    return (math.pi * (t + R - rho) ** 2
            * (rho * rho + 2.0 * rho * R - 3.0 * R * R + 2.0 * rho * t
               + 6.0 * R * t - 3.0 * t * t) / (12.0 * rho))


@pytest.mark.parametrize("rho", [0.05, 0.15, 0.25, 0.3, 0.35, 0.45])
def test_off_centre_radial_matches_lens_volume_oracle(rho):
    # an atom at the centre plus a uniform ball of radius 0.3, off centre:
    # the oracle integrates exact lens volumes adaptively between the
    # breakpoints of the ball mass
    atom, coef, R, p, r = 1.3, 0.9, 0.3, 2.5, 0.5
    c = np.array([0.05, -0.02, 0.01])
    mu = RadialProfileMeasure(c, AtomPlusPowerProfile(atom, coef, 3.0, rmax=R))
    density = coef / (4.0 / 3.0 * math.pi)

    def integrand(t):
        mass = (atom if t >= rho else 0.0) + density * _lens_volume(t, rho, R)
        return (mass / t ** (3 - p)) ** (1.0 / (p - 1.0)) / t

    edges = [0.0, *sorted(b for b in (rho, abs(R - rho), R + rho)
                          if 0.0 < b < r), r]
    want = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    x = c + rho * np.array([0.6, 0.0, 0.8])
    assert wolff_potential(mu, WolffParams(p, r), x) == pytest.approx(
        want, rel=1e-9)


@pytest.mark.parametrize("p", [2.2, 2.5, 2.9])
def test_on_a_sphere_shell_matches_closed_form(p):
    # on a sphere of radius s in R^3, B(x, t) covers the fraction
    # t^2 / (4 s^2) of it for t <= 2s: M(t) = c t^2, and the integrand is
    # c^(1/(p-1)) t^(e-1) with e = (2 - (3-p)) / (p-1) = 1
    s, mass, r = 0.3, 1.7, 0.5
    mu = normalized_sphere_shell(np.zeros(3), s, mass)
    want = (mass / (4.0 * s * s)) ** (1.0 / (p - 1.0)) * r
    got = wolff_potential(mu, WolffParams(p, r), np.array([0.0, s, 0.0]))
    assert got == pytest.approx(want, rel=1e-12)


def test_monotone_in_r():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    x = [0.1, 0.0, 0.0]
    w1 = wolff_potential(mu, WolffParams(2.5, 0.5), x)
    w2 = wolff_potential(mu, WolffParams(2.5, 1.0), x)
    assert w1 <= w2


def test_mass_scaling_exponent():
    # c * mu multiplies W by c^(1/(p-1)) exactly
    mu1 = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    mu8 = AtomicMeasure([[0.0, 0.0, 0.0]], [8.0])
    params = WolffParams(2.5, 1.0)
    x = [0.2, 0.0, 0.0]
    w1 = wolff_potential(mu1, params, x)
    w8 = wolff_potential(mu8, params, x)
    assert w8 == pytest.approx(8.0 ** (1.0 / 1.5) * w1, rel=1e-13)


def test_p_near_n_continuity():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    x = [0.4, 0.0, 0.0]
    w_near = wolff_potential(mu, WolffParams(3.0 - 1e-3, 1.0), x)
    w_log = wolff_potential(mu, WolffParams(3.0, 1.0), x)
    assert w_near == pytest.approx(w_log, rel=0.01)


def _sorted_cumsum_reference(points, masses, x, p, r, t_min=0.0):
    """Wolff integral of point masses by sorting their distances: the ball
    mass is the running total between consecutive distances, and each
    constant piece c on (a, b) integrates to c^(1/(p-1)) log(b/a) at
    p = n, else to c^(1/(p-1)) (a^-k - b^-k) / k with k = (n-p)/(p-1)."""
    n = points.shape[1]
    d = np.sqrt(((points - x) ** 2).sum(axis=1))
    order = np.argsort(d)
    d, cum = d[order], np.cumsum(masses[order])
    a = np.maximum(d, t_min)
    b = np.minimum(np.append(d[1:], np.inf), r)
    keep = b > a
    a, b, cp = a[keep], b[keep], cum[keep] ** (1.0 / (p - 1.0))
    if p == n:
        return float((cp * np.log(b / a)).sum())
    k = (n - p) / (p - 1.0)
    return float((cp * (a ** -k - b ** -k)).sum() / k)


def _random_grid_measure(m, seed):
    rng = np.random.default_rng(seed)
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 1.0 / m)
    dens = np.where(rng.random((m,) * 3) < 0.6,
                    rng.uniform(0.5, 1.5, (m,) * 3), 0.0)
    centers = (np.argwhere(dens > 0.0) + 0.5) / m
    return GridMeasure(grid, dens), centers, dens[dens > 0.0] / m ** 3, rng


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_grid_matches_sorted_cumsum_reference(p):
    mu, centers, cmass, rng = _random_grid_measure(8, 5)
    params = WolffParams(p, 0.5)
    for x in rng.uniform(0.2, 0.8, (6, 3)):
        assert wolff_potential(mu, params, x) == pytest.approx(
            _sorted_cumsum_reference(centers, cmass, x, p, 0.5), rel=1e-12)


def test_grid_equals_atoms_at_loaded_centres():
    # a grid measure's ball masses are those of its cell masses sitting
    # at the loaded cell centres
    gm, centers, cmass, rng = _random_grid_measure(8, 6)
    am = AtomicMeasure(centers, cmass)
    params = WolffParams(2.5, 0.5)
    for x in rng.uniform(0.2, 0.8, (5, 3)):
        assert wolff_potential(gm, params, x) == pytest.approx(
            wolff_potential(am, params, x), rel=1e-13)
        pg, pa = gm.radial_mass_profile(x), am.radial_mass_profile(x)
        assert np.allclose(pg.breakpoints, pa.breakpoints, rtol=1e-14, atol=0)
        assert np.allclose(pg.constant, pa.constant, rtol=1e-13, atol=0)
        for t in (0.05, 0.2, 0.6):
            assert gm.ball_mass(x, t) == pytest.approx(am.ball_mass(x, t),
                                                       rel=1e-13)


def _reach_cases():
    """An atomic, a grid and a grid + atomic measure on the unit cube."""
    rng = np.random.default_rng(17)
    atoms = AtomicMeasure(rng.uniform(0.0, 1.0, (300, 3)),
                          rng.uniform(0.1, 1.0, 300))
    grid = _random_grid_measure(8, 18)[0]
    return {"atomic": atoms, "grid": grid, "sum": SumMeasure([grid, atoms])}


def _unreached(mu, params, x, t_min=0.0):
    """Wolff value from the full profile, which reads every atom."""
    n = mu.dim
    return profile_integral(mu.radial_mass_profile(x), n - params.p,
                            params.p - 1.0, t_min, params.r)


def _assert_prefix(mu, x, reach):
    full, cut = mu.radial_mass_profile(x), mu.radial_mass_profile(x, reach)
    k = cut.breakpoints.size
    assert np.array_equal(cut.breakpoints, full.breakpoints[:k])
    assert np.array_equal(cut.constant, full.constant[:k])
    assert k == full.breakpoints.size or full.breakpoints[k] >= reach
    assert np.all(cut.breakpoints[1:] < reach)


@pytest.mark.parametrize("kind", ["atomic", "grid", "sum"])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_wolff_reads_only_atoms_within_r_bit_for_bit(kind, p):
    mu = _reach_cases()[kind]
    rng = np.random.default_rng(19)
    params = WolffParams(p, 0.3)
    for x in rng.uniform(0.1, 0.9, (50, 3)):
        assert wolff_potential(mu, params, x) == _unreached(mu, params, x)
        _assert_prefix(mu, x, params.r)


@pytest.mark.parametrize("kind", ["atomic", "grid", "sum"])
def test_reach_edge_cases_bit_for_bit(kind):
    mu = _reach_cases()[kind]
    x = np.array([0.43, 0.52, 0.61])
    full = mu.radial_mass_profile(x)
    nearest = full.breakpoints[1]
    # r below the nearest atom, and r at exactly an atom's distance
    below = WolffParams(2.5, 0.5 * nearest)
    assert wolff_potential(mu, below, x) == 0.0 == _unreached(mu, below, x)
    for r in full.breakpoints[[1, 5, 40]]:
        params = WolffParams(2.5, float(r))
        assert wolff_potential(mu, params, x) == _unreached(mu, params, x)
        _assert_prefix(mu, x, r)
    # at a grid node the loaded ones of its 8 cells tie and make one jump
    node = np.array([0.5, 0.5, 0.375])
    if kind == "grid":
        around = mu.grid.cell_center_dist2(node) < 0.15 ** 2
        masses = mu.density[around] / 8 ** 3
        assert around.sum() == 8 and np.count_nonzero(masses) > 2
        first = mu.radial_mass_profile(node)
        assert first.breakpoints[1] == pytest.approx(math.sqrt(3) / 16)
        assert first.constant[1] == pytest.approx(masses.sum(), rel=1e-14)
    for p in (2.0, 2.5, 3.0):
        params = WolffParams(p, 0.3)
        assert wolff_potential(mu, params, node) == \
            _unreached(mu, params, node)
    _assert_prefix(mu, node, 0.3)
    # on an atom, and from t_min > 0 there as the witness centres are
    if kind != "grid":
        atom = mu.atoms()[0][7]
        params = WolffParams(2.5, 0.3)
        assert wolff_potential(mu, params, atom) == math.inf
        assert wolff_potential(mu, params, atom, t_min=0.05) == \
            _unreached(mu, params, atom, t_min=0.05)
    else:
        centre = np.array([0.5625, 0.4375, 0.3125])
        params = WolffParams(2.5, 0.3)
        assert wolff_potential(mu, params, centre) == \
            _unreached(mu, params, centre)
        assert wolff_potential(mu, params, centre, t_min=0.05) == \
            _unreached(mu, params, centre, t_min=0.05)


@pytest.mark.parametrize("kind", ["atomic", "grid", "sum"])
def test_ball_mass_reads_a_cut_profile_bit_for_bit(kind):
    # ball_mass asks for the profile only just past its largest radius;
    # at an atom's distance, and within the relative ball tolerance of
    # it on either side, it reads what the full profile's eval reads
    mu = _reach_cases()[kind]
    x = np.array([0.43, 0.52, 0.61])
    full = mu.radial_mass_profile(x)
    for r in full.breakpoints[[1, 5, 40]]:
        radii = [r, r * (1.0 - 0.5e-12), r * (1.0 + 0.5e-12),
                 r * (1.0 - 2e-12), np.nextafter(r, 0.0), 0.5 * r]
        # t whose t (1 + BALL_REL_TOL) is r exactly, and its neighbours
        u = r / (1.0 + BALL_REL_TOL)
        radii += [np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)]
        for t in radii:
            assert mu.ball_mass(x, t) == full.eval(t)
        t = np.array(radii)
        assert np.array_equal(mu.ball_mass(x, t), full.eval(t))
        assert np.array_equal(mu.ball_mass(x, t[1:]), full.eval(t[1:]))
    scales = 0.5 * 2.0 ** -np.arange(16)
    assert np.array_equal(mu.ball_mass(x, scales), full.eval(scales))
    assert mu.ball_mass(x, np.empty(0)).shape == (0,)


@pytest.mark.parametrize("at", ["off", "node"])
def test_massless_atoms_change_no_bit(at):
    # zero masses mixed in give the profile and the values of the
    # measure without them, also where distances tie at a lattice node
    rng = np.random.default_rng(23)
    locs = (np.argwhere(np.ones((6, 6, 6))) + 0.5) / 6.0
    masses = np.where(rng.random(216) < 0.3, 0.0, rng.uniform(0.1, 1.0, 216))
    with_zeros = AtomicMeasure(locs, masses)
    without = AtomicMeasure(locs[masses > 0], masses[masses > 0])
    x = {"off": np.array([0.4137, 0.5291, 0.3683]),
         "node": np.full(3, 0.5)}[at]
    for reach in (0.3, math.inf):
        got = with_zeros.radial_mass_profile(x, reach)
        want = without.radial_mass_profile(x, reach)
        assert np.array_equal(got.breakpoints, want.breakpoints)
        assert np.array_equal(got.constant, want.constant)
    # one jump per atom off the lattice, far fewer where distances tie
    jumps = want.breakpoints.size - 1
    assert (jumps == without.masses.size) == (at == "off")
    for p in (2.0, 2.5, 3.0):
        for r in (0.3, 2.0):
            params = WolffParams(p, r)
            assert wolff_potential(with_zeros, params, x) == \
                wolff_potential(without, params, x)
    t = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(with_zeros.ball_mass(x, t), without.ball_mass(x, t))


def test_grid_values_carry_no_state_between_points():
    # two points evaluated alternately on one measure give the values of
    # a freshly built measure at each
    gm, _, _, rng = _random_grid_measure(8, 7)
    xs = rng.uniform(0.2, 0.8, (2, 3))
    params = WolffParams(2.5, 0.5)

    def values(mu, x):
        return (wolff_potential(mu, params, x), mu.ball_mass(x, 0.3),
                mu.radial_mass_profile(x).constant.tolist())

    fresh = [values(_random_grid_measure(8, 7)[0], x) for x in xs]
    for _ in range(2):
        for x, want in zip(xs, fresh):
            assert values(gm, x) == want


def test_atomic_log_case_matches_sorted_cumsum_reference():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 3)) * 0.4
    masses = rng.uniform(0.1, 2.0, 40)
    mu = AtomicMeasure(pts, masses)
    params = WolffParams(3.0, 0.8)
    for x in rng.normal(size=(6, 3)) * 0.4:
        assert wolff_potential(mu, params, x) == pytest.approx(
            _sorted_cumsum_reference(pts, masses, x, 3.0, 0.8), rel=1e-12)


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_t_min_truncation_matches_sorted_cumsum_reference(p):
    # on an atom the truncated integral is finite; the atom's own mass
    # adds to every constant piece above t_min
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(25, 3)) * 0.4
    masses = rng.uniform(0.1, 2.0, 25)
    mu = AtomicMeasure(pts, masses)
    params = WolffParams(p, 0.8)
    for x in (pts[0], pts[7], rng.normal(size=3) * 0.4):
        for t_min in (1e-3, 0.05, 0.3):
            got = wolff_potential(mu, params, x, t_min=t_min)
            assert got == pytest.approx(_sorted_cumsum_reference(
                pts, masses, x, p, 0.8, t_min), rel=1e-12)


def test_infinite_exactly_on_atoms():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(12, 3)) * 0.4
    mu = AtomicMeasure(pts, rng.uniform(0.1, 2.0, 12))
    gm, centers, _, _ = _random_grid_measure(8, 5)
    for p in (2.5, 3.0):
        params = WolffParams(p, 0.5)
        assert wolff_potential(mu, params, pts[3]) == math.inf
        assert wolff_potential(gm, params, centers[4]) == math.inf
        assert math.isfinite(wolff_potential(mu, params, pts[3] + 1e-3))
        assert math.isfinite(wolff_potential(gm, params, centers[4] + 1e-3))


def test_several_term_pieces_go_through_quadrature():
    # above t_min the centre atom and the power law share each interval
    # below rmax; beyond it the constant piece carries atom plus ball mass
    mu = RadialProfileMeasure(np.zeros(3),
                              AtomPlusPowerProfile(0.5, 1.0, 3.0, rmax=0.4))
    params = WolffParams(2.5, 0.8)
    c = 0.5 + 0.4 ** 3
    constant = c ** (1.0 / 1.5) * (0.4 ** -(1.0 / 3.0)
                                   - 0.8 ** -(1.0 / 3.0)) * 3.0
    assert wolff_potential(mu, params, np.zeros(3), t_min=0.4) == \
        pytest.approx(constant, rel=1e-13)
    two_term, _ = quad(lambda t: ((0.5 + t ** 3) / t ** 0.5) ** (1.0 / 1.5) / t,
                       0.01, 0.4, epsabs=1e-14, epsrel=1e-13)
    assert wolff_potential(mu, params, np.zeros(3), t_min=0.01) == \
        pytest.approx(constant + two_term, rel=1e-8)
    # two powers down to t = 0: the smaller one, integrated in closed form
    # below a cut, carries the integral there
    two_powers = SumMeasure([
        RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, e))
        for e in (2.0, 3.0)])
    want, _ = quad(lambda t: ((t ** 2 + t ** 3) / t ** 0.5) ** (1.0 / 1.5) / t,
                   0.0, 0.8, epsabs=1e-14, epsrel=1e-13)
    assert wolff_potential(two_powers, params, np.zeros(3)) == \
        pytest.approx(want, rel=1e-10)


def test_asymptotic_report_atom_limit():
    # scaled values exceed the limit by exactly the r-correction term
    a, p, n = 2.0, 2.5, 3
    kappa = (n - p) / (p - 1.0)
    mu = AtomicMeasure([np.zeros(n)], [a])
    path = ApproachPath.geometric(np.zeros(n), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=20)
    rep = wolff_asymptotic_report(mu, WolffParams(p, 1.0), np.zeros(n), path)
    limit = (p - 1.0) / (n - p) * a ** (1.0 / (p - 1.0))
    assert rep.limit == pytest.approx(limit, rel=1e-3)
    # each sample sits below the limit by exactly the r-cap correction
    want = limit * (1.0 - path.radii ** kappa)
    assert np.allclose(rep.values, want, rtol=1e-12)
    assert rep.extras["point_mass_estimate"] == pytest.approx(a, rel=1e-3)


def test_asymptotic_report_log_normalization():
    a, n = 2.0, 3
    mu = AtomicMeasure([np.zeros(n)], [a])
    path = ApproachPath.geometric(np.zeros(n), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=24)
    rep = wolff_asymptotic_report(mu, WolffParams(float(n), 1.0),
                                  np.zeros(n), path)
    assert rep.limit == pytest.approx(a ** 0.5, rel=5e-3)
    # the cap-normalized alternative is constant in rho for a pure atom
    alt = rep.extras["scaled_cap_normalized"]
    assert np.allclose(alt, a ** 0.5, rtol=1e-12)


def test_asymptotic_report_vanishes_for_diffuse_mass():
    # growth exponent m > n - p forces the scaled values to zero
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 3.0))
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=16)
    rep = wolff_asymptotic_report(mu, WolffParams(2.5, 1.0), np.zeros(3), path)
    assert abs(rep.limit) < 0.01


def test_asymptotic_report_keeps_the_sign_of_a_negative_limit():
    # no mass at x0: the fitted limit comes out a little below 0, and the
    # point-mass estimate is a signed real number, not a complex power
    mu = AtomicMeasure([[0.0, 0.3, 0.0]], [1.0])
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=16)
    rep = wolff_asymptotic_report(mu, WolffParams(2.5, 1.0), np.zeros(3), path)
    mass = rep.extras["point_mass_estimate"]
    assert rep.limit < 0.0
    assert isinstance(mass, float)
    assert math.copysign(1.0, mass) == -1.0
    assert abs(mass) < 1e-6


def _decay_path():
    return ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=12)


@pytest.mark.parametrize("mu", [
    AtomicMeasure([np.zeros(3)], [1.0]),
    RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 0.2, 1.0)),
], ids=["atom-at-x0", "growth-below-hypothesis"])
def test_wolff_decay_check_rejects_broken_hypotheses(mu):
    with pytest.raises(HypothesisViolation):
        wolff_decay_check(mu, WolffParams(2.2, 1.0), np.zeros(3), 0.5, 0.05,
                          _decay_path())


def test_wolff_decay_check_passes_on_power_growth():
    # mu(B(0, t)) = t^0.5 gives W ~ |x|^-(n - p - m)/(p - 1) = |x|^-0.25
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 0.5, 1.0))
    rep = wolff_decay_check(mu, WolffParams(2.2, 1.0), np.zeros(3), 0.5,
                            0.05, _decay_path())
    assert rep.passed


def test_witness_masses_summable():
    rep = thin_witness_blowup(2.0 / 0.5, 2.5, n=3, count=20)
    i = np.arange(1, 21, dtype=float)
    want = 2.0 ** (-i * 0.5) * i ** 1.5
    assert np.allclose(rep.masses, want, rtol=1e-13)
    assert rep.measure.total_mass < np.sum(want) + 1e-9


def test_witness_centers_diverge_linearly():
    n, p = 3, 2.5
    rep = thin_witness_blowup(2.0 / (n - p), p, n=n, count=14)
    ramp = (p - 1.0) / (n - p) * rep.indices
    assert rep.centers_diverge
    assert np.all(rep.center_scaled >= 0.9 * ramp)
    assert np.all(np.diff(rep.center_scaled[4:]) > 0.0)


def test_witness_ray_vanishes():
    rep = thin_witness_blowup(2.0 / 0.5, 2.5, n=3, count=14)
    assert rep.ray_vanishes
    assert rep.ray_scaled[-1] <= 0.25 * rep.ray_scaled.max()
    # the escape direction misses every witness ball by construction
    assert abs(np.dot(rep.ray_direction, [1.0, 0.0, 0.0])) < 1.0


def test_witness_invalid_s_rejected():
    with pytest.raises(ValueError):
        thin_witness_blowup(-1.0, 2.5, n=3)


def test_params_validation():
    assert [f.name for f in dataclasses.fields(WolffParams)] == ["p", "r"]
    with pytest.raises(ValueError):
        WolffParams(1.0, 1.0)
    with pytest.raises(ValueError):
        WolffParams(2.5, -1.0)
