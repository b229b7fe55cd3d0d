"""Riesz potential evaluation and the atom-mass ratio limit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath, fit_limit
from potkit.grid import EvaluationGrid
from potkit.geometry import ball_volume
from potkit.measures import (
    AtomicMeasure,
    AtomPlusPowerProfile,
    GridMeasure,
    Measure,
    PowerLawProfile,
    RadialProfileMeasure,
    SumMeasure,
    lebesgue_ball_measure,
    normalized_sphere_shell,
    uniform_ball_measure,
)
from potkit.riesz import (RieszParams, riesz_asymptotic_report,
                          riesz_decay_check, riesz_potential)
from potkit.wolff import WolffParams, wolff_potential


def test_single_atom_kernel_value():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [2.5])
    got = riesz_potential(mu, RieszParams(2.0), [0.5, 0.0, 0.0])
    assert got == pytest.approx(2.5 / 0.5, rel=1e-14)


def test_single_atom_log_kernel():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [2.0])
    got = riesz_potential(mu, RieszParams(3.0, domain_diameter=4.0),
                          [0.5, 0.0, 0.0])
    assert got == pytest.approx(2.0 * math.log(8.0), rel=1e-14)


def test_atom_collision_gives_infinity():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    assert riesz_potential(mu, RieszParams(2.0), np.zeros(3)) == math.inf


class _ByParts(Measure):
    """An atomic measure seen only through its profile, so that Riesz
    integrates its ball mass by parts."""

    def __init__(self, inner):
        self._inner = inner

    dim = property(lambda self: self._inner.dim)
    total_mass = property(lambda self: self._inner.total_mass)

    def radial_mass_profile(self, x, reach=math.inf):
        return self._inner.radial_mass_profile(x)


@pytest.mark.parametrize("params", [RieszParams(1.5), RieszParams(2.0),
                                    RieszParams(3.0, domain_diameter=2.0)])
def test_atomic_kernel_sum_matches_the_by_parts_form(params):
    # the 14-atom thin-witness measure at n = 3, p = 2.5
    idx = np.arange(1, 15)
    pts = np.zeros((14, 3))
    pts[:, 0] = 2.0 ** -idx
    mu = AtomicMeasure(pts, 2.0 ** (-idx * 0.5) * idx ** 1.5)
    rng = np.random.default_rng(23)
    for x in rng.uniform(-0.5, 0.5, (30, 3)):
        assert riesz_potential(mu, params, x) == pytest.approx(
            riesz_potential(_ByParts(mu), params, x), rel=1e-13, abs=0.0)
    assert riesz_potential(mu, params, pts[3]) == math.inf


def _grid_riesz_every_cell(mu, params, x):
    """Grid Riesz as a sum over every cell of the grid: the midpoint
    kernel on loaded cells, the cell containing x replaced by the
    kernel's average over the equal-volume ball."""
    grid, density, n, alpha = mu.grid, mu.density, mu.dim, params.alpha
    D = params.domain_diameter
    d2 = grid.cell_center_dist2(x)
    vol = grid.cell_volume
    total = 0.0
    cell = grid.locate_cell(x)
    if cell is not None and density[cell] > 0.0:
        r_eq = grid.h * ball_volume(n) ** (-1.0 / n)
        average = ((n / alpha) * r_eq ** (alpha - n) if alpha < n
                   else math.log(D / r_eq) + 1.0 / n)
        total += density[cell] * vol * average
        d2[cell] = -1.0
    keep = (density > 0.0) & (d2 > 0.0)
    dist = np.sqrt(d2[keep])
    k = (np.log(np.divide(D, dist)) if alpha == n
         else np.power(dist, alpha - n))
    return total + float((density[keep] * k).sum()) * vol


@pytest.mark.parametrize("params", [RieszParams(1.5), RieszParams(2.0),
                                    RieszParams(3.0, domain_diameter=2.0)])
def test_grid_sum_over_loaded_cells_matches_every_cell_bit_for_bit(params):
    rng = np.random.default_rng(29)
    grid = EvaluationGrid.from_box((0.0,) * 3, (1.0,) * 3, 1.0 / 8.0)
    density = np.where(rng.random(grid.cell_shape) < 0.5,
                       rng.uniform(0.5, 1.5, grid.cell_shape), 0.0)
    mu = GridMeasure(grid, density)
    loaded = grid.cell_center_points(density > 0)[0]
    unloaded = grid.cell_center_points(density == 0)[0] + 0.01
    points = [loaded, loaded + 0.02, unloaded, [1.3, 0.4, 0.5],
              [-0.2, -0.1, 1.1], [0.5, 0.5, 0.5]]
    points += list(rng.uniform(-0.2, 1.2, (20, 3)))
    for x in points:
        x = np.asarray(x, dtype=float)
        assert riesz_potential(mu, params, x) == \
            _grid_riesz_every_cell(mu, params, x)


def test_uniform_ball_center_newtonian():
    # independent 1-D radial oracle: 2*pi*R^2 for unit density, alpha=2, n=3
    grid = EvaluationGrid.from_box((-1.2,) * 3, (1.2,) * 3, 0.05)
    mu = uniform_ball_measure(grid, np.zeros(3), 1.0)
    got = riesz_potential(mu, RieszParams(2.0), np.zeros(3))
    assert got == pytest.approx(2.0 * math.pi, rel=0.02)


def test_uniform_ball_profile_measure_interior():
    # radial representation hits the closed form much tighter
    from potkit.measures import lebesgue_ball_measure
    mu = lebesgue_ball_measure(np.zeros(3), 1.0)
    got = riesz_potential(mu, RieszParams(2.0), np.zeros(3))
    assert got == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_linearity_for_atomic_parts():
    rng = np.random.default_rng(23)
    a = AtomicMeasure(rng.normal(size=(4, 3)), rng.uniform(size=4))
    b = AtomicMeasure(rng.normal(size=(3, 3)), rng.uniform(size=3))
    params = RieszParams(2.2)
    x = np.array([2.0, 0.1, -0.3])
    got = riesz_potential(SumMeasure([a, b]), params, x)
    want = riesz_potential(a, params, x) + riesz_potential(b, params, x)
    assert got == pytest.approx(want, rel=1e-13)


def test_sum_of_atomic_and_radial_parts():
    a = AtomicMeasure([[0.1, 0.0, 0.0], [0.0, 0.4, 0.2]], [0.7, 1.1])
    b = lebesgue_ball_measure([0.5, 0.2, 0.0], 0.4, 1.3)
    params = RieszParams(2.2)
    x = np.array([0.6, 0.1, 0.1])
    got = riesz_potential(SumMeasure([a, b]), params, x)
    assert got == riesz_potential(a, params, x) + riesz_potential(b, params, x)


def test_atoms_of_zero_mass_give_zero():
    mu = AtomicMeasure([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.0, 0.0])
    assert riesz_potential(mu, RieszParams(2.0), [0.5, 0.0, 0.0]) == 0.0
    assert riesz_potential(mu, RieszParams(2.0), [0.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
@pytest.mark.parametrize("rho", [0.1, 0.3, 0.45])
def test_sphere_shell_matches_closed_form(alpha, rho):
    # the kernel averaged over a sphere of radius s in R^3, seen from
    # distance rho: ((s+rho)^(alpha-1) - |s-rho|^(alpha-1)) / (2 s rho (alpha-1))
    s, mass = 0.3, 1.7
    mu = normalized_sphere_shell(np.zeros(3), s, mass)
    want = mass * ((s + rho) ** (alpha - 1.0) - abs(s - rho) ** (alpha - 1.0)) \
        / (2.0 * s * rho * (alpha - 1.0))
    got = riesz_potential(mu, RieszParams(alpha), np.array([0.0, 0.0, rho]))
    # on the shell at alpha < 2 the integrand has a t^(alpha-2) singularity
    # at t = 0, whose innermost part the rule's last node leaves out
    tol = 1e-7 if rho == s and alpha < 2.0 else 1e-12
    assert got == pytest.approx(want, rel=tol)


@pytest.mark.parametrize("rho", [0.05, 0.15, 0.25, 0.3, 0.35, 0.45])
def test_atom_plus_uniform_ball_newtonian(rho):
    atom, coef, R = 1.3, 0.9, 0.3
    density = coef / (4.0 / 3.0 * math.pi)
    c = np.array([0.05, -0.02, 0.01])
    mu = RadialProfileMeasure(c, AtomPlusPowerProfile(atom, coef, 3.0, rmax=R))
    if rho <= R:
        bulk = 2.0 * math.pi * density * (R * R - rho * rho / 3.0)
    else:
        bulk = 4.0 / 3.0 * math.pi * density * R ** 3 / rho
    x = c + rho * np.array([0.6, 0.0, 0.8])
    assert riesz_potential(mu, RieszParams(2.0), x) == pytest.approx(
        atom / rho + bulk, rel=1e-11)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.45])
def test_log_kernel_on_a_uniform_ball_matches_quad(rho):
    # alpha = n = 3: integrate over spheres of radius s the kernel's
    # sphere average (1/(2 s rho)) * int_{|s-rho|}^{s+rho} u log(D/u) du
    R, density, D = 0.3, 1.4, 4.0
    mu = lebesgue_ball_measure(np.zeros(3), R, density)

    def anti(u):
        return 0.5 * u * u * math.log(D / u) + 0.25 * u * u if u > 0 else 0.0

    def shell(s):
        avg = (anti(s + rho) - anti(abs(s - rho))) / (2.0 * s * rho)
        return density * 4.0 * math.pi * s * s * avg

    points = [rho] if rho < R else None
    want = quad(shell, 0.0, R, points=points, epsabs=0.0, epsrel=1e-13,
                limit=200)[0]
    got = riesz_potential(mu, RieszParams(3.0, domain_diameter=D),
                          np.array([rho, 0.0, 0.0]))
    # the off-centre ball masses themselves are good to about 2e-11
    assert got == pytest.approx(want, rel=3e-11)


def test_atom_at_a_radial_center_gives_infinity():
    mu = RadialProfileMeasure(np.zeros(3),
                              AtomPlusPowerProfile(1.0, 1.0, 3.0, rmax=0.5))
    assert riesz_potential(mu, RieszParams(2.0), np.zeros(3)) == math.inf
    assert riesz_potential(mu, RieszParams(3.0, domain_diameter=2.0),
                           np.zeros(3)) == math.inf


def test_scaling_law_atomic():
    # pushforward under y -> lam y scales the potential by lam^(alpha-n)
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(5, 3))
    masses = rng.uniform(0.5, 2.0, size=5)
    lam, alpha, n = 0.5, 2.2, 3
    mu = AtomicMeasure(pts, masses)
    mu_lam = AtomicMeasure(lam * pts, masses)
    x = np.array([1.3, -0.2, 0.7])
    got = riesz_potential(mu_lam, RieszParams(alpha), lam * x)
    want = lam ** (alpha - n) * riesz_potential(mu, RieszParams(alpha), x)
    assert got == pytest.approx(want, rel=1e-12)


def test_alpha_validation():
    mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        riesz_potential(mu, RieszParams(1.0), [0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        riesz_potential(mu, RieszParams(3.5), [0.5, 0.0, 0.0])


def test_pure_atom_ratio_is_constant():
    a = 1.7
    mu = AtomicMeasure([np.zeros(3)], [a])
    path = ApproachPath.geometric(np.zeros(3), [0.0, 1.0, 0.0],
                                  r0=0.5, ratio=0.5, count=12)
    rep = riesz_asymptotic_report(mu, RieszParams(2.0), np.zeros(3), path)
    assert np.allclose(rep.values, a, rtol=1e-13)
    assert rep.limit == pytest.approx(a, rel=1e-12)


def test_atom_plus_uniform_limit_is_atom_mass():
    mu = RadialProfileMeasure(np.zeros(3),
                              AtomPlusPowerProfile(2.0, 1.0, 3.0, rmax=1.0))
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.5, ratio=0.5, count=20)
    rep = riesz_asymptotic_report(mu, RieszParams(2.0), np.zeros(3), path)
    assert rep.limit == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("D", [1.5, 4.0])
def test_log_kernel_limit_is_the_atom_mass(D):
    # R = 2 log(D/r), so R / log(1/r) = 2 + 2 log(D) / log(1/r): linear
    # in 1/log(1/r), which a power of r cannot extrapolate
    mu = AtomicMeasure([np.zeros(3)], [2.0])
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=24)
    rep = riesz_asymptotic_report(mu, RieszParams(3.0, domain_diameter=D),
                                  np.zeros(3), path)
    assert rep.limit == pytest.approx(2.0, abs=1e-12)
    assert rep.extras["point_mass_estimate"] == rep.limit
    assert np.allclose(rep.extras["ratios_domain_normalized"], 2.0,
                       rtol=1e-13)


def test_diffuse_only_limit_is_zero():
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 3.0, rmax=1.0))
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.5, ratio=0.5, count=20)
    rep = riesz_asymptotic_report(mu, RieszParams(2.0), np.zeros(3), path)
    assert abs(rep.limit) < 0.05


def test_report_requires_enough_samples():
    mu = AtomicMeasure([np.zeros(3)], [1.0])
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.5, ratio=0.5, count=4)
    with pytest.raises(ValueError):
        riesz_asymptotic_report(mu, RieszParams(2.0), np.zeros(3), path)


@pytest.mark.parametrize("x, params", [
    (np.zeros(3), RieszParams(3.0, domain_diameter=4.0)),
    (np.zeros(3), RieszParams(2.0)),
    (np.array([0.3, 0.0, 0.0]), RieszParams(2.0)),
    (np.array([0.3, 0.0, 0.0]), RieszParams(3.0, domain_diameter=4.0)),
])
def test_infinite_mass_has_no_riesz_potential(x, params):
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 2.5))
    assert mu.total_mass == math.inf
    with pytest.raises(HypothesisViolation):
        riesz_potential(mu, params, x)
    with pytest.raises(HypothesisViolation):
        riesz_potential(SumMeasure([AtomicMeasure([[1.0, 1.0, 1.0]], [1.0]),
                                    mu]), params, x)


def test_infinite_mass_keeps_its_wolff_potential():
    # the Wolff integral stops at r, so only the mass near x matters
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 2.5))
    value = wolff_potential(mu, WolffParams(2.5, 0.5), np.zeros(3))
    # M(t) = t^2.5: integrand (t^2.5 / t^0.5)^(1/1.5) / t = t^(1/3)
    assert value == pytest.approx(0.75 * 0.5 ** (4.0 / 3.0), rel=1e-12)


def _decay_path():
    return ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=12)


@pytest.mark.parametrize("d", [0.3, 0.5])
def test_riesz_decay_check_on_power_growth(d):
    # mu(B(0, t)) = t^d gives R ~ |x|^-(n - alpha - d) = |x|^-(1 - d)
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, d, 1.0))
    rep = riesz_decay_check(mu, RieszParams(2.0), np.zeros(3), d,
                            _decay_path())
    assert rep.passed
    assert rep.measured_exponent == pytest.approx(1.0 - d, abs=0.01)


def test_riesz_decay_check_rejects_slower_growth_than_assumed():
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 0.3, 1.0))
    with pytest.raises(HypothesisViolation):
        riesz_decay_check(mu, RieszParams(2.0), np.zeros(3), 0.6,
                          _decay_path())


@pytest.mark.parametrize("d", [0.1, 0.18])
def test_riesz_decay_check_rejects_an_atom_at_x0_when_d_is_positive(d):
    # an atom has mass of order t^0 at x0, so no t^d growth with d > 0
    mu = AtomicMeasure([np.zeros(3)], [1.0])
    with pytest.raises(HypothesisViolation, match="atom at x0"):
        riesz_decay_check(mu, RieszParams(2.0), np.zeros(3), d,
                          _decay_path())


def test_riesz_decay_check_accepts_an_atom_at_x0_when_d_is_0():
    # R = 1/|x| blows up at exactly the bound n - alpha - 0 = 1
    mu = AtomicMeasure([np.zeros(3)], [1.0])
    rep = riesz_decay_check(mu, RieszParams(2.0), np.zeros(3), 0.0,
                            _decay_path())
    assert rep.passed
    assert rep.measured_exponent == pytest.approx(1.0, abs=1e-12)


def test_riesz_report_fits_its_trailing_third():
    # the Riesz window, max(4, ceil(20/3)) = 7 here, is the report's own;
    # the default half window moves this limit by about 2e-12
    mu = RadialProfileMeasure(np.zeros(3),
                              AtomPlusPowerProfile(2.0, 1.0, 3.0, rmax=1.0))
    path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.5, ratio=0.5, count=20)
    rep = riesz_asymptotic_report(mu, RieszParams(2.0), np.zeros(3), path)
    assert rep.limit == fit_limit(path.radii, rep.values, window=7).limit
    assert rep.limit != fit_limit(path.radii, rep.values).limit
