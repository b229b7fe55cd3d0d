"""Riesz potential evaluation and the atom-mass ratio limit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath
from potkit.grid import EvaluationGrid
from potkit.measures import (
    AtomicMeasure,
    AtomPlusPowerProfile,
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
