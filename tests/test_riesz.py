"""Riesz potential evaluation and the atom-mass ratio limit."""

import math

import numpy as np
import pytest

from potkit.errors import HypothesisViolation
from potkit.fitting import ApproachPath
from potkit.grid import EvaluationGrid
from potkit.measures import (
    AtomicMeasure,
    AtomPlusPowerProfile,
    PowerLawProfile,
    RadialProfileMeasure,
    SumMeasure,
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
