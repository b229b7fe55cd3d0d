"""Closed-form sphere/ball constants, kernel exponents and squared
distances."""

import math

import numpy as np
import pytest

from potkit.geometry import (
    ball_intersection_fraction,
    ball_volume,
    dist2,
    kappa_exponent,
    sphere_area,
)


def _ball_volume_oracle(n):
    # unit-ball volume pi^(n/2) / Gamma(n/2 + 1)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def test_sphere_area_small_dims():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)


def test_ball_volume_matches_gamma_formula():
    for n in range(2, 13):
        assert ball_volume(n) == pytest.approx(_ball_volume_oracle(n),
                                               rel=1e-13)


def test_sphere_area_is_n_times_volume():
    for n in range(2, 13):
        assert sphere_area(n) == pytest.approx(n * ball_volume(n), rel=1e-13)


def test_kappa_exponent_values():
    assert kappa_exponent(3, 2.0) == pytest.approx(1.0)
    assert kappa_exponent(3, 2.5) == pytest.approx(1.0 / 3.0)
    assert kappa_exponent(4, 3.0) == pytest.approx(0.5)


def test_ball_intersection_fraction_monte_carlo():
    # fraction of the sphere |y - x| = s inside B(0, t), |x| = rho
    rng = np.random.default_rng(5)
    n = 3
    for rho, s, t in [(0.5, 0.3, 0.6), (0.5, 0.7, 0.6), (1.0, 1.0, 1.2)]:
        v = rng.normal(size=(40000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pts = np.array([rho, 0.0, 0.0]) + s * v
        want = float(np.mean(np.linalg.norm(pts, axis=1) <= t))
        got = ball_intersection_fraction(s, rho, t, n)
        assert got == pytest.approx(want, abs=0.01)


def test_ball_intersection_fraction_extremes():
    assert ball_intersection_fraction(0.1, 1.0, 2.0, 3) == 1.0
    assert ball_intersection_fraction(0.1, 1.0, 0.5, 3) == 0.0


def test_ball_intersection_fraction_near_the_first_touch():
    # on S^2 a ball of radius t about a point of the sphere (rho = s)
    # covers t^2 / (4 s^2) of it; 1 - cos^2 would cancel as t -> 0
    s = 0.3
    for t in (1e-7, 1e-4, 0.1):
        assert ball_intersection_fraction(s, s, t, 3) == pytest.approx(
            t * t / (4.0 * s * s), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_dist2_equals_summed_squares(n):
    # equal to the bit: pairs of point sets, one point against many, one
    # point against one, and coincident points
    rng = np.random.default_rng(n)
    a = rng.normal(size=(300, n)) * np.exp(5.0 * rng.normal(size=(300, 1)))
    b = np.concatenate([a[:5], rng.normal(size=(35, n))])
    for x, y in [(a[:, None, :], b[None, :, :]), (a, b[7]), (b[7], a),
                 (a, a)] + [(a[i], b[i % 40]) for i in range(0, 300, 7)]:
        assert np.array_equal(dist2(x, y), ((x - y) ** 2).sum(axis=-1))
    assert np.count_nonzero(dist2(a[:, None, :], b[None, :, :]) == 0.0) >= 5
