"""Limit extrapolation and tail classification on synthetic data."""

import numpy as np
import pytest

from potkit.fitting import (
    ApproachPath,
    blowup_exponent,
    fit_limit,
    fit_log_limit,
    fit_tail,
    loglog_slope,
)


def test_loglog_slope_recovers_power():
    r = 2.0 ** -np.arange(1, 12, dtype=float)
    slope, intercept, r2 = loglog_slope(r, 3.0 * r ** 1.7)
    assert slope == pytest.approx(1.7, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_limit_exact_on_power_correction():
    r = 2.0 ** -np.arange(1, 21, dtype=float)
    vals = 5.0 + 2.0 * r ** 0.5
    fit = fit_limit(r, vals)
    assert fit.limit == pytest.approx(5.0, rel=1e-8)
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    assert fit.residual < 1e-8


def test_fit_limit_constant_series():
    r = 2.0 ** -np.arange(1, 15, dtype=float)
    fit = fit_limit(r, np.full(14, 2.0))
    assert fit.limit == pytest.approx(2.0, rel=1e-13)


def test_fit_limit_needs_enough_samples():
    r = np.array([0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        fit_limit(r, np.ones(3))


def test_fit_limit_noisy_correction():
    rng = np.random.default_rng(2)
    r = 2.0 ** -np.arange(1, 25, dtype=float)
    vals = 1.5 + 0.8 * r ** 1.2 * (1.0 + 0.01 * rng.normal(size=r.size))
    fit = fit_limit(r, vals)
    assert fit.limit == pytest.approx(1.5, rel=1e-3)


def test_fit_log_limit_exact_on_a_log_correction():
    r = 2.0 ** -np.arange(2, 26, dtype=float)
    fit = fit_log_limit(r, 1.3 - 0.8 / np.log(1.0 / r))
    assert fit.limit == pytest.approx(1.3, abs=1e-12)
    assert fit.amplitude == pytest.approx(-0.8, abs=1e-10)
    assert (fit.exponent, fit.window) == (1.0, 12)
    assert fit.residual < 1e-12
    with pytest.raises(ValueError):
        fit_log_limit(r[:3], np.ones(3))


def test_fit_tail_geometric_series_summable():
    terms = 0.7 ** np.arange(1, 30, dtype=float)
    tail = fit_tail(terms)
    assert tail.model == "geometric"
    assert tail.rate == pytest.approx(0.7, abs=0.02)
    assert tail.summable


def test_fit_tail_inverse_square_summable():
    i = np.arange(1, 40, dtype=float)
    tail = fit_tail(3.0 / i ** 2)
    assert tail.model == "power"
    assert tail.rate == pytest.approx(2.0, abs=0.1)
    assert tail.summable
    # exact tail of 3 sum_{i>=I} i^-2 is close to 3/(I-1)
    assert tail.tail_bound == pytest.approx(3.0 / 38.0, rel=0.3)


def test_fit_tail_constant_not_summable():
    tail = fit_tail(np.full(24, 0.4))
    assert not tail.summable


def test_fit_tail_slow_power_not_summable():
    i = np.arange(1, 60, dtype=float)
    tail = fit_tail(1.0 / i ** 0.5)
    assert not tail.summable


def test_blowup_exponent():
    r = 2.0 ** -np.arange(2, 16, dtype=float)
    vals = 4.0 * r ** -1.25
    assert blowup_exponent(r, vals) == pytest.approx(1.25, abs=1e-10)


def test_blowup_exponent_ignores_a_constant_offset():
    # W = C + A r^-sigma: the offset bent the slope of log W itself
    r = 2.0 ** -np.arange(2, 16, dtype=float)
    vals = -4.0 + 0.7 * r ** -0.25
    assert blowup_exponent(r, vals) == pytest.approx(0.25, abs=1e-10)


def test_approach_path_geometric():
    path = ApproachPath.geometric(np.zeros(3), (1.0, 0.0, 0.0),
                                  r0=0.5, ratio=0.5, count=10)
    assert path.radii[0] == 0.5
    assert path.radii[-1] == pytest.approx(0.5 * 0.5 ** 9)
    pts = path.points()
    assert np.allclose(pts[0], [0.5, 0.0, 0.0])
    assert np.allclose(np.linalg.norm(pts, axis=1), path.radii)


def test_approach_path_normalizes_direction():
    path = ApproachPath.geometric(np.zeros(2), (3.0, 4.0),
                                  r0=1.0, ratio=0.5, count=8)
    assert np.allclose(np.linalg.norm(path.points(), axis=1), path.radii)
