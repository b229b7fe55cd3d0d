"""Limit extrapolation and tail classification on synthetic data."""

import numpy as np
import pytest

from potkit.fitting import (
    MIN_PATH_SAMPLES,
    ApproachPath,
    blowup_exponent,
    fit_limit,
    fit_log_limit,
    fit_tail,
    growth_constant,
    loglog_slope,
    singular_limit,
)
from potkit.geometry import kappa_exponent
from potkit.measures import AtomicMeasure, PowerLawProfile, RadialProfileMeasure
from potkit.plaplace import FundamentalSolution, super_asymptotic_report
from potkit.riesz import (SLOPE_TOLERANCE, RieszParams,
                          riesz_asymptotic_report, riesz_decay_check)
from potkit.wolff import WolffParams, wolff_asymptotic_report, wolff_decay_check


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


@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_singular_limit_rejects_non_finite_values(kappa, bad):
    r = 2.0 ** -np.arange(1, 11, dtype=float)
    v = 1.0 + r
    v[3] = bad
    with pytest.raises(ValueError, match="infinite"):
        singular_limit(r, v, kappa)


def test_singular_limit_needs_radii_below_1_only_at_kappa_0():
    r = 2.0 ** -np.arange(0, 10, dtype=float)
    with pytest.raises(ValueError, match="below 1"):
        singular_limit(r, 1.0 + r, 0.0)
    rep = singular_limit(r, r ** -0.5 * (1.0 + r), 0.5)
    assert rep.limit == pytest.approx(1.0, rel=1e-10)


def _atom_reports():
    """(report, kappa) of each limit report on a pure atom at the origin,
    at a subcritical and at the critical exponent."""
    x0 = np.zeros(3)
    path = ApproachPath.geometric(x0, [0.0, 0.6, 0.8], r0=0.3, ratio=0.6,
                                  count=16)
    atom = AtomicMeasure([x0], [2.0])
    for p in (2.5, 3.0):
        yield (wolff_asymptotic_report(atom, WolffParams(p, 1.0), x0, path),
               kappa_exponent(3, p))
        u = FundamentalSolution(3, p, m=2.0)
        yield super_asymptotic_report(u, p, x0, path), u.kappa
    for alpha in (2.0, 3.0):
        params = RieszParams(alpha, domain_diameter=4.0)
        yield riesz_asymptotic_report(atom, params, x0, path), 3 - alpha


def test_every_report_scales_its_raw_values_by_one_rule():
    reports = list(_atom_reports())
    assert sorted(kappa for _, kappa in reports) == [0.0] * 3 + [
        kappa_exponent(3, 2.5)] * 2 + [1.0]
    for rep, kappa in reports:
        r, raw = rep.radii, rep.extras["raw"]
        want = raw / np.log(1.0 / r) if kappa == 0.0 else r ** kappa * raw
        assert np.array_equal(rep.values, want)


def _decay_path():
    return ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=12)


@pytest.mark.parametrize("check, m", [("wolff", 0.5), ("riesz", 0.3),
                                      ("riesz", 0.5)])
def test_growth_constant_matches_both_decay_checks_old_formulas(check, m):
    # the power-growth measures the decay-check tests pass on
    mu = RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, m, 1.0))
    if check == "wolff":
        scales = 1.0 * 2.0 ** -np.arange(0, 16)
        rep = wolff_decay_check(mu, WolffParams(2.2, 1.0), np.zeros(3), m,
                                0.05, _decay_path())
        masses = mu.ball_mass(np.zeros(3), scales)
        old = float(np.max(masses / scales ** m))
    else:
        scales = _decay_path().radii
        rep = riesz_decay_check(mu, RieszParams(2.0), np.zeros(3), m,
                                _decay_path())
        masses = mu.ball_mass(np.zeros(3), scales)
        old = float(np.max(np.where(scales > 0, masses / scales ** m, 0.0)))
    assert growth_constant(scales, masses, m, 0.0) == old
    assert rep.hypothesis_constant == old


def _on_a_path():
    """Each report and decay check, as a function of its path to 0."""
    x0 = np.zeros(3)
    mu = RadialProfileMeasure(x0, PowerLawProfile(1.0, 0.5, 1.0))
    return {
        "wolff-report": lambda path: wolff_asymptotic_report(
            mu, WolffParams(2.5, 1.0), x0, path),
        "riesz-report": lambda path: riesz_asymptotic_report(
            mu, RieszParams(2.0), x0, path),
        "wolff-decay": lambda path: wolff_decay_check(
            mu, WolffParams(2.2, 1.0), x0, 0.5, 0.05, path),
        "riesz-decay": lambda path: riesz_decay_check(
            mu, RieszParams(2.0), x0, 0.5, path),
        "super-report": lambda path: super_asymptotic_report(
            FundamentalSolution(3, 2.5), 2.5, x0, path),
    }


@pytest.mark.parametrize("name", ["wolff-report", "riesz-report",
                                  "wolff-decay", "riesz-decay"])
def test_reports_and_decay_checks_need_the_same_path_length(name):
    call = _on_a_path()[name]
    for count in (MIN_PATH_SAMPLES - 1, MIN_PATH_SAMPLES):
        path = ApproachPath.geometric(np.zeros(3), [1.0, 0.0, 0.0],
                                      r0=0.25, ratio=0.5, count=count)
        if count < MIN_PATH_SAMPLES:
            with pytest.raises(ValueError, match="path too short"):
                call(path)
        else:
            call(path)


@pytest.mark.parametrize("name", ["wolff-report", "riesz-report",
                                  "wolff-decay", "riesz-decay",
                                  "super-report"])
def test_reports_and_decay_checks_need_a_path_anchored_at_x0(name):
    path = ApproachPath.geometric([0.1, 0.0, 0.0], [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=12)
    with pytest.raises(ValueError, match="anchored at x0"):
        _on_a_path()[name](path)


def test_decay_reports_record_their_slack():
    calls = _on_a_path()
    wolff = calls["wolff-decay"](_decay_path())
    riesz = calls["riesz-decay"](_decay_path())
    assert (wolff.slack, riesz.slack) == (0.0, SLOPE_TOLERANCE)
    assert riesz.passed == (riesz.measured_exponent
                            <= riesz.bound_exponent + SLOPE_TOLERANCE)
    assert set(riesz.extras) == {"d"}
