"""The tanh-sinh rule and the two ball-mass integrals built on it."""

import math

import numpy as np
import pytest

from potkit.integrate import power_integral, tanh_sinh


def _power(k):
    return lambda s, _: s ** k


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("lo, hi", [(0.0, 0.7), (0.2, 0.7), (0.3, 30.0)])
def test_powers_in_both_branches(k, lo, hi):
    # lo = 0 runs the rule in s; lo > 0 in log s, parted by half decades
    got = tanh_sinh(_power(k), np.array([lo]), np.array([hi]))
    want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_interval_spanning_many_decades():
    # 1/t over twelve decades is 12 log 10, and s^(-1/2) from 1e-12
    lo, hi = np.array([1e-10, 1e-12]), np.array([100.0, 1.0])
    got = tanh_sinh(lambda s, k: np.where(k[:, None] == 0, 1.0 / s,
                                          s ** -0.5), lo, hi)
    assert got[0] == pytest.approx(12.0 * math.log(10.0), rel=1e-13, abs=0.0)
    assert got[1] == pytest.approx(2.0 * (1.0 - 1e-6), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("beta, tol", [(-0.5, 5e-8), (-0.25, 5e-12),
                                       (0.5, 1e-14)])
def test_algebraic_endpoint_singularities(beta, tol):
    # s^beta at the left end and (1 - s)^beta at the right end of (0, 1);
    # the rule stops at |u| = 3, which loses about 3e-16^(beta + 1) of a
    # singular integral
    want = 1.0 / (beta + 1.0)
    lo, hi = np.array([0.0]), np.array([1.0])
    left = tanh_sinh(lambda s, _: s ** beta, lo, hi)[0]
    right = tanh_sinh(lambda s, _: (1.0 - s) ** beta, lo, hi)[0]
    assert left == pytest.approx(want, rel=tol, abs=0.0)
    assert right == pytest.approx(want, rel=tol, abs=0.0)


def test_several_intervals_in_one_call():
    # each row knows its interval: integrate (k + 1) s^k on interval k
    lo = np.array([0.0, 0.5, 1.0, 1e-3])
    hi = np.array([1.0, 2.0, 5e3, 0.25])
    got = tanh_sinh(lambda s, k: (k[:, None] + 1.0) * s ** k[:, None],
                    lo, hi)
    k = np.arange(4)
    want = hi ** (k + 1) - lo ** (k + 1)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_power_integral_closed_forms():
    coef = np.array([2.0, 3.0, 1.5, 0.5])
    e = np.array([1.0, 0.0, -1.0, 2.5])
    a = np.array([0.0, 0.5, 0.25, 0.0])
    b = np.array([2.0, 4.0, 1.0, 1.0])
    want = [2.0 * 2.0, 3.0 * math.log(8.0), 1.5 * (1.0 - 4.0) / -1.0,
            0.5 / 2.5]
    np.testing.assert_allclose(power_integral(coef, e, a, b), want,
                               rtol=1e-15, atol=0.0)


def test_power_integral_diverges_from_zero():
    # t^(e-1) with e <= 0 is not integrable at 0, at e = 0 (log) too
    coef = np.array([1.0, 2.0, 0.3])
    e = np.array([0.0, -0.5, -2.0])
    a = np.zeros(3)
    b = np.ones(3)
    assert np.all(power_integral(coef, e, a, b) == math.inf)


def test_power_integral_zero_coefficient_adds_nothing():
    # a zero term is 0 even where its power would diverge: never 0 * inf
    coef = np.array([0.0, 0.0, 0.0, 1.0])
    e = np.array([-1.0, 0.0, 2.0, 1.0])
    a = np.array([0.0, 0.0, 0.5, 0.0])
    b = np.ones(4)
    np.testing.assert_array_equal(power_integral(coef, e, a, b),
                                  [0.0, 0.0, 0.0, 1.0])
