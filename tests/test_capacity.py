"""Closed-form capacity of the spherical condenser."""

import math

import pytest

from potkit.capacity import condenser_capacity


@pytest.mark.parametrize("r, R", [(0.25, 1.0), (0.5, 0.75), (1.0, 10.0)])
def test_condenser_newtonian_capacity_in_3d(r, R):
    want = 4.0 * math.pi / (1.0 / r - 1.0 / R)
    assert condenser_capacity(r, R, 3, 2.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("r, R", [(0.25, 1.0), (0.5, 0.75), (1.0, 10.0)])
def test_condenser_capacity_at_p_equal_n(r, R):
    want = 4.0 * math.pi * math.log(R / r) ** (1 - 3)
    assert condenser_capacity(r, R, 3, 3.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n, p", [(2, 1.5), (3, 2.0), (3, 2.5), (3, 3.0),
                                  (4, 2.2)])
def test_condenser_capacity_scales_by_lambda_to_n_minus_p(n, p):
    r, R = 0.3, 0.8
    for lam in (0.125, 3.0, 40.0):
        scaled = condenser_capacity(lam * r, lam * R, n, p)
        want = lam ** (n - p) * condenser_capacity(r, R, n, p)
        assert scaled == pytest.approx(want, rel=1e-12)
