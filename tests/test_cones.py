"""Critical exponents of the eigenvalue cones against their closed
forms, and the singular profile the fully nonlinear bridge selects."""

import numpy as np
import pytest

from potkit.cones import Cone, fully_nonlinear_bridge, p_gamma
from potkit.errors import HypothesisViolation


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.5])
def test_p_gamma_of_a_cone(n, p):
    # the ray (-a, 1, ..., 1) leaves A(p) at a = (n-1)/(p-1) for p >= 2
    # and at a = n + p - 3 for p < 2
    want = p if p >= 2.0 else 1.0 + (n - 1) / (n + p - 3)
    assert p_gamma(Cone.a(p), n) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
def test_p_gamma_of_r_cone(n):
    for r in range(1, n // 2 + 1):
        want = 1.0 + (n - 1) / (2 * r - 1)
        assert p_gamma(Cone.r(r), n) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", range(3, 9))
def test_p_gamma_of_gamma_cone(n):
    # sigma_k(-a, 1, ..., 1) vanishes first at a = (n-k)/k
    for k in range(1, n):
        want = n * (k - 1) / (n - k) + 2.0
        assert p_gamma(Cone.gamma(k), n) == pytest.approx(want, rel=1e-9)


def test_bridge_selects_log_and_power_profiles():
    hess = -np.ones((3, 4))
    log = fully_nonlinear_bridge(hess, Cone.gamma(2))
    assert log.p_index == pytest.approx(4.0, rel=1e-9)
    assert (log.profile, log.exponent) == ("log", None)
    power = fully_nonlinear_bridge(hess, Cone.gamma(1))
    assert power.profile == "power"
    assert power.exponent == pytest.approx(-2.0, rel=1e-9)
    assert power.passed and power.checked == 3


def test_bridge_reports_positive_hessian_eigenvalues():
    hess = np.array([[-1.0, -1.0, -1.0], [1.0, 2.0, 0.5], [-2.0, -1.0, -3.0]])
    rep = fully_nonlinear_bridge(hess, Cone.gamma(1))
    assert not rep.passed
    assert rep.violations == ((1.0, 2.0, 0.5),)


def test_non_symmetric_custom_cone_is_rejected():
    with pytest.raises(HypothesisViolation):
        p_gamma(Cone.custom(lambda v: v[0] + 0.5 * v[1], 1.0), 4)
