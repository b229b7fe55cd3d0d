"""The tanh-sinh rule and the two ball-mass integrals built on it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potkit.integrate import (ball_mass_integral, power_integral,
                              profile_integral, tanh_sinh)
from potkit.measures import (AtomicMeasure, AtomPlusPowerProfile, Measure,
                             PowerLawProfile, RadialProfileMeasure,
                             SumMeasure, normalized_sphere_shell)
from potkit.riesz import RieszParams, riesz_potential
from potkit.wolff import WolffParams, wolff_potential


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


class _NoProfile(Measure):
    """An atomic measure that hides its closed profile, so every
    potential goes through the tanh-sinh rule."""

    def __init__(self, inner):
        self._inner = inner

    dim = property(lambda self: self._inner.dim)
    total_mass = property(lambda self: self._inner.total_mass)

    def ball_mass(self, x, t):
        return self._inner.ball_mass(x, t)

    def ball_mass_breakpoints(self, x):
        return self._inner.ball_mass_breakpoints(x)

    def atom_mass_at(self, x):
        return self._inner.atom_mass_at(x)


_ATOMS = AtomicMeasure([[0.0, 0.0, 0.0], [0.3, -0.1, 0.2]], [1.0, 0.5])


def test_an_atom_at_x_is_infinite_with_or_without_a_profile():
    centre = RadialProfileMeasure(np.zeros(3),
                                  AtomPlusPowerProfile(0.5, 1.0, 3.0, rmax=0.4))
    for mu in (centre, _ATOMS, _NoProfile(_ATOMS)):
        for p in (2.0, 2.5, 3.0):
            assert wolff_potential(mu, WolffParams(p, 0.8), np.zeros(3),
                                   t_min=0.0) == math.inf
        for params in (RieszParams(2.0), RieszParams(2.5),
                       RieszParams(3.0, domain_diameter=2.0)):
            assert riesz_potential(mu, params, np.zeros(3)) == math.inf
    # cut off above t = 0, the atom is finite again
    assert math.isfinite(wolff_potential(_NoProfile(_ATOMS),
                                         WolffParams(2.5, 0.8), np.zeros(3),
                                         t_min=0.1))


def test_the_rule_agrees_with_the_closed_profile_off_the_atoms():
    x = np.array([0.1, 0.2, -0.1])
    hidden = _NoProfile(_ATOMS)
    for p in (2.0, 2.5, 3.0):
        params = WolffParams(p, 0.8)
        assert wolff_potential(hidden, params, x) == pytest.approx(
            wolff_potential(_ATOMS, params, x), rel=1e-10)
    for params in (RieszParams(2.0), RieszParams(3.0, domain_diameter=2.0)):
        assert riesz_potential(hidden, params, x) == pytest.approx(
            riesz_potential(_ATOMS, params, x), rel=1e-10)


@pytest.mark.parametrize("s, d, scale", [(0.5, 1.5, 1.0), (1.0, 1.0, 1.0),
                                         (0.5, 1.0, 0.5), (0.0, 2.0, 1.0),
                                         (0.0, 1.0, 1.0)])
@pytest.mark.parametrize("lo", [0.0, 0.05])
def test_profile_and_rule_forms_agree(s, d, scale, lo):
    # a power law below a shell, seen from the centre: several terms on
    # the first interval, a constant beyond the shell
    mu = SumMeasure([
        RadialProfileMeasure(np.zeros(3), PowerLawProfile(1.0, 2.0, rmax=0.3)),
        normalized_sphere_shell(np.zeros(3), 0.5, 0.7)])
    x = np.zeros(3)
    closed = profile_integral(mu.radial_mass_profile(x), s, d, lo, 0.9, scale)
    rule = ball_mass_integral(mu, x, s, d, lo, 0.9, scale)
    assert closed == pytest.approx(rule, rel=1e-10)


_NEWTON_CASES = {
    "atomic": (AtomicMeasure([[0.1, 0.0, 0.0], [-0.2, 0.1, 0.3]], [1.0, 0.7]),
               [0.0, 0.05, -0.1]),
    "radial at its centre": (RadialProfileMeasure(
        np.zeros(3), PowerLawProfile(1.0, 3.0, rmax=0.4)), [0.0, 0.0, 0.0]),
    "radial off its centre": (RadialProfileMeasure(
        np.zeros(3), AtomPlusPowerProfile(0.5, 1.0, 3.0, rmax=0.4)),
        [0.15, 0.1, 0.0]),
    "sphere shell": (normalized_sphere_shell(np.zeros(3), 0.3, 1.5),
                     [0.1, 0.05, 0.0]),
}


@pytest.mark.parametrize("case", sorted(_NEWTON_CASES))
def test_newtonian_riesz_is_wolff_at_p_2_plus_the_outer_mass(case):
    # at p = alpha = 2 both integrate M(t) t^(1-n); with B(x, r) covering
    # the support, R(x) = (n-2) W(x, r) + mu(R^n) r^(2-n)
    mu, x = _NEWTON_CASES[case]
    n, r = 3, 2.0
    want = ((n - 2) * wolff_potential(mu, WolffParams(2.0, r), x)
            + mu.total_mass * r ** (2 - n))
    assert riesz_potential(mu, RieszParams(2.0), x) == pytest.approx(
        want, rel=1e-13)


def _power_integral_sum(prof, s, d, lo, hi, scale):
    """A step profile's integral term by term through ``power_integral``,
    on the intervals that carry mass, as the general form takes it."""
    bp = prof.breakpoints
    a = np.maximum(bp, lo)
    b = np.minimum(np.append(bp[1:], math.inf), hi)
    live = b > a
    a, b, c = a[live], b[live], prof.constant[live]
    value = np.zeros(a.size)
    on = c != 0.0
    value[on] = power_integral(scale * c[on] ** (1.0 / d),
                               np.full(on.sum(), -s / d), a[on], b[on])
    return float(value.sum())


@pytest.mark.parametrize("s, d, scale", [(0.5, 1.5, 1.0), (1.0, 1.0, 1.0),
                                         (1.5, 1.0, 1.5), (0.0, 2.0, 1.0),
                                         (0.0, 1.0, 1.0), (1.0, 0.5, 1.0)])
def test_step_profiles_integrate_term_by_term(s, d, scale):
    # atomic profiles take the closed form of each constant directly,
    # with the float operations of the general form, bit for bit
    rng = np.random.default_rng(41)
    mu = AtomicMeasure(rng.uniform(-0.5, 0.5, (200, 3)),
                       rng.uniform(0.0, 1.0, 200))
    for x in rng.uniform(-0.6, 0.6, (10, 3)):
        prof = mu.radial_mass_profile(x)
        for lo, hi in ((0.0, 0.4), (0.05, 0.4), (0.0, 2.0)):
            assert profile_integral(prof, s, d, lo, hi, scale) == \
                _power_integral_sum(prof, s, d, lo, hi, scale)
    on_atom = mu.radial_mass_profile(mu.locations[0])
    assert profile_integral(on_atom, s, d, 0.0, 0.4, scale) == math.inf
    assert profile_integral(on_atom, s, d, 0.01, 0.4, scale) == \
        _power_integral_sum(on_atom, s, d, 0.01, 0.4, scale)


@st.composite
def _step_cases(draw):
    """A step profile of random or lattice atoms seen from a random
    point, a lattice node (tied distances) or an atom, and (lo, hi)
    drawn from its breakpoints: on one, one ulp either side of one, below
    the first positive one and beyond the last."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):
        locs = rng.uniform(-0.5, 0.5, (count, 3))
    else:  # cell centres of a 4^3 lattice of pitch 1/4
        cells = rng.choice(64, count, replace=False)
        locs = (np.stack(np.unravel_index(cells, (4, 4, 4)), axis=1)
                - 1.5) / 4.0
    mu = AtomicMeasure(locs, rng.uniform(0.1, 1.0, count))
    at = draw(st.sampled_from(["off", "node", "atom"]))
    x = {"off": rng.uniform(-0.6, 0.6, 3), "node": np.zeros(3),
         "atom": locs[0]}[at]
    bp = mu.radial_mass_profile(x).breakpoints
    k = st.integers(0, bp.size - 1)
    ends = st.one_of(
        k.map(lambda i: bp[i]),
        st.tuples(k, st.sampled_from([-math.inf, math.inf])).map(
            lambda i: float(np.nextafter(bp[i[0]], i[1]))),
        st.floats(0.0, 0.999).map(lambda f: f * bp[min(1, bp.size - 1)]),
        st.floats(1.001, 3.0).map(lambda f: f * bp[-1]))
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2)))
    lo = max(lo, 0.0)  # one ulp below the breakpoint 0
    if at == "atom" and lo == 0.0:
        lo = bp[1] if bp.size > 1 and bp[1] < hi else 0.5 * hi
    return mu.radial_mass_profile(x), lo, hi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_step_cases(), s=st.sampled_from([0.5, 1.0, 2.0]),
       d=st.sampled_from([0.5, 1.0, 2.0]), scale=st.sampled_from([1.0, 1.5]))
def test_step_profile_integral_is_the_term_by_term_sum(case, s, d, scale):
    # the two searched ends of the live run and one power per end give
    # power_integral's terms bit for bit, s = d (an exponent of -1)
    # included; on an atom, t_min > 0
    prof, lo, hi = case
    if hi <= lo:
        assert profile_integral(prof, s, d, lo, hi, scale) == 0.0
        return
    assert profile_integral(prof, s, d, lo, hi, scale) == \
        _power_integral_sum(prof, s, d, lo, hi, scale)
