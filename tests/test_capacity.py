"""Closed-form capacity of the spherical condenser, the exact scaling of
the discrete p- and Riesz capacities, and the Riesz equilibrium solve."""

import functools
import math
import time

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls

from potkit import capacity
from potkit.capacity import (BallDomain, BoxDomain, ShellDomain,
                             _equilibrium, _riesz_kernel_matrix, _sample,
                             annulus_term, condenser_capacity, p_capacity,
                             riesz_capacity)
from potkit.errors import HypothesisViolation, ResolutionError
from potkit.penergy import (PEnergyProblem, minimize_p_energy,
                            scatter_cells_to_nodes)
from potkit.riesz import _ball_average, _kernel
from potkit.sets import BallUnion, BoxUnion, PointList, Sphere, segment_set

LAMBDAS = (0.25, 0.5, 2.0)


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


# x -> lam x maps the pitch-h grid of (K, Omega) onto the pitch-lam h
# grid of (lam K, lam Omega), and both discrete capacities scale exactly
@pytest.mark.parametrize("K, omega, p, h", [
    (BallUnion([[0.0, 0.0]], [0.3]), BallDomain((0.0, 0.0), 1.0), 1.5, 1 / 8),
    (BallUnion([[0.0, 0.0]], [0.3]), BallDomain((0.0, 0.0), 1.0), 2.0, 1 / 8),
    (BoxUnion([[-0.25, -0.2]], [[0.25, 0.2]]),
     BoxDomain((-1.0, -1.0), (1.0, 1.0)), 2.5, 1 / 16),
    (BallUnion([[0.0, 0.0, 0.0]], [0.3]), BallDomain((0.0, 0.0, 0.0), 1.0),
     2.5, 1 / 8),
])
def test_p_capacity_scales_by_lambda_to_n_minus_p(K, omega, p, h):
    base = p_capacity(K, omega, p, h).value
    for lam in LAMBDAS:
        got = p_capacity(K.scaled(lam), omega.scaled(lam), p, lam * h).value
        assert got == pytest.approx(lam ** (K.dim - p) * base, rel=1e-9)


def _unfolded_capacity(K, omega, p, h):
    """The whole grid's minimum energy, Newton-polished, without a fold."""
    grid = omega.grid(h)
    ones = scatter_cells_to_nodes(K.meets_cells(grid).astype(float), grid) > 0
    problem = PEnergyProblem(grid, p, omega.zero_mask(grid) | ones,
                             np.where(ones, 1.0, 0.0), coef=1.0)
    return minimize_p_energy(problem, polish="newton")[1].energy


# a ball on e_1 in a shell folds y and z; in a box the fold keeps the
# symmetry plane free, since only the outer faces are pinned
@pytest.mark.parametrize("K, omega, p, h, axes", [
    (BallUnion([[1.0, 0.0, 0.0]], [0.25]), ShellDomain((0.0,) * 3, 0.5, 2.0),
     2.5, 1 / 4, 2),
    (BallUnion([[0.3, 0.0]], [0.25]), BoxDomain((-1.0, -1.0), (1.0, 1.0)),
     1.5, 1 / 16, 1),
    (BallUnion([[0.3, 0.2]], [0.25]), BallDomain((0.0, 0.0), 1.0), 2.0,
     1 / 16, 0),
    (BallUnion([np.zeros(3)], [0.25]), BallDomain((0.0,) * 3, 1.0), 2.5,
     1 / 8, 3),
], ids=["shell-e1", "box-partial", "asymmetric", "condenser"])
def test_folded_capacity_equals_unfolded(monkeypatch, K, omega, p, h, axes):
    monkeypatch.setattr(capacity, "minimize_p_energy",
                        functools.partial(minimize_p_energy, polish="newton"))
    est = p_capacity(K, omega, p, h)
    assert est.extras["folded"] == axes
    assert est.value == pytest.approx(_unfolded_capacity(K, omega, p, h),
                                      rel=1e-12)


def test_fold_center_is_a_checked_claim():
    ball = BallDomain((0.0,) * 3, 1.0)
    off = BallUnion([[0.3, 0.0, 0.0]], [0.2])
    # folding x as well gave 9.766 here, against 5.939 unfolded
    with pytest.raises(HypothesisViolation):
        p_capacity(off, ball, 2.5, 1 / 16, fold_center=np.zeros(3))
    centred = BallUnion([np.zeros(3)], [0.25])
    with pytest.raises(HypothesisViolation):
        p_capacity(centred, ball, 2.5, 1 / 8, fold_center=[0.25, 0.0, 0.0])
    claimed = p_capacity(centred, ball, 2.5, 1 / 8, fold_center=np.zeros(3))
    assert claimed.value == p_capacity(centred, ball, 2.5, 1 / 8).value


@pytest.mark.parametrize("K, alpha, h", [
    (Sphere(np.zeros(3), 0.5), 1.5, 1 / 8),
    (segment_set([-0.3, 0.1], [0.3, 0.1]), 1.5, 1 / 32),
    # alpha = n: the capacity does not change under scaling
    (Sphere(np.zeros(2), 0.4), 2.0, 1 / 32),
])
def test_riesz_capacity_scales_by_lambda_to_n_minus_alpha(K, alpha, h):
    n = K.dim
    omega = BoxDomain((-1.0,) * n, (1.0,) * n)
    base = riesz_capacity(K, omega, alpha, h)
    for lam in LAMBDAS:
        got = riesz_capacity(K.scaled(lam), omega.scaled(lam), alpha, lam * h)
        factor = lam ** (n - alpha)
        assert got.value == pytest.approx(factor * base.value, rel=1e-9)
        assert got.lower == pytest.approx(factor * base.lower, rel=1e-9)


def _broadcast_kernel_matrix(x, y, alpha, n, diam, r_moll):
    """The kernel matrix through the (len(x), len(y), n) difference
    array."""
    d = np.sqrt(np.maximum(
        ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2), 0.0))
    k = _kernel(np.maximum(d, r_moll), alpha, n, diam)
    return np.where(d < r_moll, _ball_average(r_moll, alpha, n, diam), k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_riesz_kernel_matrix_equals_broadcast_form(n):
    # equal to the bit at alpha < n and alpha = n, with pairs closer than
    # the mollifier radius and coincident points
    rng = np.random.default_rng(20 + n)
    x = rng.uniform(-0.5, 0.5, size=(60, n))
    y = np.concatenate([x[:7], x[7:20] + 0.01 * rng.normal(size=(13, n)),
                        rng.uniform(-0.5, 0.5, size=(25, n))])
    r_moll = 0.05
    d = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    assert np.any(d == 0.0) and np.any((d > 0.0) & (d < r_moll))
    for alpha in (1.5, n - 0.25, float(n)):
        got = _riesz_kernel_matrix(x, y, alpha, n, 2.0, r_moll)
        assert np.array_equal(
            got, _broadcast_kernel_matrix(x, y, alpha, n, 2.0, r_moll))


def _site_kernel(E, alpha, h):
    """The kernel matrix of riesz_capacity's sites for E in [-1, 1]^n."""
    sites = _sample(E, h, capacity._SITE_CAP)
    return _riesz_kernel_matrix(sites, sites, alpha, E.dim,
                                2.0 * math.sqrt(E.dim), 0.5 * h)


def _gram(seed, size):
    a = np.random.default_rng(seed).normal(size=(size, size))
    return a @ a.T + 0.01 * np.eye(size)


# the sphere charges every site, the solid ball and the disk (alpha = n)
# only their rims; the random Gram matrices reach the single-swap rule
@pytest.mark.parametrize("K", [
    _site_kernel(Sphere(np.zeros(3), 0.5), 1.5, 1 / 8),
    _site_kernel(BallUnion([np.zeros(3)], [0.3]), 2.0, 0.1),
    _site_kernel(BallUnion([np.zeros(2)], [0.5]), 2.0, 1 / 32),
    _gram(229, 23), _gram(362, 30), _gram(643, 22),
], ids=["sphere", "solid-ball", "disk-alpha-n", "gram-229", "gram-362",
        "gram-643"])
def test_equilibrium_is_the_nonnegative_least_squares_minimizer(K):
    # with K = L L', 1/2 m'Km - sum(m) = 1/2 |L'm - L^-1 1|^2 + const
    L = cholesky(K, lower=True)
    want, _ = nnls(L.T, solve_triangular(L, np.ones(len(K)), lower=True))
    m, _ = _equilibrium(K)
    pot = K @ m
    assert np.all(m >= 0.0)
    assert np.max(np.abs(pot[m > 0] - 1.0)) <= 1e-12
    assert np.all(pot >= 1.0 - 1e-12)
    assert np.max(np.abs(m - want)) <= 1e-10 * np.max(want)


def test_sphere_equilibrium_charges_every_site_in_one_pivot():
    m, pivots = _equilibrium(_site_kernel(Sphere(np.zeros(3), 0.5), 1.5,
                                          1 / 8))
    assert pivots == 1 and np.all(m > 0.0)


def test_solid_ball_riesz_capacity_is_the_same_at_any_centre():
    omega = BoxDomain((-1.0,) * 3, (1.0,) * 3)
    got = [riesz_capacity(BallUnion([c], [0.3]), omega, 2.0, 0.1)
           for c in ([0.0, 0.0, 0.0], [0.1, -0.2, 0.13])]
    assert got[0].value == pytest.approx(0.306049, abs=5e-7)
    assert got[1].value == pytest.approx(got[0].value, rel=1e-12)
    assert got[0].iterations == 3
    # the continuum value is the radius, 0.3
    assert got[0].lower <= 0.3 <= got[0].upper


def test_capped_sample_is_the_set_sampled_at_a_coarser_pitch():
    sphere = Sphere(np.zeros(3), 0.5)
    pitch = 1.0 / 64.0
    assert len(sphere.sample_points(pitch)) > capacity._SITE_CAP
    while len(sphere.sample_points(pitch)) > capacity._SITE_CAP:
        pitch *= capacity._PITCH_GROWTH
    got = _sample(sphere, 1.0 / 64.0, capacity._SITE_CAP)
    assert np.array_equal(got, sphere.sample_points(pitch))


def test_point_list_above_the_site_cap_raises_at_once():
    pts = np.random.default_rng(4).uniform(-0.5, 0.5,
                                           (capacity._SITE_CAP + 1, 3))
    start = time.perf_counter()
    with pytest.raises(ResolutionError):
        riesz_capacity(PointList(pts), BoxDomain((-1.0,) * 3, (1.0,) * 3),
                       1.5, 1 / 32)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("lam", [0.25, 4.0])
def test_riesz_annulus_quotient_is_scale_free(lam):
    E = BallUnion([[0.85, 0.1, 0.0]], [0.2])
    x0 = np.array([0.1, 0.0, 0.0])
    num, den = annulus_term(E, x0, 1, mode="riesz", index=1.5)
    got_num, got_den = annulus_term(E.scaled(lam), lam * x0, 1,
                                    mode="riesz", index=1.5, delta=lam)
    assert num > 0.0
    assert got_num / got_den == pytest.approx(num / den, rel=1e-9)
