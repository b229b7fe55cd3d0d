"""Closed-form capacity of the spherical condenser, the exact scaling of
the discrete p- and Riesz capacities, and the Riesz equilibrium solve."""

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.optimize import nnls
from scipy.spatial import cKDTree

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


@pytest.mark.parametrize("p", [1.0, math.nan])
def test_a_p_capacity_with_p_not_above_1_names_p(p):
    with pytest.raises(HypothesisViolation, match="p must exceed 1"):
        p_capacity(BallUnion([np.zeros(3)], [0.25]),
                   BallDomain((0.0,) * 3, 1.0), p, 1 / 8)


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
        assert got.lower is None and got.upper is None


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
    sites, _ = _sample(E, h, capacity._SITE_CAP)
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
    m, _, _ = _equilibrium(K)
    pot = K @ m
    assert np.all(m >= 0.0)
    assert np.max(np.abs(pot[m > 0] - 1.0)) <= 1e-12
    assert np.all(pot >= 1.0 - 1e-12)
    assert np.max(np.abs(m - want)) <= 1e-10 * np.max(want)


def test_sphere_equilibrium_charges_every_site_in_one_pivot():
    m, _, pivots = _equilibrium(_site_kernel(Sphere(np.zeros(3), 0.5), 1.5,
                                             1 / 8))
    assert pivots == 1 and np.all(m > 0.0)


def _copying_equilibrium(K):
    """``_equilibrium`` with every pivot factoring a copy of its block,
    the reference for the in-place first pivot."""
    charged = np.ones(len(K), dtype=bool)
    fewest, backup = len(K) + 1, 3
    for pivot in range(1, len(K) + 1):
        c = np.flatnonzero(charged)
        m = np.zeros(len(K))
        m[c] = cho_solve(cho_factor(K[np.ix_(c, c)].T, overwrite_a=True),
                         np.ones(c.size))
        Km = K @ m
        bad = np.flatnonzero(np.where(charged, m < 0.0, Km < 1.0))
        if bad.size == 0:
            return m, Km, pivot
        backup = 3 if bad.size < fewest else backup - 1
        fewest = min(fewest, bad.size)
        if backup < 0:
            bad = bad[-1:]
        charged[bad] = ~charged[bad]
    raise AssertionError("no equilibrium")


@pytest.mark.parametrize("E, alpha, h, sites, pivots", [
    (Sphere(np.zeros(3), 0.5), 1.5, 1 / 16, 805, 1),
    (BallUnion([np.zeros(3)], [0.3]), 2.0, 0.1, 136, 3),
], ids=["sphere", "solid-ball"])
def test_equilibrium_in_place_is_the_copying_solve_bit_for_bit(
        E, alpha, h, sites, pivots):
    K = _site_kernel(E, alpha, h)
    assert len(K) == sites
    saved = K.copy()
    m, Km, got = _equilibrium(K)
    assert np.array_equal(K, saved)
    want = _copying_equilibrium(saved)
    assert got == want[2] == pivots
    assert np.array_equal(m, want[0]) and np.array_equal(Km, want[1])
    assert np.array_equal(Km, K @ m)


def test_equilibrium_holds_no_second_kernel_matrix():
    # the first pivot charges all 805 sites and factors K inside K
    K = _site_kernel(Sphere(np.zeros(3), 0.5), 1.5, 1 / 16)
    tracemalloc.start()
    try:
        _, _, pivots = _equilibrium(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pivots == 1
    assert peak < 0.05 * K.nbytes


def test_equilibrium_leaves_k_unchanged_when_it_is_not_positive_definite():
    K = _site_kernel(Sphere(np.zeros(3), 0.5), 1.5, 1 / 8)
    K[100, 100] = -K[100, 100]
    saved = K.copy()
    with pytest.raises(ResolutionError, match="not positive definite"):
        _equilibrium(K)
    assert np.array_equal(K, saved)


# two balls sampled on lattices of their own share sites up to about
# 6e-17, whose kernel rows agree to round-off, so K is singular
@pytest.mark.parametrize("E", [
    BallUnion([[0.0, 0.0], [0.45, 0.0]], [0.3, 0.2]),
    BallUnion([[0.0, 0.0, 0.0], [0.45, 0.0, 0.0]], [0.3, 0.2]),
], ids=["2d", "3d"])
def test_riesz_capacity_of_two_overlapping_balls(E):
    omega = BoxDomain((-1.0,) * E.dim, (1.0,) * E.dim)
    est = riesz_capacity(E, omega, 1.5, 0.05)
    assert math.isfinite(est.value) and est.value > 0.0
    assert est.lower is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), pitch=st.sampled_from([0.2, 0.1, 0.05]),
       balls=st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                                st.floats(-0.3, 0.3), st.floats(0.005, 0.3)),
                      min_size=2, max_size=4))
def test_union_sites_are_more_than_half_a_pitch_apart(n, pitch, balls):
    b = np.array(balls)
    E = BallUnion(b[:, :n], b[:, 3])
    pts = E.sample_points(pitch)
    assert E.contains(pts).all()
    assert not cKDTree(pts).query_pairs(pitch / 2.0)
    # every ball has a site in it or within half a pitch of its centre
    for c, r in zip(E.centers, E.radii):
        d = np.sqrt(((pts - c) ** 2).sum(axis=1))
        assert np.any(d <= r) or d.min() <= pitch / 2.0


# two boxes sampled on lattices of their own put sites 0.03 apart, closer
# than the mollification radius h/2
@pytest.mark.parametrize("h", [0.1, 0.05])
def test_riesz_capacity_of_two_boxes(h):
    E = BoxUnion([[0.0, 0.0], [0.03, 0.0]], [[0.5, 0.5], [0.53, 0.5]])
    est = riesz_capacity(E, BoxDomain((-1.0, -1.0), (1.0, 1.0)), 1.5, h)
    assert math.isfinite(est.value) and est.value > 0.0
    assert est.lower is None


@pytest.mark.parametrize("h", [0.0, -0.3, math.nan])
def test_riesz_capacity_rejects_a_pitch_that_is_not_positive(h):
    with pytest.raises(ValueError, match="pitch h must be positive"):
        riesz_capacity(Sphere(np.zeros(3), 0.5),
                       BoxDomain((-1.0,) * 3, (1.0,) * 3), 1.5, h)


# a point list is the caller's own sample and is kept as given: a pitch
# that cannot separate two of its points is a resolution error
def test_point_list_closer_than_the_pitch_is_a_resolution_error():
    E = PointList([[0.0, 0.0], [0.01, 0.0]])
    with pytest.raises(ResolutionError) as info:
        riesz_capacity(E, BoxDomain((-1.0, -1.0), (1.0, 1.0)), 1.5, 0.1)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), pitch=st.sampled_from([0.2, 0.1, 0.05]),
       boxes=st.lists(st.tuples(
           st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
                    min_size=3, max_size=3)), min_size=2, max_size=4))
def test_box_union_sites_are_more_than_half_a_pitch_apart(n, pitch, boxes):
    los = np.array([lo for lo, _ in boxes])[:, :n]
    E = BoxUnion(los, los + np.array([ext for _, ext in boxes])[:, :n])
    pts = E.sample_points(pitch)
    assert E.contains(pts).all()
    assert not cKDTree(pts).query_pairs(pitch / 2.0)
    # every box has a site in it, or each point of its own lattice lies
    # within half a pitch of a site
    for lo, hi in zip(E.los, E.his):
        box = BoxUnion(lo[None, :], hi[None, :])
        if not box.contains(pts).any():
            own = box.sample_points(pitch)
            assert cKDTree(pts).query(own)[0].max() <= pitch / 2.0


def test_solid_ball_riesz_capacity_is_the_same_at_any_centre():
    omega = BoxDomain((-1.0,) * 3, (1.0,) * 3)
    got = [riesz_capacity(BallUnion([c], [0.3]), omega, 2.0, 0.1)
           for c in ([0.0, 0.0, 0.0], [0.1, -0.2, 0.13])]
    # the continuum value is the radius, 0.3; the site equilibrium's mass
    # lies 3.5% below it, and no bound is claimed
    assert got[0].value == pytest.approx(0.289446, abs=5e-7)
    assert got[1].value == pytest.approx(got[0].value, rel=1e-12)
    assert got[0].iterations == 3
    assert all(est.lower is None and est.upper is None for est in got)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_kernel_blocks_give_the_whole_matrix(monkeypatch, alpha):
    # 101 sites in blocks of 8 rows (a short last block), and the real
    # block size, which takes all 101 rows at once
    sites = np.random.default_rng(8).uniform(-0.5, 0.5, (101, 3))
    sites[50] = sites[49] + 0.001
    want = _riesz_kernel_matrix(sites, sites, alpha, 3, 2.0, 0.01)
    assert np.array_equal(capacity._site_kernel_matrix(
        sites, alpha, 3, 2.0, 0.01), want)
    monkeypatch.setattr(capacity, "_BLOCK_ENTRIES", 1000)
    assert capacity._block_rows(101) == 8
    assert np.array_equal(capacity._site_kernel_matrix(
        sites, alpha, 3, 2.0, 0.01), want)


@pytest.mark.parametrize("entries", [1 << 17, 5000])
@pytest.mark.parametrize("E, alpha, h", [
    (Sphere([0.1, -0.05, 0.02], 0.4), 1.5, 1 / 16),
    (BallUnion([[0.05, 0.0, -0.1]], [0.3]), 2.0, 0.1),
], ids=["sphere", "solid-ball"])
def test_blocked_riesz_capacity_equals_one_shot_matrices(
        monkeypatch, entries, E, alpha, h):
    omega = BoxDomain((-1.0,) * 3, (1.0,) * 3)
    monkeypatch.setattr(capacity, "_BLOCK_ENTRIES", entries)
    est = riesz_capacity(E, omega, alpha, h)
    sites, pitch = _sample(E, h, capacity._SITE_CAP)
    assert est.extras == {"sites": len(sites), "pitch": h}
    assert len(sites) % capacity._block_rows(len(sites))
    args = (alpha, E.dim, omega.diameter, 0.5 * pitch)
    K = _riesz_kernel_matrix(sites, sites, *args)
    assert np.array_equal(capacity._site_kernel_matrix(sites, *args), K)
    m, _, pivots = _equilibrium(K)
    assert (est.value, est.iterations) == (float(m.sum()), pivots)


def test_capped_sample_is_the_set_sampled_at_a_coarser_pitch():
    sphere = Sphere(np.zeros(3), 0.5)
    pitch = 1.0 / 64.0
    assert len(sphere.sample_points(pitch)) > capacity._SITE_CAP
    while len(sphere.sample_points(pitch)) > capacity._SITE_CAP:
        pitch *= capacity._PITCH_GROWTH
    got, got_pitch = _sample(sphere, 1.0 / 64.0, capacity._SITE_CAP)
    assert np.array_equal(got, sphere.sample_points(pitch))
    assert got_pitch == pitch


def test_a_riesz_capacity_reports_the_pitch_it_sampled_at():
    omega = BoxDomain((-1.0,) * 3, (1.0,) * 3)
    # above the site cap, the sample is taken 7 growth steps coarser
    capped = riesz_capacity(Sphere(np.zeros(3), 0.5), omega, 1.5, 1 / 64)
    assert capped.extras["sites"] == 3389
    assert capped.extras["pitch"] == pytest.approx(1.1 ** 7 / 64, rel=1e-14)
    # mollified over half that pitch: +6.5% from the exact 0.25, where
    # half of h = 1/64 read 0.2328 (-6.9%)
    assert capped.value == pytest.approx(0.266345, abs=5e-7)
    below = riesz_capacity(Sphere(np.zeros(3), 0.5), omega, 1.5, 1 / 16)
    assert below.extras["sites"] < capacity._SITE_CAP
    assert below.extras["pitch"] == 1 / 16


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
