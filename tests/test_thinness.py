"""The thinness verdict protocol on Wiener terms of known summability,
the Wiener terms built from annulus quotients, and the small-ball law."""

import numpy as np
import pytest

from potkit import thinness
from potkit.capacity import annulus_term
from potkit.errors import HypothesisViolation, ResolutionError
from potkit.sets import BallUnion
from potkit.thinness import (SmallBallModel, ball_sequence_terms,
                             calibrate_small_ball_ratio, classify_thinness,
                             thin_witness_blowup, wiener_terms)


def test_geometric_terms_are_thin():
    rep = classify_thinness(0.5 ** np.arange(1, 41))
    assert rep.verdict == "thin"
    assert rep.tail.summable


def test_constant_terms_are_not_thin():
    rep = classify_thinness(np.ones(40))
    assert rep.verdict == "not-thin"
    assert rep.partial_sum == 40.0


def test_all_zero_terms_are_thin_at_the_floor():
    rep = classify_thinness(np.zeros(40))
    assert rep.verdict == "thin"
    assert rep.tail is None
    assert rep.evidence["reason"] == "all terms at floor"


@pytest.mark.parametrize("product, verdict", [(2.0, "thin"),
                                              (0.5, "not-thin")])
def test_ball_sequence_verdict_flips_at_s_times_n_minus_p_one(product,
                                                              verdict):
    # with the exact single-ball law ratio(rho) = rho^(n-p) the i-th term
    # is i^(-s(n-p)): summable exactly when s(n-p) > 1
    n, p = 3, 2.5
    model = SmallBallModel(amplitude=1.0, exponent=n - p, rhos=(),
                           ratios=(), r2=1.0)
    s = product / (n - p)
    terms = ball_sequence_terms(s, n=n, p=p, count=200, model=model)
    i = np.arange(1, 201, dtype=float)
    assert np.allclose(terms, i ** -product, rtol=1e-14, atol=0.0)
    assert classify_thinness(terms).verdict == verdict


@pytest.mark.xfail(strict=True, reason=(
    "the quick calibration fits exponent 0.677 against n - p = 0.5, so "
    "the family at s(n-p) = 0.9 reads as summable"))
def test_quick_small_ball_law_keeps_a_divergent_family_from_thin():
    n, p = 3, 2.5
    model = calibrate_small_ball_ratio(n, p=p, rhos=(0.4, 0.25),
                                       pitch_rel=1.0 / 5.0)
    terms = ball_sequence_terms(0.9 / (n - p), n=n, p=p, count=200,
                                model=model)
    assert classify_thinness(terms).verdict != "thin"


def test_witness_without_an_escaping_ray_is_a_resolution_error(monkeypatch):
    monkeypatch.setattr(thinness, "escaping_ray", lambda *args: None)
    with pytest.raises(ResolutionError, match="no escaping ray"):
        thin_witness_blowup(4.0, 2.5, n=3, count=4)


def _dyadic_balls(n, levels):
    """Balls B(1.5 * 2^-i e1, 2^-i / 4), i = 1..levels: one inside each of
    the first ``levels`` closed annuli 2^-i <= |x| <= 2^-i+1."""
    radii = 2.0 ** -np.arange(1, levels + 1)
    centers = np.zeros((levels, n))
    centers[:, 0] = 1.5 * radii
    return BallUnion(centers, 0.25 * radii)


def _record_annulus_terms(monkeypatch):
    calls = []

    def recording(E, x0, i, **kwargs):
        out = annulus_term(E, x0, i, **kwargs)
        calls.append((i, kwargs["mode"], kwargs["index"], out))
        return out

    monkeypatch.setattr(thinness, "annulus_term", recording)
    return calls


@pytest.mark.parametrize("weighting, index, mode, used", [
    ("cap-p", 2.5, "cap", 2.5),
    ("riesz-alpha", 1.5, "riesz", 1.5),
    ("riesz-alpha", 3.0, "riesz", 3.0),
    ("cap-n", 2.5, "cap", 3.0),
])
def test_wiener_terms_weigh_each_annulus_term(monkeypatch, weighting, index,
                                              mode, used):
    # the quotient num / den below n; at index n the absolute weighting
    # i num for Riesz and i^(n-1) num for p-capacity
    n = 3
    calls = _record_annulus_terms(monkeypatch)
    terms = wiener_terms(_dyadic_balls(n, 3), np.zeros(n), index=index,
                         count=4, weighting=weighting, pitch_rel=0.5)
    assert [c[:3] for c in calls] == [(i, mode, used) for i in range(1, 5)]
    for term, (i, _, _, (num, den)) in zip(terms, calls):
        if used < n:
            want = num / den
        else:
            want = (i if mode == "riesz" else i ** (n - 1)) * num
        assert term == want
    assert np.all(terms[:3] > 0.0)


def test_wiener_term_of_an_annulus_that_misses_the_set_is_zero(monkeypatch):
    calls = _record_annulus_terms(monkeypatch)
    terms = wiener_terms(_dyadic_balls(2, 2), np.zeros(2), index=1.5,
                         count=4, weighting="cap-p", pitch_rel=0.5)
    assert calls[3][3] == (0.0, None)
    assert terms[3] == 0.0
    assert np.all(terms[:2] > 0.0)


def test_wiener_terms_reject_short_series_and_unknown_weightings():
    E = _dyadic_balls(2, 2)
    with pytest.raises(HypothesisViolation):
        wiener_terms(E, np.zeros(2), index=1.5, count=3, weighting="cap-p")
    with pytest.raises(ValueError, match="weighting"):
        wiener_terms(E, np.zeros(2), index=1.5, count=4, weighting="cap-q")
