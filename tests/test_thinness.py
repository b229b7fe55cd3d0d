"""The thinness verdict protocol on Wiener terms of known summability."""

import numpy as np
import pytest

from potkit.capacity import SmallBallModel
from potkit.thinness import ball_sequence_terms, classify_thinness


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
