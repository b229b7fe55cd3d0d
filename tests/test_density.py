"""Box-counting dimensions of sets whose dimension is known in closed
form."""

import math

import numpy as np
import pytest

from potkit.density import box_counting_dimension, covering_counts
from potkit.sets import BoxUnion, cantor_dust, segment_set

DYADIC = 2.0 ** -np.arange(5, 10)


def test_segment_has_dimension_one():
    seg = segment_set([0.1, 0.2, 0.3], [0.9, 0.2, 0.3])
    assert box_counting_dimension(seg, DYADIC) == pytest.approx(1.0, abs=0.05)


def test_square_has_dimension_two():
    square = BoxUnion([[0.1, 0.2]], [0.9, 1.0])
    assert box_counting_dimension(square, DYADIC) == pytest.approx(2.0,
                                                                   abs=0.05)


def test_cantor_dust_has_dimension_log2_over_log3():
    # on triadic scales the middle-thirds set doubles its count per level
    scales = 3.0 ** -np.arange(1, 7)
    dust = cantor_dust(7, dim=2)
    assert covering_counts(dust, scales) == [2 ** k for k in range(2, 8)]
    assert box_counting_dimension(dust, scales) == pytest.approx(
        math.log(2.0) / math.log(3.0), rel=1e-9)
