"""Machine speed over a run, measured by a fixed reference computation.

On a shared host the same single-threaded code runs up to 1.6 times slower
for stretches of ten to sixty seconds: two unrelated potkit ops slow down
together, by nearly the same factor.  ``SpeedProbe`` times ``reference()``
(no potkit code) every ``PERIOD_S`` seconds from a timer signal while the
ops run; ``factor(start, end)`` is the reference's mean time over that
interval divided by ``REFERENCE_S``.  An op's time divided by that factor
is its time at the reference speed.  ``factor_now()`` does the same for
the moment it is called, for set-up time.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np
import scipy.sparse

PERIOD_S = 0.1
# median time of reference() on an unloaded 2-core x86-64 VM (Python 3.11,
# numpy 2.4, scipy 1.17); it fixes the scale of the reported seconds
REFERENCE_S = 8.0e-4
_M = 128
_LAPLACIAN = scipy.sparse.diags([-1.0, -1.0, 4.0, -1.0, -1.0],
                                [-_M, -1, 0, 1, _M], shape=(_M * _M,) * 2,
                                format="csr")


def reference() -> float:
    """Interpreter-bound float arithmetic plus sparse matrix-vector
    products.  Of several candidates (a NumPy sort, a streaming pass over
    4 MB), these two tracked the slowdowns of a 2-D p-energy solve and of a
    grid Wolff potential most closely, with a slope near 1."""
    acc = 0.0
    for i in range(1, 4000):
        acc += math.sqrt(i) / (1.0 + acc * 1e-9)
    v = np.ones(_M * _M)
    for _ in range(4):
        v = _LAPLACIAN @ v
    return acc + float(v[0])


def factor_now(count: int = 15) -> float:
    """Median time of ``count`` back-to-back reference runs over
    ``REFERENCE_S``."""
    times = []
    for _ in range(count):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / REFERENCE_S


class SpeedProbe:
    """Reference timings ``(mid time, seconds)`` taken every ``PERIOD_S``
    seconds between ``start()`` and ``stop()``.  ``spent`` is the total
    time the probes took, to be taken out of the time of the op they
    interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _probe(self, signum, frame):
        cpu = time.process_time()
        t = time.perf_counter()
        reference()
        d = time.perf_counter() - t
        self.samples.append((t + 0.5 * d, d))
        self.spent += d
        self.spent_cpu += time.process_time() - cpu

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean reference time over [start, end] (perf_counter seconds),
        widened to the nearest probes on either side, over ``REFERENCE_S``.
        The mean, not the median: a call that spans slow and fast
        stretches is slowed by their time average (over six dirichlet-2d
        runs the median left twice the spread in ``wall_s``)."""
        mids = [m for m, _ in self.samples]
        lo = max(0, bisect.bisect_left(mids, start) - 1)
        hi = min(len(mids), bisect.bisect_left(mids, end) + 1)
        return statistics.fmean(d for _, d in self.samples[lo:hi]) \
            / REFERENCE_S

