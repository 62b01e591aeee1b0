"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of one core drifts by up to about 1.7x over
tens of seconds, far more than the regressions the benchmark must resolve.
Before every timed op and kernel build the benchmark times a fixed snippet
that touches no library code (complex ufuncs over an array, a small complex
matrix product and slogdet, and a scalar Python loop, the same kinds of work
the library does) and scales the op's time by NOMINAL_S over the median of
the last few snippet times.  A reported time is therefore the time the op
would take on a machine where the snippet takes NOMINAL_S; the raw
wall-clock times are printed and recorded beside them.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque

import numpy as np

# median snippet time on the machine the baseline was recorded on
NOMINAL_S = 4.0e-4
WINDOW = 15


class Speed:
    def __init__(self):
        rng = np.random.default_rng(2024)
        self._z = rng.uniform(0.5, 20.0, 512) + 1j * rng.uniform(-20.0, 20.0, 512)
        self._a = rng.random((48, 48)) + 1j * rng.random((48, 48))
        self._recent = deque(maxlen=WINDOW)

    def _snippet(self):
        z = self._z
        w = (z - 0.5) * np.log(z) - z + np.exp(-z / 10.0)
        b = self._a @ self._a
        np.linalg.slogdet(b)
        acc = 0.0
        for k in range(400):
            acc += math.log(k + 1.5) * abs(complex(w[k]))
        return acc

    def sample(self):
        t0 = time.perf_counter()
        self._snippet()
        self._recent.append(time.perf_counter() - t0)

    def factor(self):
        """NOMINAL_S over the median of the recent snippet times."""
        return NOMINAL_S / statistics.median(self._recent)
