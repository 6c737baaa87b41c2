"""Machine-speed reference that the benchmark's timings are scaled by.

On a small shared machine the speed of the same single-threaded work
drifts by +-20% over tens of seconds, so two runs of identical code can
differ by more than any useful regression bound.  The benchmark
therefore times a fixed reference kernel between pieces of the planner's
work (at the start of every unit, after every plan, around every set-up)
and reports each time scaled to a machine on which the kernel takes
``NOMINAL_S``, with ``reference`` the median of the run's samples:

    reported = measured * NOMINAL_S / reference

The kernel mixes what the planner spends its time on: dense LU of the
demo's Schur order, a voxel-by-bixel sparse triple product and an
interpreted loop.  It is part of the benchmark, so no change to the
planner moves it.  Raw times are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

NOMINAL_S = 0.16
_ORDER = 739
_ROWS = 20000


class Reference:
    """Times the reference kernel; keeps every sample in ``samples``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((_ORDER, _ORDER))
        self._sparse = sp.random(_ROWS, _ORDER, density=0.01, random_state=1, format="csr")
        self._diag = sp.diags(rng.random(_ROWS))
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            scipy.linalg.lu_factor(self._dense)
        for _ in range(2):
            self._sparse.T @ self._diag @ self._sparse
        total = 0
        for i in range(200_000):
            total += i * i
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read on the nominal-speed machine."""
    return seconds * NOMINAL_S / reference_s
