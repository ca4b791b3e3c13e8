"""Calibration of wall times against the shared machine's changing speed.

The benchmark runs on a few cores of a shared host whose speed swings by
30-60% over seconds to minutes while other tenants' load comes and goes.
The fastest or the median of repeated calls cannot remove a slow spell that
lasts a whole run, so the same call read 53 ms in one run and 88 ms in
another a few minutes earlier. The benchmark therefore times, between the
program's calls, a fixed reference routine made of the same kind of work as
the library's hot path (small complex reshapes, partial traces, ``eigvalsh``
and ``svd`` on 3x3 and 9x9 matrices) and scales each of the program's wall
times by
``REFERENCE_S / (the reference's time around it)``. Over 80 s on a 2-core
Xeon, the median of a certificate-bound call moved between 75 and 101 ms
from spell to spell while its ratio to the reference stayed within 34.1-35.9.

The reference uses numpy only and never the library, so a change to the
library cannot move it; a faster or slower program moves the scaled time by
the same factor as its wall time. Scaled times read as wall times on a
machine where the reference routine takes ``REFERENCE_S``; the raw wall
times are reported beside them in the run's detail line.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Wall time of one reference routine on a quiet core of a 2.1 GHz Xeon; it
# only sets the scale in which calibrated times are reported.
REFERENCE_S = 0.0017
# Time the reference whenever this much time has passed since the last one.
EVERY_S = 0.05
# Reference samples taken on each side of a timed interval.
NEIGHBOURS = 2
_VECTORS = 40


class Calibration:
    """Reference timings along the run, and the scale factor at any moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(_VECTORS, 9)) + 1j * rng.normal(size=(_VECTORS, 9))
        self._vectors = z / np.linalg.norm(z, axis=1, keepdims=True)
        self.mid: list[float] = []  # midpoints of the reference samples, ascending
        self.seconds: list[float] = []  # their durations

    def _reference(self) -> float:
        acc = 0.0
        for v in self._vectors:
            rho = np.outer(v, v.conj()).reshape(3, 3, 3, 3)
            reduced = np.einsum("ijkj->ik", rho)
            acc += np.linalg.eigvalsh(reduced)[-1]
            pt = rho.transpose(2, 1, 0, 3).reshape(9, 9)
            acc += np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0]
            acc += np.linalg.svd(v.reshape(3, 3), compute_uv=False)[0]
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._reference()
        t1 = time.perf_counter()
        self.mid.append((t0 + t1) / 2.0)
        self.seconds.append(t1 - t0)

    def sample_if_due(self) -> None:
        if not self.mid or time.perf_counter() - self.mid[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.mid, start)
        hi = bisect.bisect_right(self.mid, end)
        around = self.seconds[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        return REFERENCE_S / statistics.median(around)
