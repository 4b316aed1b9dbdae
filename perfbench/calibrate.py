"""Machine-speed probe for the timing metrics.

The virtual machines this benchmark runs on share their cores with other
tenants, and the speed of the same code drifts by up to ±35% over tens of
seconds.  Because the drift slows all code alike, the benchmark runs a fixed
reference computation, the probe, between the steps it times.  It then
states every timing at the speed at which the probe takes
``NOMINAL_PROBE_S``:

    normalized time = measured time × NOMINAL_PROBE_S / mean probe time

The probe uses numpy only and never calls semloc, so a change to the library
moves the normalized times as it moves the raw ones.  A change that leaves
work running between queries slows the probe too, and is partly hidden by
the normalization; the detail line keeps the raw times and the probe times
so that such a change still shows.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

PROBE_ITERATIONS = 600
NOMINAL_PROBE_S = 0.060  # the probe's time on the 2-core machine that set the bounds


def probe() -> float:
    """Run the reference computation and return its wall time in seconds.

    Like a RANSAC-PnP iteration, each step draws a minimal sample, solves a
    small dense system and a quartic, projects a few hundred points and
    counts inliers.
    """
    pts = np.random.default_rng(0).standard_normal((400, 3)) + np.array([0.0, 0.0, 8.0])
    rng = np.random.default_rng(1)
    best = 0
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        q, r = np.linalg.qr(pts[rng.choice(len(pts), 3, replace=False)])
        roots = np.roots([1.0, float(r[0, 0]), float(r[1, 1]), float(r[2, 2]), 1.0])
        proj = pts @ q.T
        res = np.hypot(proj[:, 0] / proj[:, 2], proj[:, 1] / proj[:, 2])
        best = max(best, int((res < 0.5).sum()) + len(roots))
    return time.perf_counter() - t0


def speed_factor(probe_times: Sequence[float]) -> float:
    """Factor that turns times measured alongside ``probe_times`` into times
    at the nominal probe speed."""
    if not probe_times:
        raise ValueError("no probe times")
    return NOMINAL_PROBE_S / statistics.fmean(probe_times)


def normalized_between(times: Sequence[float], probes: Sequence[float]) -> list[float]:
    """Normalize each of ``times`` by the mean of the probe run just before
    and the one just after it; ``probes`` has one more entry than ``times``."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each time and one after the last")
    return [t * speed_factor(probes[i:i + 2]) for i, t in enumerate(times)]
