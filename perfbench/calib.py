"""Machine-speed calibration.

The speed of a shared host drifts: on a 2-CPU shared host a fixed
pure-Python loop took 0.40 ms in one ten-second stretch and 0.60 ms in the
next, and every request time moved with it.  Before and after each request
the benchmark therefore times a fixed kernel that does not touch wirtcalc,
and scales the request's time to a machine on which the kernel takes its
nominal time:

    scaled = raw * NOMINAL / (mean of the kernel times just before and after)

The bracketing pair followed the host more closely than the median of the
kernel times within a few seconds of the request, which missed changes of
speed within a second and widened the tail of the scaled times.

A change to wirtcalc moves the raw time and leaves the kernel alone, so it
moves the scaled time by the same factor.  What the host does to both at
once cancels.

Each workload has the kernel that slowed down with the host the way its
requests did, among those tried:

* ``scalar``: ``py_kernel``, a loop of pure-Python complex arithmetic;
* ``hilbert``: ``array_kernel``, the same loop plus a loop of numpy
  operations on 32-element arrays, the shape of ``FunctionalJet`` work.  It
  tracked the request times better than ``py_kernel`` alone or a
  matrix-vector kernel at N=5000;
* ``cli``: ``spawn_kernel``, a bare ``python -c pass``: process start and
  imports.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: nominal kernel times: about their median on a 2-CPU shared host
PY_NOMINAL_S = 0.5e-3
ARRAY_NOMINAL_S = 1.0e-3
SPAWN_NOMINAL_S = 50e-3


def py_kernel() -> float:
    """Seconds taken by a fixed loop of complex arithmetic."""
    z, s = 0.3 + 0.1j, 0j
    t = time.perf_counter()
    for k in range(3000):
        s += z * z / (z + k)
    return time.perf_counter() - t


def array_kernel() -> float:
    """Seconds taken by ``py_kernel`` plus a fixed loop of numpy operations
    on small complex arrays."""
    import numpy as np
    a = np.linspace(0.1, 1.0, 32) * (1 + 0.5j)
    s = 0.0
    t = time.perf_counter()
    for _ in range(150):
        s += np.vdot(a * a + a, a).real
    return time.perf_counter() - t + py_kernel()


def spawn_kernel(env: dict, cwd) -> float:
    """Seconds taken by a bare interpreter start, ``python -c pass``."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                   check=True)
    return time.perf_counter() - t


def scale(times: list[float], kernels: list[float],
          nominal: float) -> list[float]:
    """``times[i]`` scaled by ``nominal`` over the mean of the kernel times
    taken just before (``kernels[i]``) and just after (``kernels[i + 1]``)
    it."""
    return [t * nominal * 2 / (before + after)
            for t, before, after in zip(times, kernels, kernels[1:])]
