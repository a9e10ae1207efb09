"""Fixed reference work that tracks how fast the machine runs right now.

On a small shared host, other load can slow the same op sequence by up to
1.6x from one minute to the next, and CPU time slows with wall time.  The
benchmark therefore times reference work that calls no bergnorm code next
to every measurement and reports each time as seconds at the reference
speed:

* Op latencies.  ``run.py`` runs ``kernel_window`` in its own process
  before the first op and after every op, while the worker that runs the
  ops waits for its next input, so nothing the program leaves behind in
  the worker (heap, caches, BLAS state) reaches the kernel.  Each latency
  is multiplied by ``REFERENCE_S / m``, where m is the median of the
  kernel times of the windows just before and just after the op.
* Setup time.  Each timed import of the program sits between two fresh
  interpreters that import only numpy and scipy.linalg, the libraries the
  program loads; the import is multiplied by ``REFERENCE_IMPORT_S / m``,
  where m is the mean of those two.  Import time is mostly file reads and
  module execution, which the numeric kernel follows poorly: over 40
  imports on the baseline machine, scaling by the kernel left a quartile
  spread of 33%, scaling by the neighbouring reference imports 11%.

The kernel mixes the kinds of work the ops do (numpy passes over a
mid-size array, a scalar Python loop and small tridiagonal eigenproblems)
and allocates under 1 MB.  Over six minutes in 20-second windows, it
followed the ``bilinear-twin`` op time with correlation 0.996.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# The median kernel time, and roughly the median import time of numpy and
# scipy.linalg in a fresh interpreter (0.33-0.36 s), on the 2-core Intel
# Xeon machine the baseline was measured on.  Any constants work for
# comparisons; these keep scaled times close to raw ones.
REFERENCE_S = 0.0115
REFERENCE_IMPORT_S = 0.33

# Kernel runs per window: the median of the two windows around an op (six
# runs, ~70 ms) damps the millisecond jitter of a single run.
WINDOW_RUNS = 3


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    z = np.linspace(0.0, 0.7, 40_000)
    term, total = np.ones_like(z), np.ones_like(z)
    for k in range(64):
        term *= (0.5 + k) * (1.5 + k) / ((2.5 + k) * (k + 1)) * z
        total += term
    scalar, ratio = 0.0, 1.0
    for k in range(30_000):
        ratio *= (0.3 + k) / (1.7 + k)
        scalar += ratio
    diag, off = np.linspace(0.0, 1.0, 128), np.full(127, 0.5)
    for _ in range(5):
        eigh_tridiagonal(diag, off)
    return time.perf_counter() - start


def kernel_window() -> list[float]:
    """Kernel times of one window of back-to-back runs."""
    return [kernel_seconds() for _ in range(WINDOW_RUNS)]


def scale_latencies(latencies: list[float], windows: list[list[float]]) -> list[float]:
    """Latencies at reference speed; ``windows[k]`` ran just before op k and
    ``windows[k + 1]`` just after it."""
    return [lat * REFERENCE_S / statistics.median(windows[k] + windows[k + 1])
            for k, lat in enumerate(latencies)]
