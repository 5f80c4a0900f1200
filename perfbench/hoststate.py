"""A probe of the host's speed state, timed between blocks of training iterations.

The host runs in two speed states that last from seconds to minutes: its
usual state, and a fast one in which interpreter-bound code runs about 1.6x
faster (README.md, "Noise on this host"). CPU time equals wall time in
both, so nothing in the process tells them apart. A run that falls mostly
into fast phases reads faster than one that does not, whatever the code.

The probe is a fixed computation made without ``mtopt``: forward and
backward of a small tanh trunk in plain numpy, 20 times. It takes about
0.5-0.65 ms in the usual state and about 0.3 ms in the fast one. The
stamped stream times it every few batches. A sample counts as taken in the
usual state when the probe read at least ``USUAL_MS`` on both sides of it,
and the timings come from usual-state samples only. Within that state the
host's speed still drifts by about 10 %, and the probe with it, so each
sample is scaled by ``NOMINAL_MS`` over the lower probe reading around it.
The probe does not run ``mtopt``, so a change to ``mtopt`` moves a scaled
timing by the same factor as the raw one.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

USUAL_MS = 0.45     # between the two states' probe times (about 0.3 and 0.6 ms)
NOMINAL_MS = 0.55   # the probe time usual-state samples are scaled to

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 8))
_W1 = _rng.standard_normal((8, 8)) * 0.3
_W2 = _rng.standard_normal((8, 3)) * 0.3
_Y = _rng.standard_normal((32, 3))


def probe_ms() -> float:
    """Time of the probe computation in ms."""
    t0 = perf_counter()
    for _ in range(20):
        h = np.tanh(_X @ _W1)
        e = h @ _W2 - _Y
        g2 = h.T @ e
        g1 = _X.T @ ((e @ _W2.T) * (1.0 - h * h))
        float(g1.sum() + g2.sum())
    return 1e3 * (perf_counter() - t0)
