"""Host-speed readings, to take host drift out of the timing metrics.

On small shared VMs the same code runs up to 1.5x slower for minutes at a
time, in CPU time as well as in wall time, so a plain rate measured now
and one measured ten minutes later can differ more than any change worth
finding.  A fixed piece of reference work, of the kind the workloads do
(interpreter-bound small NumPy calls, a 5000 x 21 matrix-vector product,
elementwise exp), is timed between pieces of the measured work, every
0.15 s or so: the speed changes within a second, and readings only at the
ends of a one-second block tracked it no better than no readings at all.
A measured CPU time t then counts as t * REFERENCE_S / r, with r the mean
of the readings taken among it: the time the work would have taken on
the host at the speed it had when REFERENCE_S was fixed.
"""

import time

import numpy as np

# CPU seconds of reference_work() on the reference host (2 vCPU VM, one
# BLAS thread) at its usual speed.
REFERENCE_S = 0.0050

_X = np.cos(np.arange(5000 * 21, dtype=float).reshape(5000, 21))
_M = np.sin(np.arange(51 * 51, dtype=float).reshape(51, 51)) * 0.02


def reference_work():
    v = np.full(21, 0.1)
    for _ in range(6):
        t = _X @ v
        v = v + 1e-6 * (_X.T @ np.exp(-np.abs(t)))
    w = np.ones(51)
    for _ in range(100):
        w = np.tanh(_M @ w) + 1e-3 * w
        rows, cols = np.tril_indices(12, k=-1)
        w[rows] += 1e-9 * float(w @ w)
    return float(v.sum() + w.sum())


def reading(repeats=1):
    """Mean CPU seconds of `repeats` runs of the reference work."""
    t = time.process_time()
    for _ in range(repeats):
        reference_work()
    return (time.process_time() - t) / repeats
