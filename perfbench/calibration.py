"""Machine-speed calibration for timings on a shared, noisy machine.

On the 2-core reference box the speed of each vCPU swings between two
states about 1.7x apart every few seconds, and the share of slow time drifts
over minutes, so raw call times of one workload spread by 10-30 % between
runs.  Every timed operation is therefore bracketed by a fixed computation
that does not touch the package, and its time is reported as

    measured_s * NOMINAL_S / mean(calibration before, calibration after)

i.e. in seconds at the speed at which the calibration takes ``NOMINAL_S``.
A change of the package scales the result by the same factor as the raw
time; a change of machine speed moves the calibration with it and cancels.  The
raw times stay in the run record.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# the calibration's typical time on the reference box (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4); fixed, so calibrated seconds stay comparable
NOMINAL_S = 0.04

# updated in place, so calibrating adds no transient memory that could mask
# the workload's peak RSS; filled here so no probe pays its page faults
_BUF = np.full(1_000_000, 2.0)


def _work() -> float:
    # interpreter dispatch and small-object churn, like the interpreter path
    acc = 0.0
    d = {}
    for i in range(100_000):
        x = (i * 0.5, i % 7)
        acc += math.sqrt(x[0]) * x[1]
        d[i & 1023] = x
    # array passes over 8 MB, larger than L2, like the lockstep path
    a = _BUF
    a.fill(2.0)
    for _ in range(6):
        np.multiply(a, 1.0001, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    return acc + float(a[-1])


def probe() -> float:
    """Seconds the calibration computation takes now."""
    gc.disable()  # the package's heap must not change the calibration's cost
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrated(measured_s: float, speed_s: float) -> float:
    """``measured_s`` in seconds at nominal speed; ``speed_s`` is the mean
    calibration time around the measurement."""
    return measured_s * NOMINAL_S / speed_s
