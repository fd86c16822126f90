"""A fixed reference computation whose time tracks the machine's speed.

The benchmark runs on shared hosts whose speed drifts by more than a third
over minutes, for every process alike.  The benchmark runs this reference
before and after each repeat and each set-up, and scales the time measured
there by REF_NOMINAL_S / (the reference's time), so that the drift cancels
and a change in surfquant does not.  One run of the reference is short and
sees the host's second-to-second bursts, which a repeat averages over, so
each slot between two measurements runs it for a tenth of the time measured
before it and takes the mean.  The reference uses nothing of surfquant.  Its
first part is numpy on 3-vectors called from an interpreter loop, like the
pointwise geometry; its second is a complex exponential over a P x N grid,
like the momentum quadrature.  Of the candidates tried (an integer loop,
dict and sort work, each part alone), this pair tracked all three workloads
best.

    python3 bench/reference.py     # prints the median of 20 slot times
"""

import statistics
import time

import numpy as np

# Typical slot time inside benchmark runs on the machine the benchmark was
# defined on (2 vCPUs of a shared x86-64 host, one BLAS thread), so that
# reference seconds read close to seconds there.  It only sets the scale.
REF_NOMINAL_S = 0.095
# A slot runs the reference at least REF_SLOT_RUNS times, and for at least
# REF_SLOT_SHARE of the time measured just before it.
REF_SLOT_RUNS = 3
REF_SLOT_SHARE = 0.1

_LOOP_N = 900
# Small enough that numpy reuses its buffers instead of mapping fresh pages,
# whose faults would make the reference noisier than the machine.
_GRID = (np.linspace(-1.0, 1.0, 6), np.linspace(0.0, 3.0, 1280))
_GRID_REPEATS = 150


def _work():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 2.0])
    total = 0.0
    for _ in range(_LOOP_N):
        c = np.cross(a, b)
        total += float(np.dot(c, a)) + float(np.linalg.norm(b))
        total += float(np.trace(np.outer(a, b)))
        a = a * 1.0000001
    p, q = _GRID
    for _ in range(_GRID_REPEATS):
        total += float(np.exp(1j * np.outer(p, q)).real.sum())
    return total


def reference_seconds():
    """Wall time of one run of the reference computation."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def reference_slot(measured_s=0.0):
    """Mean time of the reference runs of one slot, made after a
    measurement that took `measured_s` seconds."""
    times = []
    while len(times) < REF_SLOT_RUNS or sum(times) < REF_SLOT_SHARE * measured_s:
        times.append(reference_seconds())
    return statistics.fmean(times)


def speed_factor(*reference_times):
    """REF_NOMINAL_S / the mean of reference times taken around a measurement:
    multiply a time measured there by it to get reference seconds."""
    return REF_NOMINAL_S * len(reference_times) / sum(reference_times)


if __name__ == "__main__":
    print(statistics.median(reference_slot() for _ in range(20)))
