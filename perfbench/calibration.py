"""A fixed reference kernel that tracks the host's speed.

The host runs the same work at two speeds up to 1.7x apart, switching
every few seconds and sometimes staying slow for a whole run.  The kernel
is timed right before and right after each timed span; a span's time over
the mean of those two kernel times no longer depends on the host's speed,
and ``REFERENCE_S`` turns that ratio back into seconds on the baseline
host.  The kernel is the program's kind of work (single-qubit gate updates
on a three-qubit state vector) but is written here, so no change to the
program changes it.
"""
from __future__ import annotations

import time

import numpy as np

# Median kernel time on the baseline host (2-vCPU x86_64 VM) at full speed.
REFERENCE_S = 0.003
_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)


def kernel_s() -> float:
    """Wall time of one run of the kernel: the median of five short runs,
    so that one interrupted run does not count."""
    times = []
    for _ in range(5):
        v = np.ones(8, dtype=complex)
        t0 = time.perf_counter()
        for _ in range(200):
            t = np.tensordot(_ROTATION, v.reshape(2, 2, 2), axes=([1], [0]))
            v = np.moveaxis(t, 0, 1).reshape(8)
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def normalized(span_s: float, before_s: float, after_s: float) -> float:
    """``span_s`` in seconds at the baseline host's full speed."""
    return span_s * REFERENCE_S / (0.5 * (before_s + after_s))
