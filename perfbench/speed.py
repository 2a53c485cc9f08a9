"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines whose speed moves by up to about 2x in
phases of seconds to minutes, with the load of whatever shares the core's
hardware threads. A run's wall times move with it, whatever the program does.
So the timed phase also times a fixed reference kernel: a few times before the
first job and again after every block of jobs. Each block's wall times are
scaled by ``REF_S / t_local``, where ``t_local`` is the median kernel time at
the block's two ends. A scaled time reads as the wall time on a machine where
the kernel takes ``REF_S``.

The kernel is the benchmark's own code and calls only numpy, the json module
and the Python interpreter, never qdilate, so a change to the package cannot
move it. It mixes what the workloads spend their time on, because each kind of
work slows by its own factor when the core is shared: small-vector numpy calls
in a Python loop (as in a Gram-Schmidt completion) and plain interpreter work
(`dilation_build`), complex BLAS products and multinomial draws
(`instrument_readout`), and a JSON round trip of a nested list matrix
(`cli_reports`). With the interpreter part alone, the scaled
`instrument_readout` timings spread more than the raw ones. The garbage
collector is off while the kernel runs, so garbage the package leaves behind
does not slow it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

# The kernel's time at the reference speed, about its time on an uncontended
# core of a 2-core x86-64 guest (Python 3.11, numpy 2.4, 1 BLAS thread).
REF_S = 0.0025
# Kernel timings taken at each block boundary.
REPS = 3

_rng = np.random.default_rng(0)
_VECS = _rng.standard_normal((28, 64)) + 1j * _rng.standard_normal((28, 64))
_MAT = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_PROBS = np.full(16, 1 / 16)
_DOC = [[[float(x), -float(x)] for x in row] for row in _rng.standard_normal((16, 16))]


def kernel() -> None:
    v = _VECS.copy()
    for i in range(len(v)):
        for j in range(i):
            v[i] -= np.vdot(v[j], v[i]) * v[j]
        v[i] /= np.linalg.norm(v[i])
    s = 0
    for k in range(1500):
        s += k * k
    (_MAT @ _MAT).conj().T @ _MAT
    _rng.multinomial(10_000, _PROBS)
    json.loads(json.dumps(_DOC))


def probe(reps: int = REPS) -> list:
    """`reps` timings of the kernel, taken with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Scales wall times by the machine speed measured around them."""

    def __init__(self):
        probe(1)  # warm-up, not kept
        self.before = probe()
        self.samples = list(self.before)

    def scale(self, times: list) -> list:
        """Scale wall times measured since the last call (or since creation)."""
        after = probe()
        factor = REF_S / statistics.median(self.before + after)
        self.before = after
        self.samples += after
        return [t * factor for t in times]
