"""Host-speed correction for wall-clock times measured on a shared machine.

On a shared virtual machine the same single-threaded work runs up to a
third slower for tens of seconds at a time, whatever the program does, so
raw rates from runs a few minutes apart differ by up to 25%. Around every
timed step the benchmark therefore times a fixed reference kernel, a mix
like sing's own (small matrix-vector products and element-wise ops, a
sort, a Python byte loop, a 12 x n Gram matrix), and rescales the step's
wall time to the kernel's nominal speed:

    corrected = wall * NOMINAL_S / (mean kernel time before and after)

The kernel never calls sing, so a change to sing cannot move it. Raw times
are kept and printed beside the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median burst time seen inside benchmark runs on a 2-vCPU Intel Xeon VM with
# BLAS pinned to one thread. Only ratios between runs matter; the value only
# sets the scale, so that corrected and raw figures are alike there.
NOMINAL_S = 1.25e-3
BURSTS = 60

_rng = np.random.default_rng(0)
_W = _rng.random((512, 128))
_x = _rng.random(128)
_q = _rng.random(300)
_C = _rng.random((12, 300))
_BLOB = bytes(_rng.integers(0, 256, 1200, dtype=np.uint8))


def _burst() -> float:
    acc = 0.0
    for _ in range(36):
        pre = _W @ _x
        gates = np.tanh(pre[:128]) * (1.0 / (1.0 + np.exp(-pre[128:256])))
        acc += float(np.sort(_q)[::-1].cumsum()[-1] + gates[0])
    for byte in _BLOB:
        if byte & 0x80:
            acc += byte & 0x7F
        else:
            acc -= 1
    gram = _C.T @ _C
    np.clip(gram, 0.0, 1.0, out=gram)
    return acc


def kernel_seconds() -> float:
    """Median time of one reference burst over BURSTS repetitions."""
    times = []
    for _ in range(BURSTS):
        started = time.perf_counter()
        _burst()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def timed(fn):
    """Call fn(); returns (result, wall seconds, factor), where wall * factor
    is the wall time rescaled to the kernel's nominal speed."""
    before = kernel_seconds()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    after = kernel_seconds()
    return result, wall, 2 * NOMINAL_S / (before + after)
