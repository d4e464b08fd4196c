"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared VM the same code can run at half speed for seconds or minutes
at a time, and the process never loses its CPU: the core itself is slower.
Wall times alone then spread between runs by more than any useful bound.
The benchmark therefore times this kernel right before and right after each
timed sample, and scales the sample's wall time to what it would have taken
on the reference machine:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

(The set-up probes use the run's median kernel time instead, and a
workload's `wall_clock` configs are not scaled; see README.md.)

The kernel is a fixed mix of what rmlab's trial loop spends its time on:
Python bytecode, short-vector numpy calls and a small BLAS product, about a
third of the time each.  It uses nothing from rmlab, so a change to the
program moves the scaled times exactly as much as the wall times.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the time of `_kernel()` at full speed on the reference machine:
# a shared two-vCPU Intel Xeon VM, Python 3.11, numpy with one OpenBLAS
# thread (20-25 ms at full speed, 35-40 ms in its slow spells).  It only
# fixes the scale: scaled times read as seconds on that machine at full
# speed.
REFERENCE_S = 0.020

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((64, 64))
_TALL = _RNG.standard_normal((256, 128))


def _kernel() -> int:
    acc = 0
    counts: dict[int, int] = {}
    for i in range(40000):
        acc += (i * 7) % 13
        counts[i % 97] = counts.get(i % 97, 0) + i
    x = _SQUARE[0]
    for i in range(1500):
        x = np.tanh(x[::-1] * 0.5) + _SQUARE[i % 64]
        acc += int(np.argsort(x)[0]) + int((x < 0).astype(np.uint8).sum())
    for _ in range(20):
        acc += int((_TALL @ _TALL.T)[0, 0] > 0)
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time in reference seconds, given the kernel times around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
