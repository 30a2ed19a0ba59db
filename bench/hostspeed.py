"""A fixed reference kernel that tracks how fast the host runs.

On a small shared virtual machine the speed one process gets drifts by up
to 1.7x over minutes (on two vCPUs of a busy host, 30-s medians of a fixed
Python and numpy loop ranged from 15 to 27 ms within ten minutes), so raw
times of runs made minutes apart differ by more than any bound a benchmark
could keep.  The worker runs this kernel between jobs, for about ``DUTY`` of the
time the jobs take, and scales the run's times by ``NOMINAL_S`` over the
kernel's mean time: the reported figures are *reference seconds*, the
seconds the work would take on the host running at the speed where the
kernel takes ``NOMINAL_S``.  The raw seconds are printed beside them.

The kernel uses none of spinmix, so no change to the program moves it.  It
mixes the kinds of work the workloads do: interpreted Python, numpy calls
on small arrays, small matrix products and a streaming pass over 4 MiB.
A kernel of interpreted Python alone tracked the host as well within one
process, but its mean time differs more from one process to the next.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "sample", "scale"]

# a round figure near the kernel's time on the 2-vCPU machine the baseline
# was taken on (10-14 ms there)
NOMINAL_S = 0.010
# kernel time per second of timed work
DUTY = 0.1

_rng = np.random.default_rng(0)
_small = _rng.standard_normal(256)
_mat = _rng.standard_normal((64, 64))
_big = _rng.standard_normal(2**19)  # 4 MiB
_out = np.empty_like(_big)


def _kernel() -> float:
    s = 0
    for i in range(40000):
        s += i * i
    acc = 0.0
    for _ in range(1200):
        acc += float(np.exp(_small).sum())
    m = _mat
    for _ in range(120):
        m = np.tanh(m @ _mat)
    for _ in range(6):
        np.multiply(_big, 1.0001, out=_out)
    return acc + s + float(m[0, 0]) + float(_out[0])


def sample(into: list[float], busy_s: float) -> float:
    """Time the kernel after ``busy_s`` seconds of work: at least once, and
    until it has run for ``DUTY * busy_s``.  The times go into ``into``;
    returns their sum."""
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        into.append(dt)
        spent += dt
        if spent >= DUTY * busy_s:
            return spent


def scale(samples: list[float]) -> float:
    """Factor turning the raw seconds of a run into reference seconds, from
    the kernel times sampled through it."""
    return NOMINAL_S / statistics.fmean(samples)
