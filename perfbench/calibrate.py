"""How fast the cores of a shared host run while the benchmark times them.

On a shared host each core runs the same code up to about 2x slower while
neighbours are busy, in stretches of a second to minutes, and each core
independently of the other.  A run therefore pins its children to fixed
CPUs, and a thread of the harness times a fixed kernel on those CPUs every
``INTERVAL_S`` while the children run.  The kernel does exact rational
Gaussian elimination, the kind of work hodgegauge spends its time on, and
never changes, so the mean of its samples over a phase of a run, against
``NOMINAL_S``, tells how much the host slowed that phase down.
"""

from __future__ import annotations

import os
import threading
import time
from fractions import Fraction

SIZE = 7
# a sample on a core of the reference host while nothing slows it, when
# the sampler interrupts a child: a 2-core x86-64 KVM guest (Xeon, family 6
# model 143), Python 3.11.7.  Slowed, the same sample takes 1.8-2.6 ms.
NOMINAL_S = 0.0012
# a sample every 40 ms takes about 3 % of a core
INTERVAL_S = 0.04


def _matrix():
    return [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4)
             for j in range(SIZE)] for i in range(SIZE)]


def kernel():
    """Row-reduce a fixed rational matrix; returns its rank."""
    rows = _matrix()
    rank = 0
    for col in range(SIZE):
        pivot = next((r for r in range(rank, SIZE) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(SIZE):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class Sampler:
    """A thread that times ``kernel`` every ``INTERVAL_S``, on each CPU of
    ``cpus`` in turn, while the ``with`` block runs.  Each sample goes to
    the list in ``samples`` named by ``phase`` when it is taken.  The thread
    times its own CPU time, not wall time, so the time slices of the
    children it shares a CPU with do not count."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.phase = None
        self.samples = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        tid = threading.get_native_id()
        k = 0
        while not self._stop.wait(INTERVAL_S):
            os.sched_setaffinity(tid, {self.cpus[k % len(self.cpus)]})
            k += 1
            start = time.thread_time()
            kernel()
            self.samples.setdefault(self.phase, []).append(
                time.thread_time() - start)

    def slowdown(self, phase):
        """Mean sample of ``phase`` over ``NOMINAL_S``."""
        samples = self.samples[phase]
        return sum(samples) / len(samples) / NOMINAL_S

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
