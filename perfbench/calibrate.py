"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark's host is a share of a machine whose speed flips between a fast
and a slow mode (about 1.7x apart) for spells of a second to minutes, so the
share of slow time differs from run to run.  While a job runs, a timer
interrupts it every INTERVAL_S and times one pass of this loop; the job's
wall, less the time the passes took, is then scaled by
``REFERENCE_S / mean(pass times)``.  The figures thus read as seconds on the
host in its fast mode, and a slow spell slows the passes as it slows the job.
The loop does the kind of work tautilt does (exact ``Fraction`` row reduction,
tuples hashed into a dict) but calls none of its code, so a change to tautilt
moves the scaled figures in full.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# one pass on one vCPU of a 2.0 GHz Xeon host in its fast mode
REFERENCE_S = 0.0033
INTERVAL_S = 0.1

SIZE = 9

_rng = random.Random(20240202)
MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(SIZE)]
          for _ in range(SIZE)]


def reduce_once() -> tuple:
    """Row-reduce MATRIX; returns (rank, distinct intermediate rows)."""
    rows = [r[:] for r in MATRIX]
    rank = 0
    seen = {}
    for c in range(SIZE):
        pivot = next((i for i in range(rank, SIZE) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(SIZE):
            if i != rank and rows[i][c]:
                f = rows[i][c] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                seen[tuple(rows[i])] = i
        rank += 1
    return rank, len(seen)


EXPECTED = reduce_once()


def sample() -> float:
    """CPU seconds of one pass of the reference loop.  CPU time, not wall: a
    child that shares this CPU may run in the middle of a pass, and the pass
    still costs the child only its own CPU time.  The collector is off while
    it runs, so a large heap left by the program under test cannot slow the
    loop and flatter the scaled figures."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        result = reduce_once()
        wall = time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference loop gave {result}, expected {EXPECTED}")
    return wall


class SpeedProbe:
    """Samples the reference loop on a SIGALRM timer while a job runs.

    ``begin`` takes one sample (so every job has at least one) and starts the
    timer; ``end`` stops it and returns the job's samples.  A handler runs in
    the main thread between bytecodes, so an in-process job pauses while a
    pass runs, and so does a child process kept on this process's CPU.
    """

    def __init__(self):
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def begin(self) -> None:
        self.samples = [sample()]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def scale(samples: list) -> float:
    """Factor that turns seconds measured at the sampled speed into seconds
    at the reference speed."""
    return REFERENCE_S / statistics.mean(samples)
