"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The shared machine the benchmark runs on slows every process down by up to
about 2x, in phases that last from a fraction of a second to minutes; CPU
time slows down as much as wall time.  The benchmark therefore times this
kernel between verdicts, and on a timer during set-up (``timed_setup``), and
scales each stretch of the workload by
``REFERENCE_S / kernel time``: a time is reported as what it would have been
had the kernel taken ``REFERENCE_S``.  Work that the library saves or adds
still shows in full; only the machine's changing speed is divided out.

The kernel uses only the standard library, never twisthom, and mixes the
operations the library spends its time on: ``Fraction`` arithmetic (big-int
gcds and small-object allocation), list building and dict updates keyed by
tuples.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# A round figure near the kernel's time on the 2-core box the benchmark was
# tuned on (Python 3.11, 0.6-1.3 ms); it only sets the scale of reported times.
REFERENCE_S = 1.0e-3
# How often the kernel runs while the workload runs.
EVERY_S = 0.025
# Kernel runs that scale the start of a process, before the timer is armed.
FIRST_RUNS = 5
SIZE = 7
ROUNDS = 600
MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
                     for j in range(SIZE)) for i in range(SIZE))


def kernel() -> int:
    """Rank of a fixed rational matrix by elimination, then tuple-keyed sums."""
    m = [list(row) for row in MATRIX]
    rank = 0
    for c in range(SIZE):
        pivot = next((i for i in range(rank, SIZE) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = 1 / m[rank][c]
        for i in range(rank + 1, SIZE):
            f = m[i][c] * inverse
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    sums: dict = {}
    for k in range(ROUNDS):
        key = (k % 13, k % 7)
        sums[key] = sums.get(key, 0) + k * k
    return rank + len(sums)


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the kernel."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def timed_setup(spawned: float, work):
    """Run ``work()``; return its result and the time from ``spawned`` to its
    end at reference speed.  ``spawned`` is a ``time.monotonic()`` reading
    taken before this process was started.

    A one-shot timer, re-armed after each run, runs the kernel every
    ``EVERY_S`` while ``work()`` runs.  The kernel's own runs are left out,
    and each stretch between two of them is scaled by their mean kernel time.
    The stretch from ``spawned`` to the first run, which holds the start of
    the interpreter, is scaled by the median of ``FIRST_RUNS`` runs.
    """
    runs: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def run_kernel():
        t0 = time.monotonic()
        kernel()
        runs.append((t0, time.monotonic()))

    def on_timer(*_):
        run_kernel()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    start = time.monotonic()
    kernel()  # a warm-up run, left out like the others
    for _ in range(FIRST_RUNS):
        run_kernel()
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, EVERY_S)
    try:
        result = work()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    run_kernel()
    speed = [end - begin for begin, end in runs]
    total = (start - spawned) * REFERENCE_S / statistics.median(speed[:FIRST_RUNS])
    for i in range(FIRST_RUNS - 1, len(runs) - 1):
        stretch = runs[i + 1][0] - runs[i][1]
        total += stretch * 2 * REFERENCE_S / (speed[i] + speed[i + 1])
    return result, total
