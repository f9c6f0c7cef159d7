"""Machine-speed calibration: a fixed kernel timed next to every sample.

On a shared virtual machine (measured on 2 vCPUs of an Intel Xeon host)
the speed of a single-threaded process, even in CPU seconds, moves by
20-40% from minute to minute: other guests contend for the cores and their
caches.  A run of tens of seconds cannot average that away, so every time
sample is rescaled by the speed the machine showed in the seconds around
it:

    reference seconds = CPU seconds * REF_S / (median CPU seconds of the
                        kernel rounds run within WINDOW_S of the sample)

The benchmark runs a few rounds after every op execution, so each sample
has rounds on both sides of it.

The kernel is independent of polarkit, so a change to polarkit cannot move
it.  Different kinds of work slow down by different amounts when the host
gets busy, so the kernel has one part for each kind of work polarkit's hot
paths do, each about as long as the others: interpreted code that builds
small objects (the CLI, selections), scalar float math (the bound and
extended-value audits), many numpy calls on small arrays (the decoders),
a level recursion on arrays of a megabyte (enumeration) and shifts and ors
of kilobyte-long integers (the GF(2) bitsets of ``gf2kernel``).  Each
round records the CPU seconds of every part; the scale uses their sum.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# nominal CPU seconds of one kernel round: reference seconds are seconds on
# a machine that runs one round in exactly this time
REF_S = 0.012

ROUNDS = 3

# a sample is rescaled by the kernel rounds measured from this many seconds
# before it began to this many after it ended
WINDOW_S = 5.0

_SMALL = np.linspace(0.0, 1.0, 64)


def _objects():
    table = {}
    for i in range(4000):
        table[(i, i & 7)] = [i, str(i)]
    return len(sorted(table.items(), key=lambda kv: kv[1][1]))


def _floats():
    acc = 0.0
    for i in range(1, 20000):
        x = i / 20000.0
        acc += -math.log2(x) if x < 0.5 else math.log1p(-x)
    return acc


def _small_arrays():
    a = _SMALL
    for _ in range(1200):
        a = np.add(a, 1.0) * 0.5
    return float(a[0])


def _large_arrays():
    z = np.full(1, 0.5)
    while z.size < 1 << 17:
        nxt = np.empty(2 * z.size)
        sq = z * z
        nxt[0::2] = 2.0 * z - sq
        nxt[1::2] = sq
        z = nxt
    return float(z.mean())


def _bitsets():
    bits = 0
    for k in range(0, 1 << 15, 24):
        bits |= 1 << k
    ones = 0
    for k in range(0, 1 << 15, 24):
        ones += (bits >> k) & 1
    return ones


PARTS = (_objects, _floats, _small_arrays, _large_arrays, _bitsets)


def measure(calibration: list) -> None:
    """Append ROUNDS kernel rounds to ``calibration``, each as its end time
    followed by the CPU seconds of every part."""
    for _ in range(ROUNDS):
        times = []
        for part in PARTS:
            c = time.process_time()
            part()
            times.append(time.process_time() - c)
        calibration.append((time.perf_counter(), *times))


def scale(calibration, span) -> float:
    """REF_S over the median kernel round of ``calibration`` that ended
    within WINDOW_S seconds of ``span`` ((start, end) on the same clock)."""
    start, end = span
    near = [sum(parts) for t, *parts in calibration
            if start - WINDOW_S <= t <= end + WINDOW_S]
    return REF_S / statistics.median(near)
