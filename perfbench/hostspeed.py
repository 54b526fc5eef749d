"""Host speed: a fixed pure-Python loop, timed around the benchmark's
timed calls, whose timings turn their wall seconds into seconds at a
reference host speed.  It imports nothing from the program.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Host speed is sampled with a fixed pure-Python loop that does not call
#: the program: a few times before each timed call, every
#: ``SAMPLE_INTERVAL_S`` during it (from a SIGALRM handler), and after each
#: pass.  A pass's times are scaled by ``REFERENCE_S`` / (the pass's median
#: sample), so that they read as seconds on a host where the loop takes
#: ``REFERENCE_S``.  The loop spends about half its time on integer
#: arithmetic and half on dict lookups, int allocation and a sort over a
#: table of a few MB, because the shared host slows the two by different
#: amounts, and the program does both.  It allocates no object the garbage
#: collector tracks: samples land at moments that vary from run to run, and
#: tracked allocations there would move the collector's passes, and with
#: them peak memory.  See "Noise" in README.md for why.
REFERENCE_ITERATIONS = 25_000
REFERENCE_S = 0.004
SAMPLES_PER_CALL = 3
SAMPLES_PER_PASS = 10
SAMPLE_INTERVAL_S = 0.25

_TABLE = {i: i * 7919 % 100_003 for i in range(50_000)}
#: keys scattered over the whole table
_KEYS = [i * 104_729 % 50_000 for i in range(3_500)]
#: refilled in key order and sorted by value on every sample
_VALUES = [0] * len(_KEYS)


def host_samples(count: int) -> list[float]:
    """*count* timings of the reference loop, in seconds."""
    samples = []
    get = _TABLE.get
    for _ in range(count):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        for i in range(len(_KEYS)):
            key = _KEYS[i]
            _VALUES[i] = get(key, 0) << 16 | key
        _VALUES.sort()
        samples.append(time.perf_counter() - start)
    return samples


def scale_for(samples: list[float]) -> float:
    """Factor from wall seconds to seconds at the reference host speed,
    given the reference-loop *samples* taken around the timed work."""
    return REFERENCE_S / statistics.median(samples)


def sampled(samples: list[float], fn, /, *args, **kwargs):
    """Call *fn*, adding host-speed samples to *samples* before and during
    the call; returns (start, end, result)."""
    samples += host_samples(SAMPLES_PER_CALL)
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.extend(host_samples(1)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return start, end, result
