"""The host-speed yardstick: a fixed loop timed beside the work.

On a shared VM the CPU speed moves with the other tenants' load: on
the 2-vCPU Xeon VM the first figures come from, by up to 2x from one
moment to the next and by up to ~1.7x over a whole 20-s run.
A figure measured in a slow stretch reads worse for reasons that are
not the program's.  So a run also times :func:`reference_loop`, a fixed
piece of pure-Python work that no change to the program can touch,
beside every timed sample: at each shard or cell boundary inside an
in-process repetition, around each closed-loop burst, before each
set-up.  Each figure is then quoted at a host on which that loop takes
:data:`REFERENCE_MS`:

    time at reference = measured time * REFERENCE_MS / reading
    rate at reference = measured rate * reading / REFERENCE_MS

A repetition or a set-up is scaled by the median of the samples taken
beside it, before the best or the median of them is picked.  A serve
burst is too short to carry its own reading (the loop's speed switches
within a second), so the serve throughput, the upper decile of the
bursts' windows, is scaled by the lower decile of all the run's burst
samples: fast moments against fast moments.  The correction
is partial: in the slowest stretches the program's work slows more than
the loop (1.65x against 1.2x in one pair of runs).
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

#: The loop time the scaled figures are quoted at (ms).  The loop takes
#: 0.09-0.14 ms on the 2-vCPU Xeon host the first figures come from.
REFERENCE_MS = 0.1
#: Timings per calibration; the fastest is the sample.
TRIES = 5
#: Samples in a reading taken on its own (before a set-up or a burst).
READINGS = 10


def reference_loop() -> int:
    total = 0
    for value in range(2000):
        total += value * value
    return total


def _time_once() -> float:
    begun = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - begun) * 1000.0


def calibrate(samples: list[float]) -> float:
    """Append one sample (the fastest of :data:`TRIES` timings, in ms)
    to ``samples``; return the seconds spent, so a caller timing other
    work can leave them out.
    """
    started = time.perf_counter()
    samples.append(min(_time_once() for _ in range(TRIES)))
    return time.perf_counter() - started


def read(count: int = READINGS) -> list[float]:
    """A reading taken now: ``count`` samples."""
    samples: list[float] = []
    for _ in range(count):
        calibrate(samples)
    return samples


def reading_ms(samples: Sequence[float]) -> float:
    """The loop time a set of samples reads: their median."""
    return statistics.median(samples)


def fast_reading_ms(samples: Sequence[float]) -> float:
    """The loop time in a run's fast moments: the lower decile."""
    return statistics.quantiles(samples, n=10)[0]


def scaled_rate(measured: float, reading: float) -> float:
    """A ``measured`` rate quoted at :data:`REFERENCE_MS`."""
    return measured * reading / REFERENCE_MS


def scaled_time(measured: float, reading: float) -> float:
    """A ``measured`` duration quoted at :data:`REFERENCE_MS`."""
    return measured * REFERENCE_MS / reading
