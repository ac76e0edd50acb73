"""Machine-speed calibration.

The 2-core host this benchmark was written on shares its cores with other
tenants.  Its speed switches between a fast and a slow state several times
a second and drifts over tens of seconds; measured wall times of the same
work spread by 25-30% from run to run, more than any useful regression
bound.  Every timed region is therefore sampled with a fixed calibration
kernel every :data:`EVERY_S`: small numpy and pure-Python work of the kind
the program does, allocation-free and independent of ``repro``.  Each
stretch of time between two samples is scaled to a machine on which the
kernel takes :data:`NOMINAL_S`::

    scaled = measured * NOMINAL_S / mean(kernel before, kernel after)

Scaling brings the run-to-run spread of the stream workloads' throughput
and latency down to 2-8%.  A change to the program never changes the
kernel, so it moves a scaled time exactly as it moves the measured one.
Runs print the measured wall times and the kernel samples on their
``detail`` line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time, in seconds, on the reference machine: about the usual
#: speed of the host the benchmark was written on.
NOMINAL_S = 0.001
#: Kernel runs per sample (the sample is their median).
REPEATS = 3
#: Seconds of timed work between two samples.
EVERY_S = 0.1

_RNG = np.random.default_rng(12345)
_WEIGHTS = _RNG.normal(size=(16, 32))
_ROWS = _RNG.normal(size=(64, 16))
_HIDDEN = np.empty((64, 32))
_PEAK = np.empty((64, 1))


def _kernel() -> float:
    """Allocation-free, so the program's heap state cannot change its
    speed: preallocated numpy outputs and float arithmetic."""
    total = 0.0
    for _ in range(40):
        np.matmul(_ROWS, _WEIGHTS, out=_HIDDEN)
        np.maximum(_HIDDEN, 0.0, out=_HIDDEN)
        np.max(_HIDDEN, axis=1, keepdims=True, out=_PEAK)
        np.subtract(_HIDDEN, _PEAK, out=_HIDDEN)
        np.exp(_HIDDEN, out=_HIDDEN)
        for step in range(60):
            total += step * 0.5
    return total


def kernel_seconds() -> float:
    """Median time of :data:`REPEATS` kernel runs, now."""
    clock = time.perf_counter
    times = []
    for _ in range(REPEATS):
        started = clock()
        _kernel()
        times.append(clock() - started)
    return statistics.median(times)


def sample(samples: list) -> None:
    """Append one ``(start, end, kernel seconds)`` sample."""
    started = time.perf_counter()
    seconds = kernel_seconds()
    samples.append((started, time.perf_counter(), seconds))


def scaled_span(samples: list) -> tuple[float, float]:
    """``(measured, scaled)`` seconds between consecutive samples, each
    stretch scaled by the mean of the two kernel times around it."""
    measured = scaled = 0.0
    for (_s0, end, before), (start, _e1, after) in zip(samples, samples[1:]):
        measured += start - end
        scaled += (start - end) * NOMINAL_S * 2.0 / (before + after)
    return measured, scaled


def factors_at(samples: list, times) -> np.ndarray:
    """Scale factor at each of ``times``, from the samples around it."""
    starts = np.array([start for start, _end, _seconds in samples])
    kernels = np.array([seconds for _start, _end, seconds in samples])
    after = np.minimum(np.searchsorted(starts, times), len(starts) - 1)
    before = np.maximum(after - 1, 0)
    return NOMINAL_S * 2.0 / (kernels[before] + kernels[after])


def factor(kernel: float) -> float:
    """Scale for a moment at which the kernel took ``kernel`` seconds."""
    return NOMINAL_S / kernel
