"""Timing corrected for the changing speed of a shared machine.

On the 2-vCPU machine this benchmark was built on, identical pure-Python
work ran up to 1.75x slower for stretches of seconds to tens of seconds,
because of load outside the container (steal time stayed at zero).  A
fixed pure-Python kernel slows by the same factor: over 150 s of
alternating kernel and ``gen_fig3(4)`` runs, the medians of 20-s windows
of raw ``gen_fig3`` times spread by 30% (quartile distance over median),
and the medians of their ratios to the adjacent kernel time by 2%; for
``random_drawing(24, 72, s)`` the figures were 16% and 1.5%.

So ``timed`` measures the machine's speed with the kernel just before and
just after the interval and, while the interval runs, every ``PERIOD_S``
from a real-time interval timer, whose handler's time is taken out of the
interval.  The interval is scaled by ``REFERENCE_KERNEL_S`` over the mean
kernel time: the benchmark reports seconds at the machine speed at which
the kernel takes ``REFERENCE_KERNEL_S``.  Raw wall times are reported
alongside.

The kernel uses only the standard library, never triplane, so a change to
triplane cannot change the scale.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The kernel's time on an unloaded core of the reference machine
# (2 vCPUs, Python 3.11.7); it only sets the unit, so it never changes.
REFERENCE_KERNEL_S = 0.003
PERIOD_S = 0.25


def kernel() -> int:
    """Fixed work resembling triplane's: tuple-keyed dicts, strings, Fractions, sorting."""
    counts = {}
    acc = Fraction(0)
    for i in range(3000):
        key = (f"e{i % 97}", i % 7, "fwd" if i & 1 else "bwd")
        counts[key] = counts.get(key, 0) + 1
        if i % 10 == 0:
            acc += Fraction(i % 13 + 1, i % 11 + 1)
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(ordered) + acc.denominator


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class _Probe:
    """Kernel samples taken from a SIGALRM handler while an interval runs."""

    def __init__(self) -> None:
        self.samples = []
        self.handler_s = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.handler_s += time.perf_counter() - t0


def timed(fn, *args, probe: bool = True):
    """Run ``fn(*args)`` and time it at the reference speed.

    Returns (result, exception or None, raw seconds, scaled seconds).  An
    exception from ``fn`` is returned, not raised, so that a failing
    operation is still timed.  With ``probe`` false only the kernel runs
    before and after the interval measure the speed.
    """
    samples = [kernel_s()]
    sampler = _Probe()
    if probe:
        previous = signal.signal(signal.SIGALRM, sampler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # the caller counts it as a failed operation
        result, error = None, exc
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    raw = time.perf_counter() - t0 - sampler.handler_s
    samples += sampler.samples
    samples.append(kernel_s())
    return result, error, raw, raw * REFERENCE_KERNEL_S * len(samples) / sum(samples)


class Meter:
    """Scaled time summed over a sequence of calls, each timed with ``timed``."""

    def __init__(self) -> None:
        self.scaled_s = 0.0

    def call(self, fn, *args):
        result, error, _, scaled = timed(fn, *args)
        self.scaled_s += scaled
        if error is not None:
            raise error
        return result
