"""Host speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes
within a tenth of a second and drifts by a fifth or more over minutes, in
CPU time as much as in wall time.  A fixed kernel of numpy calls, the kind
of work fchsim's steps are made of, slows down with it.  The kernel has
three parts, timed separately: elementwise calls on a 64 x 64 field (call
overhead), on a 256 x 256 field (cache and memory traffic) and an FFT round
trip at 128 x 128.  The host speed is the geometric mean of each part's
reference time over its measured time.

On a 2-vCPU Xeon VM, with three solves in each of four processes, the solve
times had a CV of 0.076-0.093 per workload; with every step scaled by the
host speed measured around it the CV was 0.013-0.021, lower than with any
one part alone.  Pure-Python kernels tracked the solves less well, and one
ran 1.6 times slower in some processes than in others.

So the untraced runs run the kernel at every step boundary and at the start
and end of each run (``Tracer.mark``), and time only the intervals between
kernel runs.  Each interval is reported at the reference host speed: its
length times the mean of the host speeds measured at its two ends.

Set-up is mostly imports, interpreter work, and numpy's import is part of
it, so a set-up probe is scaled by a pure-Python loop instead, timed
``REPEATS`` times before the imports and again after set-up.  Over 70
probes, medians of seven consecutive ones spread by 19 % raw, 15 % scaled
by the numpy kernel and 6 % scaled by the loop.

Neither kernel uses anything from fchsim, so a change to the program cannot
move them.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

# Each part's time, and the loop's, on the host the bounds were measured on;
# they only set the scale of the reported times.
REF_PART_S = (0.00035, 0.00045, 0.0006)
REF_LOOP_S = 0.00028
REPEATS = 21
_FIELDS = []


def _parts():
    import numpy as np

    if not _FIELDS:
        _FIELDS.extend(np.linspace(0.0, 1.0, n * n).reshape(n, n) for n in (64, 256, 128))
    small, large, fft = _FIELDS

    def calls():
        a = small
        for _ in range(12):
            a = np.roll(a, 1, 0) * 0.5 + a * 0.5

    def traffic():
        a = large
        for _ in range(2):
            a = np.roll(a, 1, 0) * 0.5 + a * 0.5

    def transform():
        np.fft.irfft2(np.fft.rfft2(fft), s=fft.shape)

    return calls, traffic, transform


def measure() -> tuple[float, ...]:
    """Run the kernel once; seconds taken by each part."""
    times = []
    for part in _parts():
        t0 = time.perf_counter()
        part()
        times.append(time.perf_counter() - t0)
    return tuple(times)


def speed(times: tuple[float, ...]) -> float:
    """Host speed relative to the reference from one ``measure()``."""
    return math.exp(sum(math.log(ref / t) for ref, t in zip(REF_PART_S, times)) / len(times))


def loop() -> float:
    """About 0.3 ms of float arithmetic in the interpreter."""
    x = 0.5
    for i in range(2500):
        x = x * 0.999 + 0.001 * (i & 7)
    return x


def loop_speed(repeats: int = REPEATS) -> float:
    """Host speed relative to the reference from the median of ``repeats``
    loop runs after an untimed one."""
    loop()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return REF_LOOP_S / statistics.median(times)
