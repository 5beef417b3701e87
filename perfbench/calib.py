"""Reference-speed normalisation of the benchmark's timings.

On a shared machine the same code runs up to 2x slower for seconds at a
time, because neighbours load the host. A fixed pure-Python kernel,
independent of the program (a greedy LZ77 parse of a fixed 40 KiB
buffer: byte indexing, dict lookups, compare loops, the same mix of
interpreter work as the tokenizer), is timed every
:data:`CADENCE_S` seconds between the benchmark's operations.
Each operation's time is scaled by ``NOMINAL_KERNEL_S / local kernel
time`` (:meth:`Calibrator.factor_at`), which cancels the host's speed
swings: the end-to-end times are reported as if the machine ran at the
reference speed, whose kernel time is :data:`NOMINAL_KERNEL_S`.

The raw (unscaled) values are kept next to them in the run's details.
A change to the program cannot change the kernel, so a real speed-up
or slow-down of the program shows in full.

The scaling is a model: it assumes the program slows down as much as
the kernel. Work done in C, numpy or worker processes slows down less,
so on a loaded host it is over-corrected and reads faster than it
would at the reference speed. The kernel speed of every run is kept in
its details, so runs made at very different speeds can be told apart.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Tuple

import inputs

#: Kernel time at the reference speed (a 2-vCPU x86-64 VM, CPython 3.11).
NOMINAL_KERNEL_S = 0.0060

#: Seconds between kernel samples while operations run.
CADENCE_S = 0.25

_DATA = inputs.document(7, "syslog", 40 * 1024, "calibration")


def kernel(data: bytes = _DATA) -> int:
    """Greedy LZ77 parse with a dict of last positions (fixed work)."""
    head = {}
    n = len(data)
    i = 0
    tokens = 0
    while i < n - 3:
        # Integer keys hash the same in every process (bytes keys
        # follow PYTHONHASHSEED, which would shift the kernel's time).
        key = data[i] | data[i + 1] << 8 | data[i + 2] << 16
        j = head.get(key)
        head[key] = i
        length = 1
        if j is not None and i - j < 4096:
            length = 3
            while i + length < n and length < 258 \
                    and data[j + length] == data[i + length]:
                length += 1
        tokens += 1
        i += length
    return tokens


class Calibrator:
    """Kernel samples over time and the speed factor they imply."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: List[Tuple[float, float]] = []  # (mid time, seconds)
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self._last = end

    def sample_each_cpu(self) -> None:
        """One sample on each CPU this process may use, recorded as
        their mean: for work spread over worker processes, whose CPUs
        need not share this process's momentary speed."""
        if not hasattr(os, "sched_setaffinity"):
            self.sample()
            return
        cpus = sorted(os.sched_getaffinity(0))
        times = []
        start = time.perf_counter()
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                begin = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - begin)
        finally:
            os.sched_setaffinity(0, cpus)
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, statistics.fmean(times)))
        self._last = end

    def tick(self) -> None:
        """Take a sample when the last one is CADENCE_S old."""
        if self.enabled and time.perf_counter() - self._last >= CADENCE_S:
            self.sample()

    def factor_at(self, when: float) -> float:
        """``NOMINAL_KERNEL_S / kernel time`` around ``when``: below 1
        while the machine runs slower than the reference speed. The
        kernel time is the mean of the samples just before and just
        after ``when``."""
        if not self.samples:
            return 1.0
        times = [t for t, _ in self.samples]
        pos = bisect.bisect_left(times, when)
        near = self.samples[max(0, pos - 1):pos + 1]
        return NOMINAL_KERNEL_S / statistics.fmean(d for _, d in near)

    def scale(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds * self.factor_at(start + seconds / 2)

    def median_kernel_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
