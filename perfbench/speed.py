"""Times in reference seconds: wall time corrected for the CPU's speed.

A shared host's CPU changes speed while a process runs: the same pure-Python
loop takes 1.0x or 1.7x as long, in spells from tens of milliseconds to
seconds, with no relation to the program.  A run's median cannot average
that away, so every time the benchmark reports is corrected by a probe.

The probe is a fixed pure-Python loop of 40-80 us that touches nothing
of the program.  A Meter runs it from a SIGPROF handler every PROBE_EVERY_S
of CPU time and records when it ran and how long it took.  A measured
interval, less the probes inside it, is scaled by REF_PROBE_S / probe time,
averaged over the probes inside the interval (mean of the inverse, since
each probe stands for an equal slice of CPU time), or over the MIN_NEAR
probes closest to it when fewer ran inside.  The result is the time the
same work takes on a CPU that runs the probe in REF_PROBE_S.  A program
change that adds or removes work moves it exactly as it moves wall time.

Pool workers forked by the program re-arm the timer in the child and append
their samples to a file, so a parallel scan is corrected by the speed of the
CPUs its workers ran on.
"""

from __future__ import annotations

import bisect
import os
from time import perf_counter

PROBE_EVERY_S = 0.01
REF_PROBE_S = 40e-6
MIN_NEAR = 4
CALIBRATION_PROBES = 200


_BIG = 3**200
_MERSENNE = (1 << 127) - 1


def probe() -> int:
    """Small-int arithmetic, dict stores and big-int modular powers, the
    operations qtr's own loops are made of."""
    x, seen = 1, {}
    for i in range(100):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen[x & 255] = i
        if x % 7 == 3:
            x += 1
    for i in range(15):
        x += pow(_BIG + i, 5, _MERSENNE) & 255
    return x


def calibrate(count: int = CALIBRATION_PROBES) -> list[tuple[float, float]]:
    """Run the probe count times in a row; return (start, seconds) samples."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        probe()
        samples.append((start, perf_counter() - start))
    return samples


def factor(durations: list[float]) -> float:
    """Reference seconds per wall second at the speed these probes saw."""
    return REF_PROBE_S * sum(1 / d for d in durations) / len(durations)


class Meter:
    """Samples the CPU's speed with the probe from a SIGPROF handler."""

    def __init__(self, sink: str):
        # Imported here: the setup probe imports this module before it times
        # `import qtr.cli`, which loads signal too.
        import signal

        self.signal = signal
        self.samples: list[tuple[float, float]] = []
        self.sink = sink
        self.fd: int | None = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        seconds = perf_counter() - start
        if self.fd is None:
            self.samples.append((start, seconds))
        else:
            os.write(self.fd, f"{start!r} {seconds!r}\n".encode())

    def _arm(self) -> None:
        self.signal.setitimer(self.signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def _in_child(self) -> None:
        self.fd = os.open(self.sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._arm()

    def start(self) -> None:
        self.signal.signal(self.signal.SIGPROF, self._tick)
        os.register_at_fork(after_in_child=self._in_child)
        self._arm()

    def stop(self) -> list[tuple[float, float]]:
        """Stop sampling; return every sample of this process and its
        forked children, in time order."""
        self.signal.setitimer(self.signal.ITIMER_PROF, 0, 0)
        samples = list(self.samples)
        if os.path.exists(self.sink):
            with open(self.sink) as fh:
                samples += [tuple(map(float, line.split())) for line in fh if line.strip()]
            os.remove(self.sink)
        return sorted(samples)


def reference_seconds(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """The interval [start, end) in reference seconds.

    samples must be sorted by start time.
    """
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
    inside = [d for _, d in samples[lo:hi]]
    near = inside
    if len(near) < MIN_NEAR:
        # Widen [lo, hi) one probe at a time, to whichever side is closer.
        while hi - lo < MIN_NEAR and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = [d for _, d in samples[lo:hi]]
    if not near:
        raise ValueError("no speed samples")
    return max(end - start - sum(inside), 0.0) * factor(near)
