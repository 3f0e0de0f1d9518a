"""Host-speed probe used to correct pass times for a shared, drifting host.

On a shared virtual machine the same code can run 20-40% slower for
stretches of seconds to minutes while neighbours load the physical core.
A fixed integer loop is timed about ten times a second while a pass runs,
from a SIGALRM handler in the benchmark's own process, so the probe sees the
same core at the same moments as the workload.  The ratio
PROBE_REF_S / probe time is the host's speed relative to a reference host;
its mean over a pass converts measured seconds into reference seconds.

The probe does arithmetic only.  A probe that also walks memory reads slow
whenever the workload has just evicted its data, so it measures the
workload's cache footprint instead of the host.  The probe costs about 1%
of a pass, on every commit alike.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 12000
PROBE_REF_S = 0.001  # probe time on the reference host (2-core Xeon VM, Python 3.11)
PROBE_INTERVAL_S = 0.1


def probe_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def speed_factor(samples) -> float:
    """Reference seconds per measured second, averaged over the probes."""
    return statistics.fmean(PROBE_REF_S / s for s in samples)


class SpeedProbe:
    """Context manager that probes at entry, every PROBE_INTERVAL_S, and at exit."""

    def __enter__(self) -> "SpeedProbe":
        self.samples = [probe_once()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe_once())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_once())

    def factor(self) -> float:
        return speed_factor(self.samples)
