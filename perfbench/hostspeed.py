"""Host-speed probe: rescales pass and set-up times to one reference host speed.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
for the same instructions drifts by tens of percent within seconds and
from minute to minute, as other tenants load the same cores.  A pass's
wall time follows that drift, so two runs of the same code disagree by
more than the differences the benchmark must resolve.

While an untraced pass runs, an interval timer interrupts the program
every ``INTERVAL_S`` seconds, and the signal handler times a fixed pure
Python loop that shares no code or data with llfisher.  Its median time
during one invocation measures the host's speed over that invocation.
The invocation's own time (its wall time less the loop's) is then scaled
by ``REF_LOOP_S`` over that median: the time the invocation would have
taken at the speed where the loop takes ``REF_LOOP_S``.  A change to the
program moves the rescaled time as it moves the wall time; a change of
the host's speed moves both the wall time and the loop, and cancels.
Set-up processes time the same loop before and after their work, in
their own process, and are rescaled the same way.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.05
LOOP_ITERATIONS = 10_000
# median loop time on the host the benchmark was defined on: a 2-vCPU
# "Intel(R) Xeon(R) Processor" virtual machine with CPython 3.11.7
REF_LOOP_S = 0.95e-3


def calibration_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += (i * i) % 7
    return total


def loop_times(n: int) -> list:
    """Seconds of each of ``n`` calibration loops run back to back."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return times


class SpeedProbe:
    """Loop times sampled at a fixed interval while ``sampling`` is active."""

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        self.samples += loop_times(1)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


def rescale(invocations: list) -> tuple:
    """(own seconds, seconds at the reference speed) of a pass.

    ``invocations`` holds one (wall seconds, loop samples taken during it)
    pair per invocation, or per set-up process.  An invocation too short to hold a sample takes
    the median speed of the whole pass.
    """
    every = [s for _, samples in invocations for s in samples]
    if not every:
        raise RuntimeError("the host-speed probe took no sample in a whole pass")
    pass_loop = statistics.median(every)
    own = ref = 0.0
    for wall, samples in invocations:
        seconds = wall - sum(samples)
        loop = statistics.median(samples) if samples else pass_loop
        own += seconds
        ref += seconds * REF_LOOP_S / loop
    return own, ref
