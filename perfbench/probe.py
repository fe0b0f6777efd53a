"""Host speed probe.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to about 2x over seconds to minutes as other tenants come and go.  A
wall time taken on such a host mixes the program's cost with the host's
state.  `SpeedProbe` measures the host's state while the ops run: a timer
signal interrupts the timed ops every `period` seconds and times a fixed
pure-Python kernel (dict, list, tuple hashing and small integer
arithmetic, the operations the package spends its time on).  The
handler's time is subtracted from the op's time, so ops are timed without
it.

`factor()` is the mean kernel time over the run divided by
`REFERENCE_KERNEL_S`, the kernel's usual time on the reference host
(2 vCPUs, Python 3.11.7).  Dividing a wall time by it gives the time the
op would have taken at the reference speed.  The kernel is the
benchmark's own code, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: The kernel's usual time on the reference host.  It only scales the
#: reported values; any fixed constant would do.
REFERENCE_KERNEL_S = 0.0025

_KEYS = list(range(1000))
_TUPLE = tuple(range(32))


def kernel() -> int:
    counts = {}
    acc = 0
    for i in range(8000):
        k = (i * 7919) & 2047
        counts[k] = counts.get(k, 0) + 1
        acc += _KEYS[i % 1000]
    for i in range(100):
        acc ^= hash(_TUPLE + (i,))
    x = 1
    for i in range(1, 300):
        x = x * 12345 + i
    return acc + (x & 1)


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedProbe:
    """Appends a kernel time to `samples` every `period` seconds while
    armed.  A sample's time is to be subtracted from the interval it
    interrupted."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(time_kernel())

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self) -> float:
        """Mean kernel time over the reference time: above 1 on a slower
        host.  Raises if there is no sample."""
        if not self.samples:
            raise ValueError("the speed probe took no sample")
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
