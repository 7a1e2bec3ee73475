"""Machine-speed probe: scale measured times to one fixed machine speed.

The reference machine is a shared virtual machine whose speed drifts by
up to about 1.8x within minutes, in steps that last from one second to
tens of seconds.  That drift is the same for the program and for any
other pure-Python code running at the same moment, so the benchmark
samples it: while a round runs, SIGALRM fires every INTERVAL_S and the
handler times a fixed pure-Python integer kernel (a probe).  A time
interval of the round is then reported twice:

* *own*: its length minus the probes that ran inside it (what the
  program itself took);
* *scaled*: own x REFERENCE_PROBE_S x the mean of 1 / probe time over
  the probes inside the interval and the nearest probe on either side,
  i.e. the time the interval would have taken had the machine run the
  whole time at the speed at which the probe kernel takes
  REFERENCE_PROBE_S.

The probe uses only built-in integer arithmetic, so the program under
test cannot change its cost.  REFERENCE_PROBE_S is the probe time on the
reference machine when it is quiet (the 5th percentile of 40 s of
back-to-back probes), so scaled times read like times on that quiet
machine.  The kernel takes about 4 ms there; at one probe every 0.25 s
the probes add under 2 % to a round, and that time is subtracted.
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

PROBE_ITERATIONS = 12000
REFERENCE_PROBE_S = 0.0038
INTERVAL_S = 0.25


def _kernel(n: int) -> int:
    acc = 0
    for i in range(1, n):
        a = 3 * i
        b = (i + 7) * (i + 1)
        g = gcd(a, b)
        acc += a // g - b // g + (a * b) % 1000003
    return acc


class SpeedProbe:
    """Probes taken on a timer, as (start, end) perf_counter pairs."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.on_sample = None     # called with each probe's duration
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:        # the timer fired during a probe taken by hand
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel(PROBE_ITERATIONS)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        if self.on_sample is not None:
            self.on_sample(t1 - t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(own, scaled) seconds for the interval [a, b] of perf_counter."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        own = (b - a) - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        near = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        if not near:
            raise RuntimeError("no speed probe near the measured interval")
        inverse = sum(1.0 / (self.ends[k] - self.starts[k]) for k in near) / len(near)
        return own, own * REFERENCE_PROBE_S * inverse
