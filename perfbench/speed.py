"""Timing in reference seconds: wall time corrected for the CPU's speed.

The benchmark runs on shared virtual machines whose CPUs change speed by up
to 1.9x within minutes, in spells of a few seconds, so plain wall time
spreads by +-15% between runs of the same code.  A `SpeedProbe` interrupts
the process every `interval` seconds (SIGALRM) and times `kernel`, a fixed
piece of work made of what the program spends its time on: small dicts keyed
by exponent tuples, tuple allocation and coefficient arithmetic mod p.

A span timed with `mark` and `since` is reported twice:

- raw seconds: wall time minus the time spent in the probe itself;
- reference seconds: raw seconds times the mean of REF_S / kernel time over
  the samples taken inside the span, that is, the time the span would take
  on a CPU that runs the kernel in REF_S.  A span shorter than the interval
  uses the last sample taken before it.

`PlainClock` has the same interface and reports raw seconds twice; the
traced pass uses it, so that no probe time lands in a traced function.
"""

from __future__ import annotations

import signal
import time

# kernel time on the 2-core Xeon VM the benchmark was written on, at its
# usual speed; any constant would do, it only sets the unit
REF_S = 0.0007

_P = 32003
_A = {(i, j, k): (31 * i + 7 * j + k) % _P + 1 for i in range(3) for j in range(3) for k in range(2)}
_B = {(j, i, k): (13 * i + 5 * j + k) % _P + 1 for i in range(3) for j in range(2) for k in range(2)}


def kernel() -> int:
    """A fixed amount of dict, tuple and modular-arithmetic work."""
    res = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = (res.get(m, 0) + c1 * c2) % _P
            if v:
                res[m] = v
            else:
                res.pop(m, None)
    acc = {}
    for i in range(200):
        key = (i % 13, i % 7)
        acc[key] = (acc.get(key, 0) + i * 7919) % _P
    held = [{tuple(range(i % 5 + 2)): i, (i,): [i, i + 1]} for i in range(120)]
    return len(res) + len(acc) + len(held)


class PlainClock:
    """Raw wall time, with the interface of SpeedProbe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock

    def mark(self):
        return self.clock()

    def since(self, mark) -> tuple:
        raw = self.clock() - mark
        return raw, raw


class SpeedProbe:
    """Samples the CPU's speed while it is started; see the module docstring."""

    def __init__(self, interval: float = 0.05, clock=time.perf_counter, work=kernel):
        self.interval = interval
        self.clock = clock
        self.work = work
        self.samples: list = []   # kernel seconds, one per sample
        self.spent = 0.0          # seconds spent sampling
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = self.clock()
        self.work()
        t1 = self.clock()
        self.samples.append(t1 - t0)
        self.spent += self.clock() - t0
        self._busy = False

    def start(self):
        self.sample()             # so that every span has a sample to use
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def mark(self):
        return self.clock(), self.spent, len(self.samples)

    def since(self, mark) -> tuple:
        """(raw seconds, reference seconds) since mark."""
        t0, spent0, n0 = mark
        raw = self.clock() - t0 - (self.spent - spent0)
        inside = self.samples[n0:] or self.samples[-1:]
        return raw, raw * sum(REF_S / s for s in inside) / len(inside)

    def factor(self) -> float:
        """Mean speed over all samples, as REF_S / kernel time."""
        return sum(REF_S / s for s in self.samples) / len(self.samples)
