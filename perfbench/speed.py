"""Machine-speed sampler: host seconds at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed changes under
it: on the 2-vCPU VM it was built on, a fixed pure-Python loop takes
either about 0.35 ms or about 0.6 ms, and the machine switches between
the two every few seconds, for minutes at a time.  Process CPU time
moves with wall time there, so the slowdown is contention for the core,
not stolen time, and neither CPU time nor the fastest of a run's passes
removes it: two sets of ten runs of the same code made in different
phases disagreed by more than 25%.

While a :class:`SpeedSampler` is active, a ``SIGALRM`` every
:data:`PERIOD_S` seconds runs :func:`reference` (a fixed dict-and-int
loop like the work of the program's bytecode interpreter) and keeps
``NOMINAL_S / its time``: the machine's speed at that instant, relative
to the nominal speed.  A window's *reference seconds* are its wall
seconds, less the time the samples took, times the mean of those speeds.
They estimate how long the window would have taken had the machine run
at nominal speed all the time.  The reference loop does not run any of
the program's code, so a change to the program moves the reference
seconds as it moves the wall seconds.

On the machine above, this cut the interquartile range over median of
back-to-back server operations from 0.25 to 0.06, and of single trace
operations from 0.21--0.38 to 0.03--0.12; the samples cost about 1% of
the window.  Python runs the handler between bytecodes, so a long numpy
call delays a sample rather than losing it.
"""

from __future__ import annotations

import signal
import time

#: Iterations of one reference loop: about 0.4 ms.
REF_ITERS = 2500
#: Seconds between samples.
PERIOD_S = 0.05
#: Seconds one reference loop takes at nominal speed, about its time in
#: the fast phase of the 2-vCPU Xeon VM the benchmark was built on.  It
#: only scales the reference seconds; it is a constant so that the
#: scale does not move from run to run.
NOMINAL_S = 0.0004


def reference() -> float:
    """Seconds one fixed reference loop takes now."""
    perf = time.perf_counter
    table: dict[int, int] = {}
    acc = 0
    started = perf()
    for i in range(REF_ITERS):
        key = i & 255
        acc = (acc + table.get(key, i) * 3) & 0xFFFF
        table[key] = acc
    return perf() - started


class SpeedSampler:
    """Samples the machine's speed while active; one window at a time.

    ``with sampler:`` opens a window and times it.  The speed is sampled
    just before the window's clock starts, every :data:`PERIOD_S`
    seconds while it runs, and just after it stops.  The timer's samples
    run inside the window; :attr:`spent` is their time.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0
        self.wall = 0.0

    def _sample(self) -> float:
        seconds = reference()
        self.speeds.append(NOMINAL_S / seconds)
        return seconds

    def _tick(self, *_) -> None:
        self.spent += self._sample()

    def __enter__(self) -> "SpeedSampler":
        self.speeds, self.spent, self.wall = [], 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def speed(self) -> float:
        """Mean speed over the window, relative to nominal."""
        return sum(self.speeds) / len(self.speeds)

    @property
    def seconds(self) -> float:
        """The window's wall seconds without the samples' time."""
        return self.wall - self.spent

    @property
    def reference_seconds(self) -> float:
        """The window's seconds at nominal speed."""
        return self.seconds * self.speed
