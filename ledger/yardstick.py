"""How fast is the host right now? A fixed piece of work, timed often.

The hosts this benchmark runs on are shared: a neighbour on the same
physical core slows every Python process down by about half, for
milliseconds to seconds at a time, and the share of a minute it is
there moves between 0 and 1. Wall time therefore measures the
neighbour as much as the simulator (README.md, "Noise"). The yardstick
is a *tick* of fixed interpreter work that a timer signal runs every
``INTERVAL_S`` of wall time inside the measured process while
``Engine.run`` is timed, so that the ticks meet the same host as the
code around them. A host-time metric
is then reported on a *reference host*, one on which a tick takes
``REFERENCE_TICK_S``:

    reported seconds = measured seconds x REFERENCE_TICK_S / mean tick

The tick touches nothing of ``repro``: a change to the simulator cannot
move it.
"""

from __future__ import annotations

import signal
import time

#: wall time between two ticks.
INTERVAL_S = 0.02
#: what one tick takes on the reference host (about what it takes on
#: the VM this was built on when no neighbour is there).
REFERENCE_TICK_S = 0.001


def tick() -> None:
    """The fixed work: dictionary reads and writes, integer arithmetic,
    a loop; a kilobyte-sized working set, so that it measures the speed
    of the interpreter and not what the simulator left in the caches."""
    counts: dict = {}
    for i in range(9000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


class Yardstick:
    """Runs :func:`tick` on a wall-clock timer in the main thread.

    Python runs a signal handler between two bytecodes of whatever the
    main thread is doing, so the ticks interleave with ``Engine.run``
    without the engine knowing (the simulation's results do not change:
    ``run.py`` checks the digest against the traced repeat, which has no
    ticks); what they cost is kept in ``tick_s`` for the caller to take
    off its own timing.
    """

    def __init__(self) -> None:
        self.ticks = 0
        self.tick_s = 0.0

    def _on_timer(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        tick()
        self.tick_s += time.perf_counter() - begin
        self.ticks += 1

    def start(self) -> None:
        """Tick once now (so that the shortest run has a tick), then on
        the timer."""
        self._on_timer(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def host_speed(self) -> float:
        """Reference-host seconds per measured second (1 on the
        reference host, below 1 on a slower or busier one)."""
        return REFERENCE_TICK_S * self.ticks / self.tick_s
