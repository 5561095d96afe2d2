"""How fast the host runs right now, measured next to the program.

The host of a small VM drifts: the same ``zerofiber`` pass can take 30-50 %
longer a minute later, and the slow spells last from a fraction of a second
to minutes.  A fixed reference timed close to the program's own work, and
doing the same kind of work, slows down with it.  The benchmark therefore
reports times rescaled to the reference's nominal speed:

    time at reference speed = wall time * nominal time / reference time

Pass times use ``reference_work()``, pure-Python ``Fraction`` and ``dict``
arithmetic (the kind of work ``Cyc`` does) timed in the same thread as the
passes.  Set-up times use ``time_interpreter_start()``, a fresh
interpreter that starts and exits, timed just before each set-up probe.
Neither touches ``zerofiber``, so no change to it can alter them: a change
that makes the program faster or slower moves the rescaled time by the same
share as the wall time, and only the host's drift cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The nominal seconds of one reference_work() call.  Any fixed value would
# do: it only sets the scale of the reported times, and the commits being
# compared share it.  This one is about the mean sample during a pass on the
# 2-vCPU Linux VM (Python 3.11) of the first baseline, so that rescaled
# pass times read close to the wall times seen there.
REF_NOMINAL_S = 0.0033
# The nominal wall seconds of time_interpreter_start(), about its median on
# the same machine; it sets the scale of set-up times the same way.
START_NOMINAL_S = 0.05
# Wall seconds between samples while a pass runs.
SAMPLE_INTERVAL_S = 0.1


def reference_work() -> Fraction:
    """A fixed pure-Python computation: 1.6 ms on a quiet host with warm
    caches, about twice that between two stretches of the program's work.

    The collector is held off while it runs, so that a collection of the
    program's objects is never charged to the reference."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        acc: dict[int, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(400):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
            acc[i % 13] = acc.get(i % 13, 0) + x
        return x
    finally:
        if was_enabled:
            gc.enable()


def time_interpreter_start() -> float:
    """Wall seconds of a fresh ``python3 -c pass`` of this interpreter.

    A set-up probe spends most of its time on the same things: process
    creation, loading the interpreter and its site imports.  The pure-Python
    reference_work() tracks that far less well."""
    t0 = time.perf_counter()
    # No timeout: with one, wait() polls with sleeps of up to 50 ms, which
    # would land in the measured time.
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Sampler:
    """Times reference_work() every SAMPLE_INTERVAL_S of wall time while the
    ``with`` block runs, from a SIGALRM handler.  Python runs the handler in
    the main thread between two bytecodes of whatever the program is doing,
    so the samples interleave with the program's work evenly in time, inside
    long cases as well as between short ones.  Their mean is the host's
    speed averaged over the block, weighted as the block's wall time is."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        # A signal that arrives while a sample runs (the host stalled the
        # process for a whole interval) is dropped, so samples never nest.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Wall seconds the samples themselves took."""
        return sum(self.samples)

    def rescale(self, wall_s: float) -> float:
        """``wall_s`` (without the samples' own time) at reference speed."""
        if not self.samples:
            raise RuntimeError("no speed sample was taken; the block was too short")
        return wall_s * REF_NOMINAL_S / statistics.fmean(self.samples)
