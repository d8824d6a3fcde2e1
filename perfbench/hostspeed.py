"""Rescaling of measured times to a reference speed of the host.

The host is shared, and its speed for interpreted code drifts by up to
2x, in states that last from a fraction of a second to minutes.  So while
the benchmark times something, a timer signal times a fixed reference
computation every SAMPLE_EVERY_S seconds of CPU time, in the middle of
whatever is running.  A measured time, less the samples taken inside it,
is rescaled by REF_S over the mean of the samples taken during it and
around it.  REF_S is close to the reference's typical time on the 2-vCPU
host the README figures come from, so a rescaled time reads in that
host's seconds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import signal
import statistics
import time
from fractions import Fraction

from mpmath import mp

REF_S = 0.0024
SAMPLE_EVERY_S = 0.1
# samples this close to an operation also count for it
SAMPLE_WINDOW_S = 0.5


def reference() -> float:
    """Seconds for a fixed mix of the kinds of interpreted work betheq
    does: rational arithmetic on big integers, 256-bit mpmath complex
    arithmetic, and dict, string and JSON handling.  The collector is off,
    so the program's heap does not reach into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 40):
            s += Fraction(i, i * i + 1)
        with mp.workprec(256):
            z = mp.mpc(1, 1) / 3
            acc = mp.mpc(0)
            for _ in range(90):
                acc = acc * z + 1
        table = {str(i): [i, i * i] for i in range(400)}
        json.loads(json.dumps(table))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def sampling(samples: list, every: float = SAMPLE_EVERY_S):
    """Append (end time, seconds) of a reference timing to `samples` from
    a SIGPROF handler, every `every` seconds of CPU time in the block."""
    def sample(signum, frame):
        seconds = reference()
        samples.append((time.perf_counter(), seconds))

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, every, every)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def rescale(elapsed: float, samples) -> float:
    """`elapsed` seconds at the speed the reference `samples` (seconds
    each) show, as seconds at the reference speed REF_S."""
    return elapsed * REF_S / statistics.fmean(samples)
