"""Host-speed sampling while delaynet runs, to time invocations at a fixed speed.

The CPU of the host this benchmark was written on changes speed within
seconds, by up to 1.75x, and nothing in the process can see it: CPU time
equals wall time and there is no steal time.  Over 30-s windows the median
time of the same invocation moved by 21% to 26% (IQR/median), so two sets of
runs of the same code could not agree within any usable bound.

``SpeedSampler`` measures the speed while an invocation runs.  A SIGALRM
timer interrupts the process every ``PERIOD_S`` of wall time, and the
handler times a fixed computation: RK4 of one Chua node over ``STEPS``
steps in plain numpy, the same mix of small array operations and
interpreter work as delaynet's, and no delaynet code.  ``timed`` returns an
invocation's wall time and its time at the reference speed, at which that
computation takes ``REF_S``:

    (wall - time spent in samples) * mean(REF_S / sample time)

over the samples taken during the invocation.  Since the samples are evenly
spaced in wall time, the mean is the invocation's average speed.  An
invocation too short to be sampled uses the last sample before its end.
Signal handlers run between bytecodes of the main thread and touch nothing
of delaynet's, so outputs do not change.  On the host above the scaled time
of the same invocation spread 1.6% to 2.5% over 30-s windows, where the wall
time spread 21% to 26%.

Import, which set-up is made of, did not follow that computation's speed.
``import_sample`` times import work instead: loading fresh copies, under
private names, of pure-Python standard-library modules (``IMPORT_MODULES``),
which reads their cached bytecode, unmarshals it and runs the module bodies.
Set-up is scaled by ``IMPORT_REF_S`` over that time.  Over groups of 5 fresh
processes the median set-up time spread 32%, and 4.2% once scaled.
"""

from __future__ import annotations

import importlib.util
import signal
import statistics
import time

import numpy as np

import reference

clock = time.perf_counter
PERIOD_S = 0.05
STEPS = 30
REF_S = 0.0025
_FIELD = reference.chua_field()
_X0 = np.array([0.1, 0.2, 0.3])
IMPORT_MODULES = ("_pydecimal", "argparse", "configparser", "difflib", "pydoc", "tarfile")
IMPORT_REF_S = 0.012
IMPORT_SAMPLES = 3


def sample() -> float:
    """Time of one run of the fixed computation."""
    start = clock()
    reference.rk4_ode(_FIELD, _X0, 1e-3, STEPS)
    return clock() - start


def _load_copies(origins: list[str]) -> None:
    """Load each file as a new module that is not entered in sys.modules."""
    for origin in origins:
        spec = importlib.util.spec_from_file_location("_speed_copy", origin)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def import_sample() -> float:
    """Median time of loading copies of IMPORT_MODULES, after one untimed
    load that imports the modules they import."""
    origins = [importlib.util.find_spec(name).origin for name in IMPORT_MODULES]
    _load_copies(origins)
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = clock()
        _load_copies(origins)
        times.append(clock() - start)
    return statistics.median(times)


class SpeedSampler:
    """Samples the host speed every PERIOD_S while active (``with`` block)."""

    def __init__(self):
        self.times: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.times.append(sample())

    def __enter__(self):
        for _ in range(5):  # warm-up: the first runs in a process are slower
            sample()
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """``fn(*args)``, its wall time and its time at the reference speed."""
        first = len(self.times)
        start = clock()
        result = fn(*args)
        wall = clock() - start
        inside = self.times[first:]
        if inside:
            net = wall - sum(inside)
            return result, wall, net * float(np.mean([REF_S / t for t in inside]))
        return result, wall, wall * REF_S / self.times[-1]
