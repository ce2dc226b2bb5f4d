"""The machine's current speed, from fixed calibrations.

On a host that shares its cores with other work, the speed of
single-threaded Python code changes over seconds to minutes, by up to a
factor of two on the machine named at REF_S.  The benchmark therefore runs a
calibration next to every measurement and reports times scaled to a
reference speed: measured seconds times the calibration's reference time
over its time measured alongside.  The raw times are printed beside the
scaled ones.

Job times are scaled by ``calibrate``, a pure-Python loop.  Set-up times
are scaled by ``reference_start``, the start of a fresh interpreter that
imports a fixed set of standard-library modules, which slows down with
process start-up and module loading as a worker's set-up does.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from fractions import Fraction

# Seconds ``calibrate`` takes at the reference speed: close to its fastest
# on a shared 2-CPU x86-64 virtual machine with Python 3.11.7, where its
# median was 0.007 s.
REF_S = 0.005

# Seconds ``reference_start`` takes at the reference speed, a round figure
# near its time on the machine named at REF_S (0.15 to 0.17 s there while
# ``calibrate`` took 8 ms).
REF_START_S = 0.1

# What the reference process imports: standard-library modules only, so a
# change to quadlie does not change its time.
REF_START_CODE = (
    "import argparse, dataclasses, decimal, email.parser, fractions, http.client, json, "
    "logging, random, statistics, typing, unittest, xml.dom.minidom"
)

# A calibration younger than this is reused as the one before a measurement.
FRESH_S = 0.1

# Longest time between two calibrations while a measurement runs.
EVERY_S = 0.25


class Speed:
    """Runs measurements with calibrations around and inside them.

    The machine's speed drifts over tenths of a second, so a measurement is
    scaled by calibrations taken next to it: one just before it (the last
    one, if younger than FRESH_S), one every EVERY_S while it runs, and one
    just after it.  The ones inside come from a SIGALRM handler, which
    Python runs in the main thread between two bytecodes of the measured
    code; their time is taken out of the measured time.
    """

    def __init__(self):
        self._renew()

    def _renew(self):
        self._cal = calibrate()
        self._at = time.perf_counter()

    def run(self, fn, *args):
        """(fn(*args), measured seconds, factor from measured to reference seconds)."""
        if time.perf_counter() - self._at > FRESH_S:
            self._renew()
        cals = [self._cal]
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            cals.append(calibrate())
            spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._renew()
        cals.append(self._cal)
        return result, elapsed - spent, REF_S * len(cals) / sum(cals)


def calibrate():
    """Seconds a fixed loop of Fraction arithmetic and dict stores takes now."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    seen = {}
    for i in range(800):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        seen[i] = x.numerator % 7
    return time.perf_counter() - start


def reference_start():
    """Seconds a fresh interpreter takes now to start and run REF_START_CODE."""
    start = time.monotonic()
    # run() with a timeout polls for the exit in steps of up to 50 ms; with
    # stdout piped it first waits for the pipe to close, which happens as
    # the process exits, so the poll ends at once.
    subprocess.run([sys.executable, "-c", REF_START_CODE], stdout=subprocess.PIPE, check=True, timeout=60)
    return time.monotonic() - start
