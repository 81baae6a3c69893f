"""CPU seconds corrected for the changing speed of a shared host.

On a shared virtual machine the speed of one core switches between phases
about 1.5x apart every 0.1-10 s, as other guests contend for it, so the CPU
seconds of one operation depend on when it ran: over five 25 s runs the
median CPU time of a grid solve spread by 0.18 (IQR / median).

``SpeedClock`` runs a fixed calibration task (a pure-Python loop and small
numpy dot products, nothing of gfadm) from a SIGALRM handler every
``INTERVAL`` s of wall time.  It divides the CPU seconds the program spent
since the previous sample by the calibration's CPU seconds (the median of
the last three samples, so that one calibration an interrupt lengthened
does not count), which counts the program's work in calibration units, and
reports that count times ``CALIB_S``: CPU seconds at the speed at which one
calibration takes ``CALIB_S``.  The calibration's own CPU time is not
counted.  On the host the figures in README.md come from, repeated grid
solves measured this way varied by 2-5% (coefficient of variation) against
7-14% for their plain CPU time.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL = 0.01
# CPU seconds of one calibration at the reference speed: about its median
# on the reference machine (README.md), so figures read as CPU seconds there
CALIB_S = 4.0e-4

_VEC = np.arange(64.0)


def _calibration() -> float:
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(100):
        s += float(np.dot(_VEC, _VEC))
    return s


class SpeedClock:
    """A clock that advances with the program's CPU time at reference speed.

    ``start`` also counts the CPU time the process spent before it (the
    interpreter's start-up, for a fresh child), at the speed of the first
    calibration.
    """

    def __init__(self):
        self.calib_cpu = 0.0   # CPU seconds spent in calibrations
        self.units = 0.0       # program work up to last_p, in calibrations
        self.last_p = 0.0      # program CPU seconds at the last sample
        self.last_d = 1.0      # CPU seconds of a calibration at the last sample
        self.samples = 0
        self.calibrations = array("d")  # CPU seconds of every calibration
        self._busy = False

    def _program_cpu(self) -> float:
        return time.process_time() - self.calib_cpu

    def _calibrate(self) -> float:
        c0 = time.process_time()
        _calibration()
        return time.process_time() - c0

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        h0 = time.process_time()
        self.calibrations.append(self._calibrate())
        recent = sorted(self.calibrations[-3:])
        d = recent[len(recent) // 2]
        p = h0 - self.calib_cpu
        self.units += (p - self.last_p) / d
        self.last_p, self.last_d = p, d
        self.samples += 1
        self.calib_cpu += time.process_time() - h0
        self._busy = False

    def start(self) -> None:
        h0 = time.process_time()
        self.calibrations.append(self._calibrate())
        self.last_d = self.calibrations[-1]
        self.last_p = h0
        self.units = h0 / self.last_d
        self.calib_cpu = time.process_time() - h0
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Program CPU seconds so far, at the reference speed."""
        while True:  # read again if a sample came in between
            seen = self.samples
            value = CALIB_S * (self.units + (self._program_cpu() - self.last_p)
                               / self.last_d)
            if self.samples == seen:
                return value
