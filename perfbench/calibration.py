"""Machine-speed calibration for the end-to-end times.

The reference machine is a shared host whose speed drifts over minutes:
a Wigner map at I = 15/2 takes 0.45-0.5 s in fast phases and 0.8 s in
slow ones, with process time equal to wall time, so no descheduling
shows.  A run can sit wholly in one phase, which no run length averages
out.  So a run times a fixed kernel that uses no spincat code between
its operations, for a set share of the run's time, and scales its
end-to-end times by ``KERNEL_REF_S`` over the kernel's mean time in that
run.  A change to spincat moves the scaled times as much as the raw
ones; a slow phase moves the kernel and the operations together and
cancels.
"""

import statistics
import time

import numpy as np

# A kernel time of the reference machine (2 cores, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1), which measured 0.015-0.03 s across its phases: the
# scaled times read as seconds at that machine's speed when the kernel
# takes this long.
KERNEL_REF_S = 0.025

_RNG = np.random.default_rng(0)
_SYM = _RNG.standard_normal((16, 16))
_SYM = _SYM + _SYM.T


def kernel():
    """400 small LAPACK calls through numpy.

    Of the kernels tried (an interpreter loop, element-wise special
    functions over 20,000 points, complex exponentials with a 4096 x 3
    least-squares fit, and this one), this one follows the machine's
    phases most nearly one to one: over a 200-second trace, in 10-second
    windows, log operation time against log kernel time had slopes of 0.93
    to 1.10 for fid-mode measure, measure at I = 7/2, a Wigner map at
    I = 7/2 and SMP objective calls, with correlations of 0.96 to 0.97.
    The special functions had slopes of 1.7 to 1.9, so scaling by them
    left half of each phase in.
    """
    for _ in range(400):
        np.linalg.eigh(_SYM)


class Calibration:
    """Kernel times of one run, in proportion to the time the run spends
    between samples, so that each stretch of the run weighs in the factor
    as much as in the operations' times."""

    SHARE = 0.05   # kernel seconds per second of the run

    def __init__(self):
        self.times = []
        self._last = time.perf_counter()

    def sample(self):
        """Run the kernel for SHARE of the time since the last sample, and
        at least once."""
        due = self.SHARE * (time.perf_counter() - self._last)
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)
            spent += self.times[-1]
            if spent >= due:
                break
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Multiplier that brings this run's times to the reference speed."""
        return KERNEL_REF_S / statistics.fmean(self.times)
