"""Machine speed, sampled while the benchmark runs.

On a few cores of a shared host, each core runs the same Python and numpy
code up to about 1.6x slower for seconds at a time while its neighbours are
busy (measured on 2 vCPUs of a 2.1 GHz Xeon VM), and the slow spells differ
from core to core. Wall time alone then measures the neighbours as much as
the program.

A Sampler runs a fixed calibration kernel every PERIOD_S of wall time from a
SIGALRM handler, so on the program's own thread and core (``run.py`` pins
the run and its set-up interpreters to one core), between two of its Python
bytecodes. An interval's reference seconds are its wall time, less the
time the handler took inside it, divided by its slowdown: the mean time of
the calibrations inside it over CAL_REF_S. CAL_REF_S is a fixed constant
(about the calibration's time on that Xeon when its core is quiet), so
reference seconds compare across runs and commits. The handler costs about
2% of the run, and none of it is counted.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
CAL_REF_S = 1e-3


class _Calibration:
    """Small Cholesky solves, fancy indexing and a 128x128 product, as the program does."""

    def __init__(self):
        gen = np.random.default_rng(0)
        a = gen.standard_normal((24, 24))
        self.spd = a @ a.T + 24.0 * np.eye(24)
        self.rhs = gen.standard_normal(24)
        self.square = gen.standard_normal((128, 128))
        self.rows = [[j for j in range(24) if j != i] for i in range(24)]

    def __call__(self):
        acc = 0.0
        for i in range(12):
            chol = np.linalg.cholesky(self.spd)
            acc += float(np.linalg.solve(chol, self.rhs) @ self.rhs)
            acc += float(self.spd[np.ix_(self.rows[i], self.rows[i])].sum())
            if i % 4 == 0:
                acc += float((self.square @ self.square)[0, 0])
        return acc


class Sampler:
    """Calibrates every `period_s` of wall time while inside the ``with`` block."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.starts, self.ends = [], []
        self._calibrate = _Calibration()
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._calibrate()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self):
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _inside(self, t0, t1):
        """Durations of the calibrations within the perf_counter interval [t0, t1].

        The handler never runs while the main code reads the clock, so each
        calibration lies wholly inside an interval or wholly outside it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]

    def timed(self, call):
        """Run `call`; return (its result, reference seconds, wall seconds).

        Both times leave out the calibrations. A call too short to hold a
        calibration is scaled by the mean of all calibrations so far.
        """
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
        inside = self._inside(t0, t1)
        wall = t1 - t0 - sum(inside)
        slowdown = statistics.fmean(inside or self._inside(float("-inf"), t1)) / CAL_REF_S
        return result, wall / slowdown, wall
