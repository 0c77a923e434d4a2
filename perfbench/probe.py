"""Machine-speed probe for normalizing times on a shared machine.

On the shared machines this benchmark was built on, the same pure-Python
work took anywhere from half to twice its usual time, in stretches of a few
seconds to minutes, so raw times from runs minutes apart disagree by more
than any useful bound.  The harness therefore samples the machine's speed
while it measures: the probe is a fixed exact-arithmetic task of the same
kind as liecohom's work (Gauss-Jordan elimination over Fractions), built
from the benchmark's own code, which no change to liecohom can affect.  A
Sampler runs it from a SIGALRM handler every INTERVAL_S of wall time, and
the time spent in the handler is taken out of the request it interrupted.

A reported time is the raw time scaled by NOMINAL_S * mean(1 / probe time)
over the probes of its pass.  It reads as seconds on a machine at the speed
where one probe takes NOMINAL_S, about the usual speed of the 2-vCPU
Intel Xeon virtual machine it was calibrated on (Python 3.11).  The
scale cancels between two versions of liecohom measured alike; raw times
stay in the result file.
"""

import random
import signal
import statistics
import time

import gen

NOMINAL_S = 0.01
INTERVAL_S = 0.25

_MATRIX, _ = gen.random_basis_change(random.Random("probe"), 7)


def probe():
    """Wall and CPU seconds of one run of the fixed task."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(3):
        gen.inverse(_MATRIX)
    return time.perf_counter() - wall, time.process_time() - cpu


def scales(probes):
    """(wall scale, CPU scale) from the probes sampled during a pass."""
    return (NOMINAL_S * statistics.fmean(1 / w for w, _ in probes),
            NOMINAL_S * statistics.fmean(1 / c for _, c in probes))


class Sampler:
    """Times the probe every INTERVAL_S of wall time while the block runs.

    paused and paused_cpu add up the time spent in the handler, which the
    harness subtracts from the request it interrupted.  The timer is re-armed
    at the end of each handler, so handlers never nest.
    """

    def __init__(self):
        self.probes = []
        self.paused = 0.0
        self.paused_cpu = 0.0

    def _handler(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.probes.append(probe())
        self.paused += time.perf_counter() - wall
        self.paused_cpu += time.process_time() - cpu
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self.probes.append(probe())
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
