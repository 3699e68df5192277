"""Machine-speed probe: a fixed computation timed in CPU time, sampled before,
during and after each timed phase of an iteration.

The benchmark runs on a few vCPUs of a shared host whose CPU throughput
drifts, by up to 1.9x in spells of a fraction of a second to tens of
seconds, with the load of other tenants.  The drift shows in CPU time as
much as in wall time, and it is most of the spread between runs.  So the
end-to-end times are reported at a reference machine speed: each raw time is
multiplied by ``scale()``, the probe's reference CPU time per repetition
divided by its mean CPU time per repetition over the phase.  A slow spell
makes both the workload and the probe slower, and the product stays put.

The probe is pure Python and imports nothing from cyclosum, so no change to
the package can move it.  Its time is timed with ``time.thread_time`` so that
waiting for a CPU (for example behind the pool workers of the same run) does
not count as a slow machine.  During a phase it runs from a SIGALRM handler
every ``PERIOD_S`` seconds of wall time, which adds about 2% to the phase;
the handler's wall and CPU time are kept apart so that the caller can take
them out of the phase's times.
"""
from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.2
EDGE_REPS = 60  # repetitions at the start and at the end of a phase
TICK_REPS = 20  # repetitions in each periodic sample, about 3 to 6 ms
# Reference CPU time of one repetition: about the fastest seen on a
# 2-vCPU x86-64 virtual machine with Python 3.11.
REF_REP_S = 160e-6

_rng = random.Random(20230108)
_A = [_rng.randint(-10 ** 40, 10 ** 40) for _ in range(24)]
_B = [_rng.randint(-10 ** 40, 10 ** 40) for _ in range(24)]
_Q = [Fraction(_rng.randint(1, 10 ** 9), _rng.randint(1, 10 ** 9)) for _ in range(24)]


def _rep() -> None:
    """One repetition, about half of each: a schoolbook product of two
    24-entry bigint vectors, and a chain of Fraction products and sums that
    allocates objects and reduces growing bigints, as the workloads do."""
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    acc = Fraction(0)
    pairs = []
    for k, q in enumerate(_Q):
        acc += q * _Q[k - 1]
        pairs.append((acc, k))


class Probe:
    """Accumulates probe samples over one phase.

    ``sample()`` runs outside the timed interval; the periodic samples that
    start() sets off run inside it, and their time is kept in ``tick_wall_s``
    and ``tick_cpu_s`` so that the caller can take it out.
    """

    def __init__(self) -> None:
        self.reps = 0
        self.ticks = 0
        self.cpu_s = 0.0  # thread CPU time of all samples
        self.tick_wall_s = 0.0
        self.tick_cpu_s = 0.0

    def sample(self, reps: int = EDGE_REPS) -> tuple[float, float]:
        w0 = time.perf_counter()
        c0 = time.thread_time()
        for _ in range(reps):
            _rep()
        cpu = time.thread_time() - c0
        self.cpu_s += cpu
        self.reps += reps
        return time.perf_counter() - w0, cpu

    def _tick(self, *_) -> None:
        wall, cpu = self.sample(TICK_REPS)
        self.ticks += 1
        self.tick_wall_s += wall
        self.tick_cpu_s += cpu

    def start(self) -> None:
        """Sample every PERIOD_S of wall time until stop()."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference speed / speed over the phase (below 1 when the machine is slow)."""
        return REF_REP_S * self.reps / self.cpu_s
