"""Host-speed gauge: times of the benchmark's operations, normalised by a
fixed reference computation timed next to them.

The benchmark runs on a few cores of a shared host.  Other tenants change
its speed by a third and more, for seconds to minutes at a time, and the
process's CPU time moves with its wall time, so neither medians nor minima
over a run get rid of it.  The gauge runs a fixed reference computation
(small linear programs solved by scipy's HiGHS, as finspec's solver does, but
none of finspec's code) after every stretch of at least ``every_s`` seconds of
measured operations.  Each operation's time is then scaled by
``REFERENCE_S / r``, where ``r`` is the mean of the two reference times that
bracket its stretch.  The result reads in seconds on a host where the
reference takes ``REFERENCE_S``; a slower program reads slower, a slower
host does not.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# A typical reference time on the recorded 2-vCPU x86_64 host (baseline.json's
# environment), where its median over a run read 14.0 to 21.4 ms; normalised
# times are seconds on a host where the reference takes this long.
REFERENCE_S = 0.018
REFERENCE_LPS = 7


def _reference_lp():
    rng = np.random.default_rng(0)
    return (rng.uniform(-1.0, 1.0, 20), rng.uniform(-1.0, 1.0, (40, 20)),
            np.ones(40))


_COST, _A_UB, _B_UB = _reference_lp()


def reference() -> float:
    """Run the reference computation once; returns its seconds.

    Of the references tried (small Hermitian eigendecompositions, an
    interpreter loop over a dict, a JSON round trip, loops of 4 x 4 numpy
    products, small LPs), the LPs followed the workloads' own times most
    closely on all three workloads."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_LPS):
        linprog(_COST, A_ub=_A_UB, b_ub=_B_UB, bounds=(-5.0, 5.0), method="highs")
    return time.perf_counter() - t0


class Gauge:
    """Measured operation times with the reference times that bracket them.

    ``add(kind, seconds)`` records one operation; a reference runs once at
    least ``every_s`` seconds of operations have been added since the last
    one, and at every ``close()``.  ``times(kind)`` gives the normalised
    seconds of the operations of that kind, in the order they were added.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples = []      # [kind, measured seconds, reference seconds]
        self.references = []
        self._pending = []
        self._since = 0.0
        self._last = self._reference()

    def _reference(self) -> float:
        r = reference()
        self.references.append(r)
        return r

    def add(self, kind: str, seconds: float):
        sample = [kind, seconds, None]
        self.samples.append(sample)
        self._pending.append(sample)
        self._since += seconds
        if self._since >= self.every_s:
            self.close()

    def close(self):
        """Run a reference now and assign the bracketing mean to every
        operation added since the last one."""
        if not self._pending:
            return
        now = self._reference()
        for sample in self._pending:
            sample[2] = (self._last + now) / 2
        self._pending, self._since, self._last = [], 0.0, now

    def times(self, kind: str) -> list:
        self.close()
        return [dt * REFERENCE_S / ref for k, dt, ref in self.samples if k == kind]

    def raw(self, kind: str) -> list:
        return [dt for k, dt, _ in self.samples if k == kind]
