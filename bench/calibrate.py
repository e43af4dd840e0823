"""Reference kernels that measure how fast the machine runs at a given moment.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds.  Each workload therefore times, between its ops, a fixed
kernel that never calls cext_osc and resembles the op's own work (exact
rational arithmetic in Python, dense complex matrix products, or starting
an interpreter).  An op's latency is scaled by ``nominal / measured`` of the
reference samples taken around it, which expresses every time at one fixed
machine speed: the speed at which each kernel takes its ``nominal`` time.
The nominal times below are the kernels' times on an idle 2-vCPU Intel Xeon
guest with Python 3.11 and OpenBLAS on one thread; they are constants, so
the scaled times of two commits stay comparable on any host.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

FRACTION_NOMINAL_NS = 520_000
SPAWN_NOMINAL_NS = 40_000_000
MATMUL_NOMINAL_NS = {120: 180_000, 480: 12_000_000}


def fraction_kernel() -> int:
    """Exact rational sums and a sort, like the spectrum layer's inner loops."""
    start = perf_counter_ns()
    acc = Fraction(0)
    values = []
    for i in range(1, 100):
        acc += Fraction(i, 7 + i % 5)
        values.append(acc - i)
    values.sort()
    return perf_counter_ns() - start


_MATRICES: dict[int, object] = {}


def matmul_kernel(n: int) -> int:
    """One product of two dense complex n x n matrices, like the Fock-space checks."""
    import numpy as np

    if n not in _MATRICES:
        rng = np.random.default_rng(n)
        _MATRICES[n] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = _MATRICES[n]
    start = perf_counter_ns()
    m @ m
    return perf_counter_ns() - start


def spawn_kernel(env: dict | None = None) -> int:
    """Start and finish a bare interpreter, like each CLI invocation does."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return perf_counter_ns() - start


def local_scale(samples: list[int], after: int, nominal: int, window: int) -> float:
    """``nominal`` over the median of the ``window`` samples on each side of an op.

    ``after`` is the index of the first sample taken after the op.
    """
    near = samples[max(0, after - window):after + window] or samples[-1:]
    return nominal / statistics.median(near)
