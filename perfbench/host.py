"""Host context for a result file: versions, CPUs, load, and a fixed
reference timing that does not touch vrlink; and HostSpeed, which scales
a sweep's wall time to the host's nominal speed with that reference.

Identical sweeps on one small VM can differ by a factor of two in wall
time, with CPU time tracking wall time, which is host speed drift. A
reader compares ``host_ref_s`` between result files to tell that drift
from a program change.
"""

import os
import platform
import signal
import statistics
import sys
import time

import numpy as np


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        return {}
    return {
        kind: {"name": deps[kind].get("name"), "version": deps[kind].get("version")}
        for kind in ("blas", "lapack")
        if kind in deps
    }


_RNG = np.random.default_rng(0)
_REF_MATRIX = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))
_REF_VECTOR = _RNG.standard_normal(64)


def reference_unit(rounds: int = 150) -> float:
    """Wall seconds of one fixed unit of work that does not touch vrlink.

    Its mix follows a sweep's profile: reductions of short numpy arrays
    through the fromnumeric wrappers, scalar complex arithmetic in Python
    loops, and small LAPACK SVDs.
    """
    v, m = _REF_VECTOR, _REF_MATRIX
    start = time.perf_counter()
    acc = 0.0
    for k in range(rounds):
        acc += float(np.sum(v)) + float(np.max(v)) + bool(np.any(v > 3.0))
        x = complex(k, 1.0)
        for j in range(24):
            acc += abs(x * x) / (1.0 + j)
        if k % 10 == 0:
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return time.perf_counter() - start


def host_ref_s(repeats: int = 25) -> float:
    """Median wall time of the reference unit."""
    return statistics.median(reference_unit() for _ in range(repeats))


class HostSpeed:
    """Samples the host's speed while a block of code runs, and scales the
    block's wall time to the host's nominal speed.

    On a shared host other tenants slow every instruction of a process, by
    up to a factor of two, in spells of a few seconds to minutes. Every
    PERIOD_S a timer signal runs a short reference unit in the main thread,
    between two bytecodes of the block, so the samples are taken while the
    block runs. Main thread only.
    """

    PERIOD_S = 0.025
    PROBE_ROUNDS = 10
    # the scale of the scaled times: about the median
    # reference_unit(PROBE_ROUNDS) on a 2-vCPU Intel Xeon VM (Python 3.11.7,
    # numpy 2.4, OpenBLAS) in its common, slower state
    NOMINAL_S = 2.8e-4

    def __enter__(self):
        self.probes = []  # (start, seconds) of each reference unit
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.start = time.perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, *_):
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.probes.append((start, reference_unit(self.PROBE_ROUNDS)))
        self._busy = False

    def nominal_s(self) -> float:
        """The block's wall time without the probes, each stretch between two
        probes scaled by the speed the two measured."""
        # a probe counts as the median of itself and its neighbours, so one
        # probe that an interrupt slowed does not scale its stretches
        times = [d for _, d in self.probes]
        padded = times[:1] + times + times[-1:]
        probe_s = [statistics.median(padded[i:i + 3]) for i in range(len(times))]
        ends = [s + d for s, d in self.probes]
        starts = [s for s, _ in self.probes[1:]] + [self.end]
        after = probe_s[1:] + probe_s[-1:]
        return sum(
            (b - a) * self.NOMINAL_S * 2 / (p + q)
            for a, b, p, q in zip(ends, starts, probe_s, after)
        )


def context() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "nproc": cpus,
        "loadavg": list(os.getloadavg()),
        "host_ref_s": host_ref_s(),
    }
