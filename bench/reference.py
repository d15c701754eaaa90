"""Host-speed reference for the benchmark's timings.

The benchmark shares a small host whose speed drifts by 15-50% over tens
of seconds to minutes, as other tenants come and go; on such a host two
runs of the same code disagree by more than any bound worth setting.  A *reference
pass* is a fixed piece of work that never changes with the package, of
the same kind as the workload's: for the in-process workloads
(:class:`NumpyPass`) complex matmuls, two small eigensolves and a Python
loop over small NumPy calls, about 3, 2 and 1.5 ms here (a sweep over a
large array tracked the workloads' slowdowns far worse and was left out);
for the ``cli`` workload (:class:`InterpreterPass`) a fresh
interpreter that imports NumPy.  The timed phase runs one pass whenever
``every_s`` seconds have gone by, between tasks and outside their timing.

Every timing the benchmark reports is scaled to a host on which one pass
takes ``nominal_s``: a task's latency is multiplied by ``nominal_s`` over
the median of the ``NEAREST`` passes closest to it in time.  The nominal
times are the median passes during the timed phase on the 2-CPU Xeon host
the baseline was taken on, so there the scaled and the raw figures agree;
the raw ones are printed too.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NEAREST = 5


class Reference:
    """Runs reference passes and scales timings by the nearest ones.

    A subclass sets the pass (``_work``), its ``nominal_s`` and how often
    it runs (``every_s``)."""

    nominal_s: float
    every_s: float

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.parts: list[tuple[float, ...]] = []
        self.last = -np.inf
        self._work()  # first-call costs stay out of the record

    def _work(self) -> tuple[float, ...]:
        """The pass; returns the time of each of its parts."""
        raise NotImplementedError

    def measure(self) -> None:
        """One pass, recorded."""
        t0 = time.perf_counter()
        parts = self._work()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.parts.append(parts)
        self.last = t1

    def maybe(self) -> None:
        """A pass when ``every_s`` has gone by since the last one."""
        if time.perf_counter() - self.last >= self.every_s:
            self.measure()

    def scale(self, when) -> np.ndarray:
        """``nominal_s`` over the median of the passes nearest each time."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        when = np.atleast_1d(np.asarray(when, dtype=float))
        out = np.empty(when.size)
        k = min(NEAREST, at.size)
        for i, t in enumerate(when):
            lo = int(np.clip(np.searchsorted(at, t) - k // 2, 0, at.size - k))
            out[i] = self.nominal_s / np.median(took[lo:lo + k])
        return out

    def describe(self) -> str:
        parts = [round(float(x) * 1e3, 4) for x in np.median(self.parts, axis=0)]
        return (f"{type(self).__name__}: median {np.median(self.took) * 1e3:.3f} ms over"
                f" {len(self.took)} passes, nominal {self.nominal_s * 1e3:.3f} ms; parts {parts} ms")


class NumpyPass(Reference):
    """Matmuls, eigensolves and a Python loop, in-process."""

    nominal_s = 6.8e-3
    every_s = 0.1

    def __init__(self):
        g = np.random.default_rng(20260117)
        a = g.standard_normal((128, 128)) + 1j * g.standard_normal((128, 128))
        self.mat = a
        self.herm = (a + a.conj().T)[:64, :64]
        self.square = a[:32, :32].copy()
        self.vecs = g.standard_normal((64, 8)) + 0j
        super().__init__()

    def _work(self) -> tuple[float, ...]:
        clock = time.perf_counter
        t0 = clock()
        for _ in range(8):
            self.mat @ self.mat
        t1 = clock()
        np.linalg.eigh(self.herm)
        np.linalg.eigvals(self.square)
        t2 = clock()
        v = self.vecs
        for _ in range(10):
            s = 0j
            for k in range(64):
                s += np.vdot(v[k], v[(k + 1) % 64]) * np.exp(1j * k)
        t3 = clock()
        return (t1 - t0, t2 - t1, t3 - t2)


class InterpreterPass(Reference):
    """A fresh interpreter importing NumPy, as each CLI request starts."""

    nominal_s = 0.165
    every_s = 1.0

    def __init__(self, env: dict, cwd: str):
        self.env, self.cwd = env, cwd
        super().__init__()

    def _work(self) -> tuple[float, ...]:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, cwd=self.cwd,
                       check=True, capture_output=True, timeout=120)
        return (time.perf_counter() - t0,)
