"""Reference kernel that measures how fast this machine runs right now.

The virtual machines this benchmark runs on change speed by tens of
percent over periods of seconds to minutes (another tenant on the same
physical core), which swamps the differences the benchmark is meant to
show.  The kernel below does a fixed amount of work of the kinds petzlab
spends its time on: small dense Hermitian eigen- and singular-value
problems, products and einsums, and float-to-text round trips.  The
benchmark times it between rounds and divides every measured time by the
kernel's current speed relative to ``NOMINAL_MS``, so a slow period
stretches the kernel and the operations alike and cancels out.

It uses numpy only and never calls petzlab, so no change to petzlab can
change what it measures.
"""

from __future__ import annotations

import time

import numpy as np

# Median burst time on the reference machine (2-vCPU x86_64 VM, Python
# 3.11, numpy 2.4, OpenBLAS with one thread) in a quiet period.
# Normalized times are in milliseconds at that speed.
NOMINAL_MS = 5.0
BURSTS = 3  # bursts per measurement; their median is taken


class Reference:
    """Fixed inputs for the kernel, drawn once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20150923)
        self.mats = []
        for d in (2, 3, 4, 5, 8):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self.mats.append(a + a.conj().T)
        self.floats = rng.standard_normal(200)

    def _burst(self) -> None:
        acc = 0.0
        for _ in range(30):
            for h in self.mats:
                w, v = np.linalg.eigh(h)
                s = np.linalg.svd(h, compute_uv=False)
                x = (v * np.sqrt(np.abs(w))) @ v.conj().T
                acc += float(np.einsum("ij,ji->", x, h).real) + float(s[0])
        text = " ".join(format(float(x), ".17g") for x in self.floats)
        acc += sum(float(t) for t in text.split())
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")

    def measure_ms(self) -> float:
        """Median time of ``BURSTS`` kernel bursts, in milliseconds."""
        times = []
        for _ in range(BURSTS):
            start = time.perf_counter_ns()
            self._burst()
            times.append(time.perf_counter_ns() - start)
        return sorted(times)[len(times) // 2] / 1e6
