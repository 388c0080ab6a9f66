"""Op times scaled to the host's quiet speed by a reference kernel.

The benchmark runs on a shared host whose speed for this process moves
by up to 2x, in phases of seconds to minutes, as other tenants load it.
Process CPU time moves with wall time, so the guest is not descheduled:
each instruction gets slower. To take that out, a fixed kernel that
touches nothing of the program is timed right before and right after
every op (and every set-up probe). The op's calibrated time is

    wall time * kernel.ref_s / mean(kernel time before, kernel time after)

that is, its wall time at the speed at which the kernel took ref_s, the
kernel's time on the quiet reference host. The kernel is the benchmark's
own code, so a change to the program moves the calibrated time exactly
as much as the wall time; only the host's speed is divided out.

Contention slows interpreted code and memory-bound array code by
different factors, so there are two kernels, and each workload uses the
one that matches what bounds its ops:

  python  a pure-Python integer loop, then json.dumps of 1200 small
          dicts (the CLI's own kind of work), for interpreter-bound
          workloads
  numpy   a sum over a 16 MB array and a sort of 100k doubles, for
          workloads whose time goes to array passes over large grids
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# kernel name -> its wall time on the reference host (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread) while nothing else loaded it:
# the fastest of some thousands of timings spread over several minutes
REF_SECONDS = {"python": 0.0031, "numpy": 0.0020}


class Kernel:
    """One of the reference kernels, ready to be timed."""

    def __init__(self, name: str):
        self.ref_s = REF_SECONDS[name]
        self._data = (np.random.default_rng(0).random(2_000_000)
                      if name == "numpy" else None)

    def _run(self) -> None:
        if self._data is None:
            s = 0
            for i in range(30_000):
                s += i * i % 7
            json.dumps([{"i": i, "x": i * 0.37} for i in range(1200)])
        else:
            self._data.sum()
            np.sort(self._data[:100_000])

    def seconds(self) -> float:
        """Wall time of the faster of two back-to-back kernel runs, so
        that one interrupt does not stand for the host's speed."""
        times = []
        for _ in range(2):
            t0 = perf_counter()
            self._run()
            times.append(perf_counter() - t0)
        return min(times)

    def calibrated(self, seconds: float, before: float, after: float) -> float:
        """Wall time scaled to the speed at which the kernel took ref_s."""
        return seconds * self.ref_s * 2.0 / (before + after)
