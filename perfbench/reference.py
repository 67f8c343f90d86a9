"""A fixed reference kernel that gauges the host's current speed.

On a shared virtual machine the same code can run up to 1.5 times slower or
faster than usual for minutes at a time, and such a period moves every time
measured in it.  The
benchmark therefore times this kernel in short bursts between the workload's
calls and rescales the run's times by the speed it measured.

The kernel shares no code with rareflow and never changes, so a change to the
package moves the workload's time and leaves the reference alone.  It mixes
what the package's samplers do: numpy random draws, masked updates of a few
thousand paths, and a Python loop over steps, on ``threads`` threads at once
as ``mc.run_replications`` runs its batches.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SMALL, LARGE = 4096, 16384  # paths: a cache-resident array, and mc.BATCH_SIZE
STEPS = 20
REPEATS = 50  # timed runs of the kernel in one burst
# median kernel time on the baseline host (2-vCPU Intel Xeon VM, numpy 2.4.6)
# while it ran at its usual speed; it fixes the unit of a rescaled time
NOMINAL_S = 0.0100


def _kernel(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # a ruin-like wealth walk: many small steps, masked updates
    wealth = np.full(SMALL, 1.0)
    ruined = np.zeros(SMALL, dtype=bool)
    for _ in range(STEPS):
        gauss = rng.normal(size=SMALL)
        quiet = np.nonzero(rng.poisson(0.1, SMALL) == 0)[0]
        wealth[quiet] += 0.01 + 0.1 * gauss[quiet]
        ruined |= wealth < 0.0
    # a barrier-like price walk: few steps over a whole batch, with a kill test
    price = np.full(LARGE, 100.0)
    alive = np.ones(LARGE, dtype=bool)
    for _ in range(STEPS // 4):
        price *= np.exp(-0.001 + 0.03 * rng.normal(size=LARGE))
        alive &= rng.random(LARGE) > np.exp(-np.maximum(150.0 - price, 0.0))
    return float(wealth.sum() + ruined.sum() + np.maximum(price - 90.0, 0.0)[alive].sum())


class Reference:
    def __init__(self, threads: int):
        self.threads = threads
        self.pool = ThreadPoolExecutor(max_workers=threads)
        self.times: list[float] = []  # every timed run of the kernel, on every thread at once
        self.bursts: list[float] = []  # the median of each burst, for the record

    def burst(self) -> None:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            list(self.pool.map(_kernel, range(self.threads)))
            times.append(time.perf_counter() - start)
        self.times += times
        self.bursts.append(statistics.median(times))

    def speed(self) -> float:
        """Factor that turns a time measured in this run into one at nominal speed."""
        return NOMINAL_S / statistics.median(self.times)

    def close(self) -> None:
        self.pool.shutdown(wait=True)

