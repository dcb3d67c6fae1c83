"""The four CLI workloads: one experiment config each, built from a seed.

Every workload runs a fixed amount of solver work per invocation, so that
its figures do not depend on which seed is drawn: the iteration budgets sit
below the earliest convergence seen on these instances (CP swamp at
theta = pi/4 converges no sooner than 147 iterations, 2-component EM at
centers +-1.5 no sooner than 19, and 32-user WMMSE needs more than 40
half-steps), and the verify battery draws a fixed number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

CP_MODES = ("als", "const_prox", "dim_prox", "mbi", "misum")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    params: dict
    n_seeds: int
    why: str
    # BSUM_THREADS for the invocations; None leaves it unset (the default).
    threads: int | None = None

    def config(self, seed: int, out_dir: str) -> dict:
        """The CLI config for one invocation; the seed is the seed offset."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "seeds": list(range(seed, seed + self.n_seeds)),
            "output_dir": out_dir,
        }

    def tasks(self) -> int:
        """Solver tasks (or check reports) one invocation attempts."""
        if self.experiment == "verify":
            return VERIFY_REPORTS
        modes = self.params.get("modes")
        return self.n_seeds * (len(modes) if modes else 1)


# Reports written by the verify battery over all six surrogate families:
# three checks each, plus the two smooth-part checks of the composite one.
VERIFY_REPORTS = 6 * 3 + 2


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cp_swamp",
            experiment="cp",
            params={"instance": "swamp", "theta": math.pi / 4, "rank": 3,
                    "modes": list(CP_MODES), "epsilon": 1e-5, "max_iters": 200},
            n_seeds=3,
            # Serial: the 15 tasks are interpreter-bound, so two pool threads
            # only pass the GIL between them, and how fast the host woke the
            # waiting thread moved wall time by up to 40% from one run to the
            # next. bench/README.md records the pool's cost here.
            threads=1,
            why="small CP fits whose time is Python layering in engine, core and "
                "app_tensor plus 15 trace files; driver bookkeeping and caching",
        ),
        Workload(
            name="wmmse_dense",
            experiment="wmmse",
            params={"n_cells": 8, "users_per_cell": 4, "n_antennas": 4,
                    "streams": 1, "max_iters": 32},
            # One seed, so the CLI's pool runs a single task: two WMMSE
            # tasks hand the GIL back and forth at every small solve, and how
            # fast the host wakes the waiting thread varied their wall time
            # by up to 50% between runs.
            n_seeds=1,
            why="32-user WMMSE bypasses engine; O(U^2) covariance rebuilds in app_wmmse",
        ),
        Workload(
            name="em_large",
            experiment="em",
            params={"n_components": 2, "modes": ["full", "block"],
                    "n_per_cluster": 20000, "centers": [-1.5, 1.5], "sigma": 1.0,
                    "max_iters": 15},
            n_seeds=2,
            why="numpy-bound EM on 40k points: same driver as CP, negligible "
                "overhead, and the thread pool pays",
        ),
        Workload(
            name="verify_battery",
            experiment="verify",
            params={"surrogate": "all", "n_samples": 1000, "n_anchors": 40},
            n_seeds=1,
            why="surrogate check battery: oracle calls at random points with no "
                "driver loop, so a per-anchor cache misses",
        ),
    )
}


# The same four workloads at a size that runs in about a second, for the
# benchmark's self-test.
TINY_PARAMS = {
    "cp_swamp": {"max_iters": 20},
    "wmmse_dense": {"n_cells": 2, "users_per_cell": 2, "max_iters": 4},
    "em_large": {"n_per_cluster": 300, "max_iters": 5},
    "verify_battery": {"n_samples": 60, "n_anchors": 12},
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not tiny:
        return w
    return replace(w, params={**w.params, **TINY_PARAMS[name]}, n_seeds=1)
