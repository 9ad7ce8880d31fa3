"""Fixed reference loops that gauge how fast the CPU runs at the moment.

On a small shared virtual machine the same Python code runs at two speeds
that alternate every few seconds: the slow one takes 1.3 to 1.7 times as
long.  Every benchmark interpreter times a reference loop right before the
import, and right before and after `main`, and the benchmark divides each
time by the loop time next to it.

Whole-array numpy kernels slow down less than interpreted Python, so there
are two loops.  The pure-Python arithmetic loop tracked the learners'
slowdowns best of the loops tried (small numpy operations, whole-array
kernels, dict and list churn, json round trips, plain arithmetic); it also
times the import, and it runs before numpy is imported.  The numpy loop,
whole-array kernels over a 201 x 3001 grid, tracks the DP oracle.

Neither uses dtmv, so no change to dtmv can change them.
"""

import time

# Seconds one pass of each loop takes on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4) at its fast speed.  A time divided by a loop time and
# multiplied by this reads as seconds on that machine at that speed.
NOMINAL_S = {"python": 0.1, "numpy": 0.1}


def python_loop() -> None:
    acc = 0.0
    for i in range(900_000):
        acc += (i * 7 % 13) * 0.5 - acc * 1e-6


def numpy_loop() -> None:
    import numpy as np

    grid = np.random.default_rng(12345).standard_normal((201, 3001))
    for _ in range(20):
        grid = np.exp(-0.5 * grid * grid) * 0.9 + 0.1
        np.trapezoid(grid, axis=1)


LOOPS = {"python": python_loop, "numpy": numpy_loop}


def time_reference(kind: str = "python") -> float:
    """Seconds one pass of the named loop takes."""
    loop = LOOPS[kind]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0
