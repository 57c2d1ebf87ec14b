"""A fixed reference computation that gauges the machine's current speed.

The machine the benchmark was written on is shared. Over minutes its speed
drifts by a third or more, and every instruction slows alike: the fastest
of five 1.5 ms set-ups slowed by as much as the 0.8 s solves. No statistic
inside one run removes a drift that lasts longer than the run, so run.py
times this kernel just before every solve and reports the solve time in
multiples of it (solve_rel).

The kernel uses numpy and scipy only, never lyapfactor, so no change to the
library can change it. It mixes the two kinds of work the solves do: sparse
LU factorizations and solves of a 2-D Laplacian with shifts, as in the
preconditioner build, and a Python loop of small dense products, as in
tPCG. Its inputs are fixed, so every run times the same computation.
"""

import time

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

SIDE = 40
SHIFTS = (0.5, 1.0, 2.0)
COLUMNS = 6
SMALL_PRODUCTS = 300
REPEATS = 3


class Reference:
    def __init__(self):
        ones = np.ones(SIDE - 1)
        t = sps.diags([-ones, np.full(SIDE, 2.0), -ones], [-1, 0, 1])
        eye = sps.identity(SIDE)
        n = SIDE * SIDE
        self.a = (sps.kron(t, eye) + sps.kron(eye, t)).tocsc()
        self.eye = sps.identity(n, format="csc")
        self.x = np.random.default_rng(0).standard_normal((n, COLUMNS))

    def kernel(self):
        total = 0.0
        for shift in SHIFTS:
            lu = spla.splu((self.a + shift * self.eye).tocsc())
            total += float(np.linalg.norm(self.a @ lu.solve(self.x)))
        q = np.linalg.qr(self.x)[0]
        small = q[:COLUMNS]
        for _ in range(SMALL_PRODUCTS):
            small = small @ q[:COLUMNS].T @ q[:COLUMNS]
            small /= np.linalg.norm(small)
        return total + float(small[0, 0])

    def time(self):
        """Return the fastest of REPEATS timings of the kernel, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return min(times)
