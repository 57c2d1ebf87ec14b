"""Correctness checks of one solve, written independently of the library.

Nothing here calls lyapfactor: the residual is recomputed from A, M and B
through an SVD compression (the library's residual_fro uses a QR one), and
the stationarity measure N Y is formed from the three matrices directly.
"""

import numpy as np

# The independent residual must agree with the trace's final relres to
# this relative tolerance.
RELRES_RTOL = 1e-8

# A fixed-rank solve must bring ||N Y||_F below this share of ||N Y0||_F.
STATIONARITY_BOUND = 1e-9


def _products(a, m, y):
    return a @ y, m @ y


def relative_residual(a, m, b, y):
    """||A Y Y^T M + M Y Y^T A - B B^T||_F / ||B^T B||_F without forming it.

    The residual U V^T + V U^T - B B^T (U = A Y, V = M Y) lives in the
    column span of W = [U, V, B]. With W = Q S Z^T a thin SVD, Q^T N Q is a
    small matrix with the same Frobenius norm as N.
    """
    u, v = _products(a, m, y)
    q = np.linalg.svd(np.hstack([u, v, b]), full_matrices=False)[0]
    qu, qv, qb = q.T @ u, q.T @ v, q.T @ b
    small = qu @ qv.T + qv @ qu.T - qb @ qb.T
    return float(np.linalg.norm(small) / np.linalg.norm(b.T @ b))


def gradient_norm(a, m, b, y):
    """||N Y||_F with N = A Y Y^T M + M Y Y^T A - B B^T."""
    u, v = _products(a, m, y)
    ny = u @ (v.T @ y) + v @ (u.T @ y) - b @ (b.T @ y)
    return float(np.linalg.norm(ny))


def check_solve(workload, instance, point, trace):
    """Return the list of failed checks of one finished solve (empty: pass)."""
    a, m, b = instance.problem.a.mat, instance.problem.m.mat, instance.problem.b
    y = point.y
    failures = []
    relres = relative_residual(a, m, b, y)
    reported = trace.final().relres
    if not abs(relres - reported) <= RELRES_RTOL * reported:
        failures.append(
            f"relres {relres:.17g} disagrees with the trace's {reported:.17g}")
    if workload.tau is None:
        f = trace.column("f")
        if not all(later < earlier for earlier, later in zip(f, f[1:])):
            failures.append("cost column does not decrease strictly")
        ratio = gradient_norm(a, m, b, y) / gradient_norm(a, m, b, instance.y0)
        if not ratio <= STATIONARITY_BOUND:
            failures.append(f"||N Y|| / ||N Y0|| = {ratio:.3e} is above "
                            f"{STATIONARITY_BOUND:.0e}")
    elif not relres <= workload.tau:
        failures.append(f"relres {relres:.3e} is above tau = {workload.tau:.0e}")
    return failures
