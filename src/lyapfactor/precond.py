"""Preconditioner that inverts the dominant term of the Riemannian Hessian.

For a horizontal right-hand side eta the preconditioner returns the
horizontal xi solving the metric's defining equation, which keeps only the
Hessian main term (the second derivative of h along F_xi = xi Y^T + Y xi^T):

    metric 1:  (I - P/2) nabla^2 h[F_xi] Y G^{-1} = eta
    metric 2:  2 nabla^2 h[F_xi] Y G^{-1}         = eta
    metric 3:  2 nabla^2 h[F_xi] Y                = eta

with G = Y^T Y and P = Y G^{-1} Y^T. All three reduce to the same ambient
equation nabla^2 h[F_xi] Y = T with a metric-specific right-hand side T, so
one pipeline serves every metric: diagonalize the pencil (Y^T A Y, Y^T M Y),
split xi into a Y-component with symmetric coefficient and a complement
annihilated by (M Y)^T, solve p shifted sparse systems A + lambda_i M under
that constraint (saddle-point form), and close with a small coupled solve
for the symmetric p-by-p coefficient. Vertical components do not affect the
equation, so the recovered solution is projected horizontal at the end.

The "bart" variant replaces M by the identity inside the operator being
inverted (shifts A + lambda_i I, complement of Y itself) while keeping the
true metric for the right-hand side and the final projection; it agrees
with the proposed variant exactly when M = I.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
import scipy.sparse.linalg as sps_la

from .manifold import HorizontalVector, Metric, _unwrap, project_horizontal
from .manifold import dominant_term_action  # noqa: F401  (the map inverted)
from .problems import FactorPoint, _as_point

# Largest p for which the coupled symmetric system is assembled densely;
# beyond it the solve falls back to conjugate gradient on the operator.
COUPLED_DIRECT_LIMIT = 64


class PreconditionerError(RuntimeError):
    """The preconditioner could not be built or applied at this point."""

    def __init__(self, message):
        super().__init__(
            message + "; advising fallback to the identity preconditioner"
        )


def _sym_pairs(p):
    """Index pairs (i, j), i <= j, enumerating the symmetric matrix basis."""
    return [(i, i) for i in range(p)] + [
        (i, j) for i in range(p) for j in range(i + 1, p)
    ]


def _sym_to_vec(mat, pairs):
    """Coordinates of a symmetric matrix in the orthonormal basis E_ij.

    E_ii = e_i e_i^T and E_ij = (e_i e_j^T + e_j e_i^T) / sqrt(2), so the
    map is a Frobenius isometry.
    """
    return np.array([
        mat[i, j] if i == j else math.sqrt(2.0) * mat[i, j]
        for i, j in pairs
    ])


def _vec_to_sym(vec, pairs, p):
    mat = np.zeros((p, p))
    inv = 1.0 / math.sqrt(2.0)
    for coord, (i, j) in zip(vec, pairs):
        if i == j:
            mat[i, i] = coord
        else:
            mat[i, j] = coord * inv
            mat[j, i] = coord * inv
    return mat


class CoupledSystem:
    """The small coupled map S -> W + W^T with W(:, i) = K_i S(:, i).

    This is the matrix form of (K + Pi K Pi) vec(S) with K the block
    diagonal of the K_i and Pi the perfect shuffle: the map commutes with
    transposition, so the symmetric matrices form an invariant subspace and
    the system is solved there, in an orthonormal basis of dimension
    p (p + 1) / 2. Since each K_i is symmetric the restricted map is
    self-adjoint; it is assembled densely and factored for small p and
    applied matrix-free under conjugate gradient for large p.
    """

    def __init__(self, k_blocks):
        self.k_blocks = k_blocks
        self.p = k_blocks[0].shape[0] if k_blocks else 0
        self.pairs = _sym_pairs(self.p)
        self.dim = len(self.pairs)
        self._cho = None
        self._lu = None
        if 0 < self.p <= COUPLED_DIRECT_LIMIT:
            dense = np.empty((self.dim, self.dim))
            for col, (i, j) in enumerate(self.pairs):
                basis_mat = np.zeros((self.p, self.p))
                if i == j:
                    basis_mat[i, i] = 1.0
                else:
                    basis_mat[i, j] = basis_mat[j, i] = 1.0 / math.sqrt(2.0)
                dense[:, col] = _sym_to_vec(self.apply(basis_mat), self.pairs)
            dense = 0.5 * (dense + dense.T)
            try:
                self._cho = spla.cho_factor(dense)
            except np.linalg.LinAlgError:
                self._lu = spla.lu_factor(dense)

    def apply(self, s):
        """Image of a symmetric p-by-p matrix under the coupled map."""
        w = np.column_stack(
            [self.k_blocks[i] @ s[:, i] for i in range(self.p)]
        )
        return w + w.T

    def solve(self, rhs):
        """Symmetric solution of apply(S) = rhs for symmetric rhs."""
        vec = _sym_to_vec(rhs, self.pairs)
        if self._cho is not None:
            out = spla.cho_solve(self._cho, vec)
        elif self._lu is not None:
            out = spla.lu_solve(self._lu, vec)
        else:
            op = sps_la.LinearOperator(
                (self.dim, self.dim),
                matvec=lambda x: _sym_to_vec(
                    self.apply(_vec_to_sym(x, self.pairs, self.p)), self.pairs
                ),
            )
            out, info = sps_la.cg(
                op, vec, rtol=1e-12, atol=0.0, maxiter=20 * self.dim
            )
            if info != 0:
                raise PreconditionerError(
                    "conjugate gradient on the coupled symmetric system "
                    f"did not converge (info = {info})"
                )
        if not np.all(np.isfinite(out)):
            raise PreconditionerError(
                "coupled symmetric system is singular at this point"
            )
        return _vec_to_sym(out, self.pairs, self.p)


@dataclass
class ShiftSystemCache:
    """Point-dependent factorizations shared by all preconditioner applies.

    Built once per outer iteration. Holds the pencil diagonalization
    (lam, lq with lq = L^{-T} Q), the orthonormal complement basis vhat of
    range(M Y), one sparse LU per shift A + lambda_i M with the Schur
    complement of the saddle constraint, the solved blocks J_i with the
    resulting K_i inside the coupled system, and U = A Y. Everything here
    is independent of the metric; only the right-hand side and the final
    projection of an apply depend on it.
    """

    point: FactorPoint
    variant: str
    u: np.ndarray
    lq: np.ndarray
    lam: np.ndarray
    vhat: np.ndarray
    shift_lus: list
    schur_factors: list
    j_blocks: list
    coupled: CoupledSystem


def _saddle_apply(lu, schur, vhat, rhs):
    """Solve [[F, vhat], [vhat^T, 0]] [x; y] = [rhs; 0] by Schur elimination."""
    x0 = lu.solve(rhs)
    mult = spla.cho_solve(schur, vhat.T @ x0)
    x = x0 - lu.solve(vhat @ mult)
    return x, mult


def saddle_solve(cache, i, rhs):
    """Solve the i-th constrained shifted system of the cache.

    Returns the pair (x, y) with (A + lambda_i M) x + vhat y = rhs and
    vhat^T x = 0; `rhs` may carry several columns.
    """
    return _saddle_apply(
        cache.shift_lus[i], cache.schur_factors[i], cache.vhat, rhs
    )


def build_shift_cache(problem, point, variant="proposed"):
    """Factor the p shifted systems and the coupled block at a point.

    Parameters
    ----------
    problem : LyapunovProblem
    point : FactorPoint
        Full column rank factor.
    variant : {"proposed", "bart"}
        "proposed" shifts A by multiples of M; "bart" shifts by multiples
        of the identity and constrains against Y instead of M Y.

    Returns
    -------
    ShiftSystemCache

    Raises
    ------
    PreconditionerError
        If the pencil or a Schur complement fails to be positive definite.
    """
    if variant not in ("proposed", "bart"):
        raise ValueError(f"unknown preconditioner variant {variant!r}")
    point = _as_point(point)
    if not point.has_full_rank:
        raise ValueError("preconditioner needs a full rank factor")
    y = point.y
    n, p = y.shape
    prod = point.products(problem)
    a = problem.a.mat
    if variant == "proposed":
        m_op = problem.m.mat
        my = prod.v
        g_m = y.T @ my
    else:
        m_op = sps.identity(n, format="csr")
        my = y
        g_m = point.gram

    try:
        chol = np.linalg.cholesky(g_m)
    except np.linalg.LinAlgError:
        raise PreconditionerError(
            "mass Gram matrix of the factor is not positive definite"
        ) from None
    u = prod.u
    a_small = y.T @ u
    tmp = spla.solve_triangular(chol, a_small, lower=True)
    pencil = spla.solve_triangular(chol, tmp.T, lower=True).T
    pencil = 0.5 * (pencil + pencil.T)
    lam, q = spla.eigh(pencil)
    if lam[0] <= 0.0:
        raise PreconditionerError(
            "projected pencil has a nonpositive eigenvalue "
            f"({lam[0]:.3e}); the operator pair is not definite here"
        )
    lq = spla.solve_triangular(chol, q, lower=True, trans="T")
    vhat = np.linalg.qr(my)[0]

    shift_lus = []
    schur_factors = []
    for lam_i in lam:
        lu = sps_la.splu((a + lam_i * m_op).tocsc())
        schur_mat = vhat.T @ lu.solve(vhat)
        schur_mat = 0.5 * (schur_mat + schur_mat.T)
        try:
            schur_factors.append(spla.cho_factor(schur_mat))
        except np.linalg.LinAlgError:
            raise PreconditionerError(
                f"Schur complement of the shift {lam_i:.3e} "
                "is not positive definite"
            ) from None
        shift_lus.append(lu)

    rhs_j = u @ lq
    rhs_j = 2.0 * (rhs_j - vhat @ (vhat.T @ rhs_j))
    j_blocks = []
    k_blocks = []
    for i in range(p):
        j_i, _ = _saddle_apply(shift_lus[i], schur_factors[i], vhat, rhs_j)
        k_i = 2.0 * lam[i] * np.eye(p) - lq.T @ (u.T @ j_i)
        j_blocks.append(j_i)
        k_blocks.append(0.5 * (k_i + k_i.T))

    return ShiftSystemCache(
        point=point, variant=variant, u=u, lq=lq, lam=lam, vhat=vhat,
        shift_lus=shift_lus, schur_factors=schur_factors,
        j_blocks=j_blocks, coupled=CoupledSystem(k_blocks),
    )


def _defining_rhs(metric, point, eta):
    """Right-hand side T of nabla^2 h[F_xi] Y = T for the given metric."""
    if metric == Metric.EUCLIDEAN:
        return 0.5 * eta
    t = eta @ point.gram
    if metric == Metric.GRAM:
        return 0.5 * t
    return t + point.y @ point.solve_gram(point.y.T @ t)


def apply_cached(cache, metric, eta):
    """Apply the preconditioner to a horizontal array, reusing the cache.

    Runs the shifted saddle solves on the projected right-hand side, the
    coupled solve for the symmetric coefficient, recovers the ambient
    solution and projects it horizontal under the requested metric.
    """
    point = cache.point
    y = point.y
    p = y.shape[1]
    t = _defining_rhs(metric, point, eta)
    tm = t @ cache.lq
    tm = tm - cache.vhat @ (cache.vhat.T @ tm)
    tvec = np.empty_like(tm)
    for i in range(p):
        tvec[:, i], _ = saddle_solve(cache, i, tm[:, i])
    vmat = cache.lq.T @ (cache.u.T @ tvec)
    r_small = cache.lq.T @ (y.T @ t) @ cache.lq - vmat - vmat.T
    r_small = 0.5 * (r_small + r_small.T)
    s_tilde = cache.coupled.solve(r_small)
    z_tilde = tvec - np.column_stack(
        [cache.j_blocks[i] @ s_tilde[:, i] for i in range(p)]
    )
    xi_raw = y @ (cache.lq @ s_tilde @ cache.lq.T) + z_tilde @ cache.lq.T
    return project_horizontal(metric, point, xi_raw)


def apply_preconditioner(metric, problem, point, eta):
    """One-shot preconditioner apply (builds the cache and discards it).

    `eta` may be a raw array or a horizontal vector.

    Returns
    -------
    HorizontalVector
    """
    cache = build_shift_cache(problem, point, variant="proposed")
    out = apply_cached(cache, metric, _unwrap(eta))
    return HorizontalVector(at=cache.point, z=out, metric=metric)


def assemble_precond_operator_dense(metric, problem, point,
                                    variant="proposed", max_dim=400):
    """Dense matrix of the preconditioner in an orthonormal horizontal basis.

    Intended for small problems only: builds a metric-orthonormal basis of
    the horizontal space, applies the preconditioner to each basis vector
    and assembles the Gram form. The result is the matrix of the inverse of
    the dominant Hessian term, so it must come out symmetric positive
    definite, with eigenvalues that are the reciprocals of the dominant
    term's spectrum.

    Returns
    -------
    (ndarray, list of ndarray)
        The dim-by-dim matrix and the basis arrays it refers to.
    """
    from .manifold import horizontal_basis, metric_inner

    basis = horizontal_basis(metric, point)
    dim = len(basis)
    if dim > max_dim:
        raise ValueError("dense assembly requested on too large a problem")
    cache = build_shift_cache(problem, point, variant=variant)
    mat = np.empty((dim, dim))
    for col, vec in enumerate(basis):
        image = apply_cached(cache, metric, vec)
        for row in range(dim):
            mat[row, col] = metric_inner(metric, point, basis[row], image)
    return mat, basis
