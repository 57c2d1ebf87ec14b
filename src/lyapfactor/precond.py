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

The builds of one fixed-rank solve share a shift bank on a pencil wider
than BAND_LIMIT or a band with half-bandwidth kd >= BANK_KD. A build then
snaps each lambda_i to a log grid and reuses the factors of the grid
points an earlier build made; it is the exact inverse of the dominant
term with Y^T A Y replaced by lq^{-T} diag(lambda~) lq^{-1}, an operator
that is still self-adjoint and positive definite. The bank keeps only
the factors of the current build, at most p. Without a bank, and on
every narrower band, the build inverts the dominant term exactly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
import scipy.sparse.linalg as sps_la

from .manifold import Metric, project_horizontal
from .problems import (_GEQRF, _ORGQR, _PBTRF, FactorPoint, SolverError,
                       _as_point, _cho_factor, _cho_solve)

# Largest p for which the coupled symmetric system is assembled densely;
# beyond it the solve falls back to conjugate gradient on the operator.
COUPLED_DIRECT_LIMIT = 64

# Largest half-bandwidth for which the shifts are factored by band Cholesky
# (LAPACK pbtrf, with tbtrs sweeps); wider pencils go to the sparse LU
# (splu). On a 200-by-200 grid (kd = 201) pbtrf is the faster
# factorization, but the band solves are 4x slower than splu's and the
# factor 1.7x larger.
BAND_LIMIT = 128

# Smallest half-bandwidth at which a solve's builds share a shift bank
# (see build_shift_cache); pencils wider than BAND_LIMIT always share one.
# The bank snaps each shift to a log grid of BANK_PER_DECADE points per
# decade. Narrower bands factor too fast for the reuse to pay. Fixed-rank
# solves at p = 5 from cold starts (4 seeds, fastest of 5 runs each, one
# thread of a 2-core Xeon) on s-by-s grids (kd = s + 1) ran, banked
# against exact, 1.13x as long at kd = 11, 1.06x at kd = 18, 1.02x at
# kd = 20, 0.94x at kd = 21, 0.90x at kd = 31 and 0.81x at kd = 51; on
# a tridiagonal pencil with n = 2e4, 1.16x.
BANK_KD = 21
BANK_PER_DECADE = 8

# Largest band, in entries, into which band shifts are stacked for one
# pbtrf or tbtrs call (512 KiB). Stacking saves a call per shift, which
# pays on small bands: whole irr-poisson1d solves (n = 100, kd = 1) ran
# 0.94x as long stacked as with one band per shift. A stack much larger
# than a core's cache costs more than the calls it saves: on the 40x40
# grid (kd = 41) whole solves ran 1.06-1.09x as long with the five shifts
# in one 2.7 MB band as with one band each (fastest of 3 solves of each of
# 8-10 instances, one thread of a 2-core Xeon with 2 MiB L2 per core).
STACK_LIMIT = 1 << 16

# sygvd is the driver of scipy.linalg.eigh for a generalized problem, called
# without its wrapper: the same eigenpairs bit for bit.
_TBTRS, _SYGVD = spla.get_lapack_funcs(("tbtrs", "sygvd"), dtype=np.float64)


class PreconditionerError(SolverError):
    """The preconditioner could not be built or applied at this point."""

    def __init__(self, message):
        super().__init__(
            message + "; advising fallback to the identity preconditioner"
        )


@functools.cache
def _upper(p):
    """triu_indices(p, 1), formed once per p and shared, so read-only."""
    upper = np.triu_indices(p, 1)
    for idx in upper:
        idx.flags.writeable = False
    return upper


def _sym_to_vec(mat, upper):
    """Coordinates of a symmetric matrix in the orthonormal basis E_ij.

    E_ii = e_i e_i^T and E_ij = (e_i e_j^T + e_j e_i^T) / sqrt(2), so the
    map is a Frobenius isometry. The E_ii come first, then the E_ij at
    `upper` = triu_indices(p, 1). Leading axes of `mat` are a batch.
    """
    iu, ju = upper
    return np.concatenate([np.diagonal(mat, 0, -2, -1),
                           math.sqrt(2.0) * mat[..., iu, ju]], axis=-1)


def _vec_to_sym(vec, upper):
    iu, ju = upper
    p = vec.shape[0] - iu.size
    mat = np.diag(vec[:p])
    mat[iu, ju] = mat[ju, iu] = vec[p:] * (1.0 / math.sqrt(2.0))
    return mat


def _coupled_matrix(k_stack, upper):
    """Dense matrix of the coupled map in the basis E_ij, in closed form.

    The image of E_ij (i <= j) is W + W^T, where W is zero but for column i,
    K_i E_ij(:, i), and column j, K_j E_ij(:, j): columns of K_i and K_j
    times the basis entry. So the images are filled in directly, with the
    same elementwise arithmetic as applying the map to each basis matrix
    and taking coordinates (_sym_to_vec) of only the entries they read,
    in blocks of columns that bound the p^2 entries each W takes.
    """
    p = k_stack.shape[0]
    c1, c2 = (np.concatenate([np.arange(p), idx]) for idx in upper)
    scale = np.ones((c1.size, 1))
    scale[p:] = 1.0 / math.sqrt(2.0)
    dense = np.empty((c1.size, c1.size))
    for start in range(0, c1.size, 256):
        b = slice(start, start + 256)
        w = np.zeros((c1[b].size, p, p))
        rows = np.arange(c1[b].size)
        w[rows, :, c1[b]] = k_stack[c1[b], :, c2[b]] * scale[b]
        w[rows, :, c2[b]] = k_stack[c2[b], :, c1[b]] * scale[b]
        coords = w[:, c1, c2] + w[:, c2, c1]
        coords[:, p:] *= math.sqrt(2.0)
        dense[:, b] = coords.T
    return 0.5 * (dense + dense.T)


class CoupledSystem:
    """The small coupled map S -> W + W^T with W(:, i) = K_i S(:, i).

    This is the matrix form of (K + Pi K Pi) vec(S) with K the block
    diagonal of the K_i and Pi the perfect shuffle: the map commutes with
    transposition, so the symmetric matrices form an invariant subspace and
    the system is solved there, in an orthonormal basis of dimension
    p (p + 1) / 2. Since each K_i is symmetric the restricted map is
    self-adjoint; it is assembled densely and Cholesky-factored for small
    p and applied matrix-free under conjugate gradient for large p.
    """

    def __init__(self, k_blocks):
        self.k_stack = np.asarray(k_blocks, dtype=float)
        self.p = len(k_blocks)
        self.upper = _upper(self.p)
        self.dim = self.p + self.upper[0].size
        self._cho = None
        if 0 < self.p <= COUPLED_DIRECT_LIMIT:
            dense = _coupled_matrix(self.k_stack, self.upper)
            try:
                self._cho = _cho_factor(dense)
            except np.linalg.LinAlgError:
                raise PreconditionerError(
                    "coupled symmetric system is not positive definite "
                    "at this point"
                ) from None

    def apply(self, s):
        """Image of a symmetric p-by-p matrix under the coupled map."""
        w = (self.k_stack @ s.T[:, :, None])[:, :, 0].T
        return w + w.T

    def solve(self, rhs):
        """Symmetric solution of apply(S) = rhs for symmetric rhs."""
        vec = _sym_to_vec(rhs, self.upper)
        if self._cho is not None:
            out = _cho_solve(self._cho, vec)
        else:
            op = sps_la.LinearOperator(
                (self.dim, self.dim),
                matvec=lambda x: _sym_to_vec(
                    self.apply(_vec_to_sym(x, self.upper)), self.upper
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
        return _vec_to_sym(out, self.upper)


def _pencil(problem, variant):
    """(A, M, band) with M = I for "bart", cached on the problem until
    problem.a.mat or problem.m.mat is rebound.

    The union of the nonzero patterns of A and M is formed once, in sorted
    CSC order, and A and M are read on it once, each zero where it has no
    entry; both backends take their input from these arrays. band is None
    when the half-bandwidth kd = max |i - j| over the union, in the given
    order, exceeds BAND_LIMIT; A and M are then returned in CSC on the
    union, sharing its indptr and indices, so the shift A + lam M is the
    matrix with those indices and the data a.data + lam m.data, less the
    entries that cancel exactly. Otherwise they are returned as given and
    band is (kd, flat, a_low, m_low): for the union's entries on or below
    the diagonal, where they go in LAPACK's lower band storage,
    ab[i - j, j] = F[i, j] with ab of shape (kd + 1, n) in column-major
    order (flat = i + kd j), and the values of A and of M there.
    """
    a, m = problem.a.mat, problem.m.mat
    pencils = vars(problem).setdefault("_pencils", {})
    (a0, m0), entry = pencils.get(variant, ((None, None), None))
    if a0 is not a or m0 is not m:
        m_op = m if variant == "proposed" else sps.eye(*a.shape, format="csr")
        # the sum drops the exact zeros that A and M share
        union = (abs(a) + abs(m_op)).tocsc()
        union.sort_indices()
        rows, indptr = union.indices, union.indptr
        cols = np.repeat(np.arange(union.shape[1]), np.diff(indptr))
        values = [np.asarray(mat[rows, cols]).ravel() for mat in (a, m_op)]
        kd = int((rows - cols).max(initial=0))
        if kd > BAND_LIMIT:
            entry = (*(sps.csc_matrix((data, rows, indptr), shape=a.shape)
                       for data in values), None)
        else:
            low = rows >= cols
            entry = a, m_op, (kd, rows[low] + kd * cols[low],
                              *(data[low] for data in values))
        pencils[variant] = ((a, m), entry)
    return entry


def _factor_shifts(pencil, lams, bank=None, record=None):
    """Factor the shifts F_i = A + lam_i M of pencil = (A, M, band) and
    return (half, rest), with rest(half(rhs)) the solve of block i of an
    (n p)-row rhs, rows i n to (i + 1) n - 1, with F_i; rhs may carry
    several columns.

    lam_i > 0 makes every shift SPD, so Cholesky, or diagonal pivots in a
    symmetric order, are stable. A band pencil is factored F_i = L_i L_i^T
    by pbtrf, its shifts filled by one scatter of the aligned lower-band
    entries of A and M into consecutive blocks of columns of as few bands
    as STACK_LIMIT allows. The entries that would couple two shifts are
    zero, so a band is block diagonal and one pbtrf call, and one tbtrs
    call per sweep, serves all of its shifts: half is the forward sweep
    L_i^{-1} and rest the back sweep L_i^{-T}. A pencil wider than
    BAND_LIMIT gets one sparse LU of A + lam_i M per shift, formed from
    the data of A and M on the union of their patterns, where _pencil
    keeps them; half is its whole solve and rest the identity.

    With a `bank`, a dict from shift to factor, every shift gets a factor
    of its own (one band, or one LU): the bank's factors of shifts not in
    lams are dropped first, then the shifts it lacks are factored into it,
    and the rest are reused. A `record` (tnewton.SolveRecord) counts in
    its `factorizations` each shift handed to pbtrf or splu, before the
    call, so a shift that fails to factor counts too.

    Raises PreconditionerError naming the shift that fails to factor.
    """
    a, m, band = pencil
    n = a.shape[0]
    if band is None:
        per = 1
    else:
        kd, flat, a_low, m_low = band
        per = 1 if bank is not None else max(
            1, STACK_LIMIT // ((kd + 1) * n))

    def factor(group):
        if record is not None:
            record.factorizations += len(group)
        if band is None:
            data = a.data + group[0] * m.data
            shift = sps.csc_matrix((data, a.indices, a.indptr),
                                   shape=a.shape)
            if not data.all():
                # the sum A + lam M drops the entries that cancel exactly
                shift = shift.copy()
                shift.eliminate_zeros()
            try:
                return sps_la.splu(shift, permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise PreconditionerError(
                    f"shift {group[0]:.3e} failed to factor: {exc}") from None
        ab = np.zeros((len(group), (kd + 1) * n))
        ab[:, flat] = a_low + group[:, None] * m_low
        ab = ab.ravel().reshape((kd + 1, -1), order="F")
        chol, info = _PBTRF(ab, lower=1, overwrite_ab=1)
        if info != 0:
            shift = (info - 1) // n
            raise PreconditionerError(
                f"shift {group[shift]:.3e} failed to factor: "
                f"pbtrf failed with info {info - shift * n}")
        return chol

    groups = [lams[first:first + per] for first in range(0, len(lams), per)]
    if bank is None:
        factors = [factor(group) for group in groups]
    else:
        for lam in set(bank).difference(lams):
            del bank[lam]
        for group in groups:
            if group[0] not in bank:
                bank[group[0]] = factor(group)
        factors = [bank[lam] for lam in lams]
    if band is None:
        return (lambda rhs: np.concatenate(
            [lu.solve(rhs[i * n:(i + 1) * n])
             for i, lu in enumerate(factors)]), lambda rhs: rhs)
    size = per * n

    def sweep(trans):
        return lambda rhs: np.concatenate(
            [_TBTRS(chol, rhs[k * size:(k + 1) * size], uplo="L",
                    trans=trans)[0] for k, chol in enumerate(factors)])

    return sweep("N"), sweep("T")


def _spd_inverses(s, lams):
    """The inverses of a stack of symmetric S_i, by one batched Cholesky,
    naming the first shift whose S_i is non-finite or not positive
    definite."""
    if np.isfinite(s).all():
        try:
            inv = np.linalg.inv(np.linalg.cholesky(s))
            return inv.swapaxes(1, 2) @ inv
        except np.linalg.LinAlgError:
            pass
    for lam, s_i in zip(lams, s):
        # ValueError: a non-finite S_i, or potrf's LinAlgError (a subclass)
        try:
            _cho_factor(s_i)
        except ValueError as exc:
            raise PreconditionerError(
                f"shift {lam:.3e} failed to factor: {exc}") from None
    raise PreconditionerError("a shift failed to factor")


@dataclass
class ShiftSystemCache:
    """Point-dependent factorizations shared by all preconditioner applies.

    Built once per outer iteration. Holds the eigenpairs (lam, lq) of the
    projected pencil (Y^T A Y, Y^T M Y), lq^T Y^T M Y lq = I (Y^T Y for
    "bart"), the orthonormal basis vhat of range(M Y), M Y = vhat R,
    ylq = Y lq, E = vhat^T Y lq, and the shifts F_i = A + lambda_i M as
    the maps (half, rest) of _factor_shifts. The build's only sparse
    solves are G_i = half(vhat) for all i: L_i^{-1} vhat on a band, with
    `left` = G_i, and Z_i = F_i^{-1} vhat for an LU, with `left` = vhat.
    S_i = left_i^T G_i = vhat^T Z_i, the Schur complement of the saddle
    constraint vhat^T x = 0, is kept as its inverse. Since
    F_i^{-1} A Y = Y - lambda_i Z_i R, the coupled system's blocks are
    K_i = 2 (E^T S_i^{-1} E - diag(lam)). Nothing here depends on the
    metric.
    """

    point: FactorPoint
    lq: np.ndarray
    lam: np.ndarray
    vhat: np.ndarray
    ylq: np.ndarray
    e: np.ndarray
    half: object
    rest: object
    g_stack: np.ndarray
    left: np.ndarray
    s_inv: np.ndarray
    coupled: CoupledSystem


def build_shift_cache(problem, point, variant="proposed", bank=None,
                      record=None):
    """Factor the p shifted systems and the coupled block at a point.

    With a `bank`, on the pencils the module docstring names, each shift
    lam_i is snapped to lam~_i = 10^(round(k log10 lam_i) / k),
    k = BANK_PER_DECADE, and lam~ replaces lam everywhere in the cache:
    in the factors (see _factor_shifts), the S_i and the
    K_i = 2 (E^T S~_i^{-1} E - diag(lam~)).

    Parameters
    ----------
    problem : LyapunovProblem
    point : FactorPoint
        Full column rank factor.
    variant : {"proposed", "bart"}
        "proposed" shifts A by multiples of M; "bart" shifts by multiples
        of the identity and constrains against Y instead of M Y.
    bank : dict, optional
        Factors by snapped shift, kept by the caller from build to build.
    record : tnewton.SolveRecord, optional
        Counts the shift factorizations the build makes.

    Returns
    -------
    ShiftSystemCache

    Raises
    ------
    PreconditionerError
        If the pencil, a shift, its Schur complement or the coupled
        system fails to factor as positive definite.
    """
    if variant not in ("proposed", "bart"):
        raise ValueError(f"unknown preconditioner variant {variant!r}")
    point = _as_point(point)
    if not point.has_full_rank:
        raise ValueError("preconditioner needs a full rank factor")
    y = point.y
    n, p = y.shape
    prod = point.products(problem)
    if variant == "proposed":
        my, ymy = prod.v, prod.yv
    else:
        my, ymy = y, point.gram
    lam, lq, info = _SYGVD(prod.yu, ymy, uplo="L")
    if info != 0:
        raise PreconditionerError(
            "mass Gram matrix of the factor is not positive definite")
    if lam[0] <= 0.0:
        raise PreconditionerError(
            "projected pencil has a nonpositive eigenvalue "
            f"({lam[0]:.3e}); the operator pair is not definite here"
        )
    raw, tau = _GEQRF(my)[:2]
    vhat = _ORGQR(raw, tau)[0]

    pencil = _pencil(problem, variant)
    if bank is not None and (pencil[2] is None or pencil[2][0] >= BANK_KD):
        lam = 10.0 ** (np.round(BANK_PER_DECADE * np.log10(lam))
                       / BANK_PER_DECADE)
    else:
        bank = None
    half, rest = _factor_shifts(pencil, lam, bank, record)
    g_stack = half(np.broadcast_to(vhat, (p, n, p)).reshape(-1, p)).reshape(
        p, n, p)
    left = g_stack if pencil[2] is not None else np.broadcast_to(
        vhat, g_stack.shape)
    s = left.swapaxes(1, 2) @ g_stack
    s_inv = _spd_inverses(0.5 * (s + s.swapaxes(1, 2)), lam)
    ylq = y @ lq
    e = vhat.T @ ylq
    k_stack = 2.0 * (e.T @ s_inv @ e - np.diag(lam))
    return ShiftSystemCache(
        point=point, lq=lq, lam=lam, vhat=vhat, ylq=ylq, e=e,
        half=half, rest=rest, g_stack=g_stack, left=left, s_inv=s_inv,
        coupled=CoupledSystem(0.5 * (k_stack + k_stack.swapaxes(1, 2))))


def _defining_rhs(metric, point, eta):
    """Right-hand side T of nabla^2 h[F_xi] Y = T for the given metric."""
    if metric == Metric.EUCLIDEAN:
        return 0.5 * eta
    t = eta @ point.gram
    if metric == Metric.GRAM:
        return 0.5 * t
    return point.remove_range(t, -1.0)


def apply_cached(cache, metric, eta):
    """Apply the preconditioner to a horizontal array, reusing the cache.

    Column t_i of the projected right-hand side is solved with shift i.
    After the forward sweep h_i = half(t_i), the saddle multiplier is
    mu_i = S_i^{-1} left_i^T h_i, and the coupled right-hand side needs
    the saddle solve x_i only as U^T x_i = Y^T (t_i - vhat mu_i). With the
    coupled solution S~ and nu_i = 2 S_i^{-1} E S~_i, one back sweep gives
    rest(h_i - G_i (mu_i - nu_i)) = x_i - J_i S~_i + 2 Y lq S~_i. The
    ambient solution is projected horizontal under the requested metric.
    """
    point = cache.point
    n, p = point.y.shape
    t = _defining_rhs(metric, point, eta)
    tl = t @ cache.lq
    tm = tl - cache.vhat @ (cache.vhat.T @ tl)
    # row i of each (p, ...) array belongs to shift i; the batched
    # products take shift i's column as a (p, ., 1) stack
    h = cache.half(tm.T.ravel()).reshape(p, n)
    mu = (cache.s_inv @ (h[:, None, :] @ cache.left).swapaxes(1, 2))[:, :, 0]
    vmat = cache.ylq.T @ tm - cache.e.T @ mu.T
    r_small = cache.ylq.T @ tl - vmat - vmat.T
    s_tilde = cache.coupled.solve(0.5 * (r_small + r_small.T))
    nu = 2.0 * (cache.s_inv @ (cache.e @ s_tilde).T[:, :, None])[:, :, 0]
    x = h - (cache.g_stack @ (mu - nu)[:, :, None])[:, :, 0]
    x = cache.rest(x.ravel()).reshape(p, n).T
    return project_horizontal(metric, point,
                              (x - cache.ylq @ s_tilde) @ cache.lq.T)


def preconditioner(choice, metric, problem, point, bank=None, record=None):
    """The preconditioner at a point as a function on horizontal arrays.

    choice is "none" (the identity), "proposed" or "bart"; the latter two
    build the shift cache once here, with the given bank and record (see
    build_shift_cache), and apply it on every call.
    """
    if choice == "none":
        return lambda arr: arr
    cache = build_shift_cache(problem, point, choice, bank, record)
    return lambda arr: apply_cached(cache, metric, arr)
