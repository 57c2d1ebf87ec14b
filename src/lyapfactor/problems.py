"""Problem data for generalized Lyapunov equations with low-rank right-hand side.

The equation is A X M + M X A = C with A and M sparse symmetric positive
definite and C = B B^T positive semidefinite of low rank. Solutions are
approximated by symmetric low-rank products Y Y^T, so everything here is
written to avoid forming n-by-n dense matrices unless explicitly asked to
(`dense_oracle_solve`).
"""

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps

# Positive definiteness is verified by a Cholesky factorization only up to
# this size; above it, downstream Cholesky/LU factorizations fail loudly if
# it is violated.
SPD_CHECK_LIMIT = 500

# Hard cap for the dense reference solver.
DENSE_LIMIT = 2000

# Direct LAPACK calls on small dense blocks, with the LinAlgError and the
# ValueError on non-finite input of scipy's cho_factor and cho_solve but
# without their per-call wrapper. On a Cholesky factor, potrs flags only
# bad shapes, which f2py rejects. pbtrf is the Cholesky factorization in
# LAPACK's band storage, of the definiteness check below and of the
# preconditioner's band shifts.
_POTRF, _POTRS, _PBTRF = spla.get_lapack_funcs(("potrf", "potrs", "pbtrf"))


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise ValueError("array must not contain infs or NaNs")


def _cho_factor(mat, lower=False):
    _check_finite(mat)
    cho, info = _POTRF(mat, lower=lower, clean=False)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf failed with info {info}")
    return cho, lower


def _cho_solve(cho, rhs):
    _check_finite(rhs)
    return _POTRS(cho[0], rhs, lower=cho[1])[0]


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input, with file and line context."""

    def __init__(self, path, lineno, message):
        location = f"{path}:{lineno}" if lineno else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.lineno = lineno


class SolverError(RuntimeError):
    """A solve failed. `trace` is the SolveTrace of the iterations that did
    complete, set as the error leaves a solve, and `rank` the rank whose
    start or solve raised, set as it leaves an increasing-rank solve; None
    outside one. The definiteness ValueError of a solve carries both the
    same way."""

    trace = None
    rank = None


def _not_definite(quantity, value):
    """The ValueError of a quantity that is positive when A and M are
    positive definite but came out as `value` <= 0."""
    return ValueError(f"A or M is not positive definite: {quantity} = "
                      f"{value:.3e} <= 0")


def _asymmetric_entry(mat):
    """0-based (i, j) of the largest mismatch between mat and mat^T, or None.

    A canonical CSR (sorted indices, no duplicates) equals its transpose's
    CSR array for array exactly when the matrix is symmetric and stores
    the same pattern on both sides of the diagonal, and the transpose's
    CSR arrays are the matrix's own CSC arrays. Anything else, such as an
    explicit zero on one side only, is decided by the subtraction. The
    caller's arrays are never changed.
    """
    mat = sps.csr_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()  # summing duplicates in place, not the caller's
        mat.sum_duplicates()
    csc = mat.tocsc()
    if all(np.array_equal(getattr(mat, name), getattr(csc, name))
           for name in ("indptr", "indices", "data")):
        return None
    diff = (mat - mat.T).tocoo()
    if diff.nnz and np.abs(diff.data).max() > 0.0:
        i = int(np.argmax(np.abs(diff.data)))
        return int(diff.row[i]), int(diff.col[i])
    return None


class SpdSparseMatrix:
    """Sparse symmetric positive definite matrix.

    The matrix must be real; symmetry is required to hold exactly (entry
    by entry) and is checked on construction. Positive definiteness is
    checked for n <= SPD_CHECK_LIMIT by a band Cholesky factorization
    (pbtrf) of the lower triangle, with the half-bandwidth kd measured
    from the matrix (kd = n - 1 makes it a dense Cholesky), and taken on
    trust above that size. The matrix is kept as its own canonical CSR
    copy, duplicate entries summed. The symmetry error carries the
    offending 0-based pair as its `pair` attribute.
    """

    def __init__(self, mat):
        if np.iscomplexobj(mat):
            raise ValueError("matrix must be real, not complex")
        mat = sps.csr_matrix(mat, dtype=float, copy=True)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat.data).all():
            raise ValueError("matrix has a non-finite entry")
        mat.sum_duplicates()
        pair = _asymmetric_entry(mat)
        if pair is not None:
            error = ValueError(
                "matrix is not symmetric: entries ({0}, {1}) and ({1}, {0}) "
                "differ".format(*pair)
            )
            error.pair = pair
            raise error
        n = mat.shape[0]
        if n <= SPD_CHECK_LIMIT:
            # LAPACK lower band storage, ab[i - j, j] = mat[i, j] for i >= j
            rows = np.repeat(np.arange(n), np.diff(mat.indptr))
            below = rows - mat.indices
            low = below >= 0
            ab = np.zeros((int(below.max(initial=0)) + 1, n))
            ab[below[low], mat.indices[low]] = mat.data[low]
            info = _PBTRF(ab, lower=1, overwrite_ab=1)[1]
            if info != 0:
                raise ValueError(
                    f"matrix is not positive definite (its leading "
                    f"{info}-by-{info} block is not)"
                )
        self.mat = mat

    @property
    def n(self):
        return self.mat.shape[0]


@dataclass
class LyapunovProblem:
    """Data (A, M, B) of the equation A X M + M X A = B B^T."""

    a: SpdSparseMatrix
    m: SpdSparseMatrix
    b: np.ndarray

    def __post_init__(self):
        if self.a.n != self.m.n:
            raise ValueError("A and M must have the same size")
        if np.iscomplexobj(self.b):
            raise ValueError("B must be real, not complex")
        b = np.array(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != self.a.n:
            raise ValueError("B must have one row per equation unknown")
        if b.shape[1] == 0:
            raise ValueError("B must have at least one column")
        if not np.isfinite(b).all():
            raise ValueError("B has a non-finite entry")
        self.b = b

    @property
    def n(self):
        return self.a.n


class FactorPoint:
    """A rank-p iterate, represented by the factor Y of X = Y Y^T.

    Full column rank of Y, equivalently membership in the manifold of
    rank-p factors, is decided by attempting a Cholesky factorization of
    the Gram matrix Y^T Y; a wide factor (p > n) never has it. The Gram
    matrix and its factorization are cached because every metric operation
    reuses them, and so are the products with one problem's matrices (see
    `products`). Y must therefore not be changed in place after
    construction.
    """

    def __init__(self, y):
        y = np.ascontiguousarray(y, dtype=float)
        if y.ndim != 2:
            raise ValueError("factor must be a 2d array")
        if y.shape[1] < 1:
            raise ValueError("factor must have at least one column")
        self.y = y
        self._products = None

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.y.shape[1]

    @cached_property
    def gram(self):
        return self.y.T @ self.y

    @cached_property
    def _gram_cho(self):
        try:
            return _cho_factor(self.gram, lower=True)
        except np.linalg.LinAlgError:
            return None

    @property
    def has_full_rank(self):
        return self.p <= self.n and self._gram_cho is not None

    def solve_gram(self, rhs):
        """Apply (Y^T Y)^{-1} from the left to a p-by-k right-hand side."""
        if self._gram_cho is None:
            raise ValueError("factor is rank deficient")
        return _cho_solve(self._gram_cho, rhs)

    def solve_gram_right(self, lhs):
        """Apply (Y^T Y)^{-1} from the right to a k-by-p left-hand side."""
        return self.solve_gram(lhs.T).T

    def remove_range(self, x, s=1.0):
        """x - s P x with P = Y (Y^T Y)^{-1} Y^T the projector onto range(Y).

        s = 1 gives the component of x orthogonal to range(Y), s = 1/2 the
        (I - P/2) of the EMBEDDED lift and s = -1 the map I + P.
        """
        return x - s * (self.y @ self.solve_gram(self.y.T @ x))

    def products(self, problem):
        """U = A Y, V = M Y and N Y of `problem`, each formed on first use.

        The products of the last problem asked for are kept.
        """
        if self._products is None or self._products.problem is not problem:
            self._products = _PointProducts(problem, self.y)
        return self._products

    def scaled(self, t, problem):
        """The point t Y, whose products with `problem` start from t A Y,
        t M Y and t B^T Y of this point's, with no sparse product."""
        prod = self.products(problem)
        point = FactorPoint(t * self.y)
        out = point.products(problem)
        out.u, out.v, out.by = t * prod.u, t * prod.v, t * prod.by
        return point


class _PointProducts:
    """Lazy U = A Y, V = M Y and N Y, with N = U V^T + V U^T - B B^T, and
    the cost and residual norm that depend on them: every quantity at a
    point is computed at most once."""

    def __init__(self, problem, y):
        self.problem = problem
        self.y = y

    @cached_property
    def u(self):
        return self.problem.a.mat @ self.y

    @cached_property
    def v(self):
        return self.problem.m.mat @ self.y

    @cached_property
    def ny(self):
        return self.apply_residual(self.y)

    def apply_residual(self, w):
        """Product N @ w, never forming N."""
        b = self.problem.b
        return self.u @ (self.v.T @ w) + self.v @ (self.u.T @ w) - b @ (b.T @ w)

    @cached_property
    def by(self):
        return self.problem.b.T @ self.y

    @cached_property
    def cost(self):
        """tr(Y^T A Y Y^T M Y) - tr(Y^T B B^T Y) (see manifold.cost)."""
        y, by = self.y, self.by
        return float(np.sum((y.T @ self.u) * (self.v.T @ y)) - np.sum(by * by))

    def line(self, d):
        """The cost along Y + alpha d as a CostQuartic: two sparse products
        with d, none for d = Y."""
        at = (self.y, self.u, self.v, self.by)
        if d is self.y:
            return CostQuartic(at, at)
        problem = self.problem
        return CostQuartic(at, (d, problem.a.mat @ d, problem.m.mat @ d,
                                problem.b.T @ d))

    @cached_property
    def residual_fro(self):
        """||U V^T + V U^T - B B^T||_F (see residual_fro)."""
        p = self.y.shape[1]
        coeff = np.linalg.qr(np.hstack([self.u, self.v, self.problem.b]),
                             mode="r")
        small = _compressed_residual(coeff[:, :p], coeff[:, p:2 * p],
                                     coeff[:, 2 * p:])
        return float(np.linalg.norm(small))


# A cost difference formed from terms of total magnitude s is trusted only
# beyond ROUNDING * s.
ROUNDING = 64.0 * np.finfo(float).eps


class CostQuartic:
    """The cost along a line in factor space, exactly quartic in the step:

        f(Y + alpha D) - f(Y) = c1 alpha + c2 alpha^2 + c3 alpha^3
                                + c4 alpha^4.

    `at` is (Y, A Y, M Y, B^T Y) and `along` is (D, A D, M D, B^T D). With
    (Y + alpha D)^T A (Y + alpha D) = P0 + alpha P1 + alpha^2 P2, likewise
    Q0, Q1, Q2 for M, and B^T (Y + alpha D) = B^T Y + alpha B^T D:

        c1 = tr(P0 Q1 + P1 Q0) - 2 tr(Y^T B B^T D)
        c2 = tr(P0 Q2 + P1 Q1 + P2 Q0) - tr(D^T B B^T D)
        c3 = tr(P1 Q2 + P2 Q1)
        c4 = tr(P2 Q2)

    Only p-by-p products are formed beyond those given. `coeffs` holds
    c1 ... c4 and `sizes` the sum of the magnitudes of the entrywise terms
    each is formed from, so that `bound(alpha)` bounds the rounding error
    of `delta(alpha)`.
    """

    def __init__(self, at, along):
        y, u, v, by = at
        d, ad, md, bd = along
        ya, ym = y.T @ ad, y.T @ md
        pa = np.stack([y.T @ u, ya + ya.T, d.T @ ad])
        qm = np.stack([y.T @ v, ym + ym.T, d.T @ md])
        bb = np.stack([by, bd])
        self.coeffs = self._combine(np.einsum("iab,jab->ij", pa, qm),
                                    -np.einsum("iab,jab->ij", bb, bb))
        self.sizes = self._combine(
            np.einsum("iab,jab->ij", np.abs(pa), np.abs(qm)),
            np.einsum("iab,jab->ij", np.abs(bb), np.abs(bb)))

    @staticmethod
    def _combine(t, b):
        """c1 ... c4 from t[i, j] = tr(Pi Qj) and b[i, j] the B^T terms,
        or their magnitudes."""
        return np.array([t[0, 1] + t[1, 0] + 2.0 * b[0, 1],
                         t[0, 2] + t[1, 1] + t[2, 0] + b[1, 1],
                         t[1, 2] + t[2, 1],
                         t[2, 2]])

    def delta(self, alpha):
        """f(Y + alpha D) - f(Y)."""
        c1, c2, c3, c4 = self.coeffs
        return float(alpha * (c1 + alpha * (c2 + alpha * (c3 + alpha * c4))))

    def bound(self, alpha):
        """eps(alpha) = ROUNDING * sum_k sizes_k |alpha|^k."""
        powers = abs(alpha) ** np.arange(1, 5)
        return float(ROUNDING * np.dot(self.sizes, powers))

    @cached_property
    def minimizer(self):
        """The smallest alpha > 0 at which the quartic has a local minimum,
        or None."""
        c1, c2, c3, c4 = self.coeffs
        roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1])
        real = roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real
        found = [r for r in real
                 if r > 0.0 and 2.0 * c2 + r * (6.0 * c3 + 12.0 * c4 * r) > 0.0]
        return float(min(found)) if found else None


def _as_point(point):
    """`point` itself if it is a FactorPoint, else the point of a raw factor."""
    return point if isinstance(point, FactorPoint) else FactorPoint(point)


def residual_fro(problem, point):
    """Frobenius norm of the residual A Y Y^T M + M Y Y^T A - B B^T.

    With U = A Y and V = M Y the residual is U V^T + V U^T - B B^T, whose
    column space lies in span([U, V, B]): the R factor of a thin QR of that
    stack compresses the residual to a small square matrix whose norm is
    taken directly. No n-by-n matrix is formed; the cost is O(n (p + s)^2)
    beyond the point's two sparse products. Unlike an expansion of the
    squared norm into traces of Gram matrices, the compressed form does not
    cancel O(||C||^2) terms against each other, so it stays accurate at
    points where the residual is tiny. `point` may be a `FactorPoint` or a
    raw (n, p) factor.

    Parameters
    ----------
    problem : LyapunovProblem
    point : FactorPoint or ndarray

    Returns
    -------
    float
    """
    return _as_point(point).products(problem).residual_fro


def _compressed_residual(cu, cv, cb):
    """C_U C_V^T + (C_U C_V^T)^T - C_B C_B^T: the residual U V^T + V U^T
    - B B^T in a basis where U, V and B have coefficients C_U, C_V, C_B."""
    small = cu @ cv.T
    return small + small.T - cb @ cb.T


def relative_residual(problem, point):
    """Residual norm of the iterate relative to ||C||_F = ||B^T B||_F."""
    denom = float(np.linalg.norm(problem.b.T @ problem.b))
    if denom == 0.0:
        raise ValueError("zero right-hand side")
    return residual_fro(problem, point) / denom


def dense_oracle_solve(problem):
    """Solve A X M + M X A = B B^T densely. Reference only.

    Works in the generalized eigenbasis of the pencil (A, M): with
    A W = M W diag(w) and W^T M W = I, the transformed equation is diagonal
    and X = W ((W^T C W) / (w_i + w_j)) W^T. A problem with n above
    DENSE_LIMIT is refused, so that a large one is not densified by
    accident.

    Parameters
    ----------
    problem : LyapunovProblem

    Returns
    -------
    ndarray
        The symmetric solution X, shape (n, n).
    """
    n = problem.n
    if n > DENSE_LIMIT:
        raise ValueError(f"dense solve refused for n = {n} > {DENSE_LIMIT}")
    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    w, vecs = spla.eigh(a, m)
    if w[0] <= 0.0:
        raise ValueError("pencil must be positive definite")
    bw = problem.b.T @ vecs
    proj = bw.T @ bw
    x_hat = proj / (w[:, None] + w[None, :])
    x = vecs @ x_hat @ vecs.T
    return 0.5 * (x + x.T)


def gen_poisson(n, seed, identity_mass=False):
    """One-dimensional Poisson stiffness with random diagonal mass matrix.

    A is the tridiagonal second difference matrix (-1, 2, -1) scaled by
    1/h^2 with h = 1/(n+1). M is diagonal with entries drawn uniformly from
    [0.1, 1.1), the last entry fixed at 0.1; with `identity_mass` it is the
    identity instead. B is a single standard normal column. All randomness
    comes from numpy's default generator seeded with `seed`.

    Parameters
    ----------
    n : int
    seed : int
    identity_mass : bool

    Returns
    -------
    LyapunovProblem
    """
    if n < 2:
        raise ValueError(f"gen_poisson needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    h = 1.0 / (n + 1)
    diag = np.arange(n)
    # Rows (off, main, off) at columns (i - 1, i, i + 1), laid end to end,
    # less the two entries outside the matrix: the CSR arrays of A.
    a = sps.csr_matrix(
        (np.tile([-1.0 / (h * h), 2.0 / (h * h), -1.0 / (h * h)], n)[1:-1],
         (diag[:, None] + [-1, 0, 1]).ravel()[1:-1],
         np.clip(np.arange(-1, 3 * n, 3), 0, 3 * n - 2)),
        shape=(n, n))
    if identity_mass:
        d = np.ones(n)
    else:
        d = np.concatenate([rng.random(n - 1), [0.0]]) + 0.1
    m = sps.csr_matrix((d, diag, np.arange(n + 1)), shape=(n, n))
    b = rng.standard_normal((n, 1))
    return LyapunovProblem(SpdSparseMatrix(a), SpdSparseMatrix(m), b)


# ---------------------------------------------------------------------------
# Matrix Market input and output.
#
# The writer is scipy's mmwrite. The reader is deliberately hand-rolled:
# its errors carry the offending file and line, and it makes checks that
# scipy's mmread skips. mmread (scipy 1.17) mirrors an upper-triangle entry
# of a symmetric file, so "1 1 2" and "1 2 2" read as [[2, 2], [2, 0]],
# and it accepts a 2-by-3 symmetric array, after which the process
# crashes at exit; this reader rejects both at their line. Only the subset
# needed for problem data is supported: real coordinate and real dense
# array, each general or symmetric (the lower triangle, as the exchange
# format stores it).
# ---------------------------------------------------------------------------


def _parse_matrix_market(path):
    """Parse one Matrix Market file.

    Returns (kind, symmetry, matrix) where kind is "coordinate" or "array",
    and matrix is a COO matrix or a dense ndarray respectively. Symmetric
    coordinate input is mirrored into a full matrix.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(path, 1, "missing %%MatrixMarket header")
    _, obj, kind, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise MatrixMarketError(path, 1, f"unsupported object {obj!r}")
    if kind not in ("coordinate", "array"):
        raise MatrixMarketError(path, 1, f"unsupported format {kind!r}")
    if field not in ("real", "integer"):
        raise MatrixMarketError(path, 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry {symmetry!r}")

    body = [
        (no, line)
        for no, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise MatrixMarketError(path, len(lines), "missing size line")

    size_no, size_line = body[0]
    tokens = size_line.split()
    expected = 3 if kind == "coordinate" else 2
    if len(tokens) != expected:
        raise MatrixMarketError(
            path, size_no, f"size line must have {expected} integers"
        )
    try:
        dims = [int(tok) for tok in tokens]
    except ValueError:
        raise MatrixMarketError(path, size_no, "size line must be integers") from None
    if any(d < 0 for d in dims) or dims[0] == 0 or dims[1] == 0:
        raise MatrixMarketError(path, size_no, "invalid matrix dimensions")

    entries = body[1:]
    if kind == "coordinate":
        rows, cols, nnz = dims
        if len(entries) != nnz:
            raise MatrixMarketError(
                path, size_no,
                f"expected {nnz} entries, found {len(entries)}",
            )
        ii = np.empty(nnz, dtype=np.int64)
        jj = np.empty(nnz, dtype=np.int64)
        vv = np.empty(nnz, dtype=float)
        for k, (no, line) in enumerate(entries):
            parts = line.split()
            if len(parts) != 3:
                raise MatrixMarketError(path, no, "entry must be 'i j value'")
            try:
                i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise MatrixMarketError(path, no, "malformed entry") from None
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise MatrixMarketError(path, no, f"index ({i}, {j}) out of range")
            if symmetry == "symmetric" and j > i:
                raise MatrixMarketError(
                    path, no, "symmetric file must store the lower triangle"
                )
            ii[k], jj[k], vv[k] = i - 1, j - 1, val
        mat = sps.coo_matrix((vv, (ii, jj)), shape=(rows, cols))
        if symmetry == "symmetric":
            strict = sps.triu(mat.T, k=1)
            mat = (mat + strict).tocoo()
        return kind, symmetry, mat

    rows, cols = dims
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(path, size_no, "symmetric array must be square")
    count = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
    if len(entries) != count:
        raise MatrixMarketError(
            path, size_no,
            f"expected {count} values, found {len(entries)}",
        )
    values = np.empty(count, dtype=float)
    for k, (no, line) in enumerate(entries):
        try:
            values[k] = float(line)
        except ValueError:
            raise MatrixMarketError(path, no, "malformed value") from None
    if symmetry == "general":
        return kind, symmetry, values.reshape((rows, cols), order="F")
    # The lower triangle, column by column: (j, i) for i >= j is the upper
    # triangle's (row, column) order with the roles swapped.
    upper_cols, upper_rows = np.triu_indices(rows)
    dense = np.zeros((rows, cols))
    dense[upper_rows, upper_cols] = values
    return kind, symmetry, dense + np.tril(dense, -1).T


def _load_spd(path):
    kind, _, mat = _parse_matrix_market(path)
    if kind == "array":
        mat = sps.coo_matrix(mat)
    try:
        return SpdSparseMatrix(mat)
    except ValueError as exc:
        # Only a general file can be asymmetric: a symmetric one is
        # mirrored. Its pair is named 1-based, as the file counts.
        pair = getattr(exc, "pair", None)
        message = str(exc) if pair is None else (
            "general matrix is not symmetric: entries ({0}, {1}) and "
            "({1}, {0}) differ".format(pair[0] + 1, pair[1] + 1))
        raise MatrixMarketError(path, 0, message) from exc


def load_matrix_market(path_a, path_m, path_b):
    """Load problem data (A, M, B) from three Matrix Market files.

    A and M must be square, symmetric and positive definite (symmetric
    storage or exactly symmetric general storage). B may be stored dense
    (array) or sparse (coordinate general) and is returned dense.

    Returns
    -------
    LyapunovProblem
    """
    a = _load_spd(path_a)
    m = _load_spd(path_m)
    if a.n != m.n:
        raise MatrixMarketError(
            path_m, 0, f"size mismatch: A is {a.n}-by-{a.n}, M is {m.n}-by-{m.n}"
        )
    kind, symmetry, b = _parse_matrix_market(path_b)
    if symmetry != "general":
        raise MatrixMarketError(path_b, 0, "right-hand side factor must be general")
    if kind == "coordinate":
        b = b.toarray()
    if b.shape[0] != a.n:
        raise MatrixMarketError(
            path_b, 0,
            f"B has {b.shape[0]} rows but the system has {a.n} unknowns",
        )
    try:
        return LyapunovProblem(a, m, np.asarray(b))
    except ValueError as exc:
        raise MatrixMarketError(path_b, 0, str(exc)) from exc


def save_matrix_market(path, mat, comment=None):
    """Write a real matrix in Matrix Market exchange format (scipy.io.mmwrite).

    Sparse input is written in coordinate format, as its lower triangle
    ("symmetric") when it is exactly symmetric. Dense input is written in
    array format, column major; a 1-D array as one column, as
    LyapunovProblem takes a 1-D B.
    """
    from scipy.io import mmwrite  # not on the solve path

    if sps.issparse(mat):
        square = mat.shape[0] == mat.shape[1]
        symmetry = ("symmetric" if square and _asymmetric_entry(mat) is None
                    else "general")
    else:
        mat, symmetry = np.asarray(mat, dtype=float), "general"
        if mat.ndim == 1:
            mat = mat[:, None]
    # Given a name, mmwrite would append ".mtx" where it is missing, and
    # with symmetry="AUTO" it looks for symmetry only below size 100.
    with open(path, "wb") as fh:
        mmwrite(fh, mat, comment=comment, field="real", symmetry=symmetry)


def save_problem(directory, problem, comment=None):
    """Write A, M, B and a manifest into a directory; returns the manifest path.

    The manifest is a plain key=value file with keys a, m and b naming the
    three Matrix Market files relative to the manifest location.
    """
    os.makedirs(directory, exist_ok=True)
    names = {"a": "a.mtx", "m": "m.mtx", "b": "b.mtx"}
    save_matrix_market(os.path.join(directory, names["a"]), problem.a.mat, comment)
    save_matrix_market(os.path.join(directory, names["m"]), problem.m.mat, comment)
    save_matrix_market(os.path.join(directory, names["b"]), problem.b, comment)
    manifest = os.path.join(directory, "problem.manifest")
    with open(manifest, "w", encoding="ascii") as fh:
        for key, name in names.items():
            fh.write(f"{key} = {name}\n")
    return manifest


def load_manifest(path):
    """Load a problem from a key=value manifest naming the A, M and B files.

    Lines are `key = value`; blank lines and lines starting with '#' are
    ignored. Paths are resolved relative to the manifest location.

    Returns
    -------
    LyapunovProblem
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = {}
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{no}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries[key.strip().lower()] = value.strip()
    missing = sorted({"a", "m", "b"} - entries.keys())
    if missing:
        raise ValueError(f"{path}: manifest is missing keys: {', '.join(missing)}")
    paths = {k: os.path.join(base, entries[k]) for k in ("a", "m", "b")}
    return load_matrix_market(paths["a"], paths["m"], paths["b"])
