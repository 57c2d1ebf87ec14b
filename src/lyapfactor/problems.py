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

# Positive definiteness is verified densely only up to this size; above it,
# downstream Cholesky/LU factorizations fail loudly if it is violated.
SPD_CHECK_LIMIT = 500

# Hard cap for the dense reference solver.
DENSE_LIMIT = 2000

_POTRS = spla.get_lapack_funcs("potrs")


def _cho_solve(cho, rhs):
    """scipy's cho_solve(cho, rhs): the same potrs call and ValueError on
    a non-finite rhs (cho_factor checked the factor), without the wrapper."""
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    out, info = _POTRS(cho[0], rhs, lower=cho[1])
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of potrs")
    return out


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input, with file and line context."""

    def __init__(self, path, lineno, message):
        location = f"{path}:{lineno}" if lineno else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _asymmetric_entry(mat):
    """0-based (i, j) of the largest mismatch between mat and mat^T, or None."""
    mat = sps.csr_matrix(mat)
    diff = (mat - mat.T).tocoo()
    if diff.nnz and np.abs(diff.data).max() > 0.0:
        i = int(np.argmax(np.abs(diff.data)))
        return diff.row[i], diff.col[i]
    return None


class SpdSparseMatrix:
    """Sparse symmetric positive definite matrix.

    Symmetry is required to hold exactly (entry by entry) and is checked on
    construction. Positive definiteness is checked densely for
    n <= SPD_CHECK_LIMIT and taken on trust above that size.
    """

    def __init__(self, mat):
        mat = sps.csr_matrix(mat).astype(float)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat.data).all():
            raise ValueError("matrix has a non-finite entry")
        pair = _asymmetric_entry(mat)
        if pair is not None:
            raise ValueError(
                "matrix is not symmetric: entries ({0}, {1}) and ({1}, {0}) "
                "differ".format(*pair)
            )
        if mat.shape[0] <= SPD_CHECK_LIMIT:
            smallest = float(np.linalg.eigvalsh(mat.toarray())[0])
            if smallest <= 0.0:
                raise ValueError(
                    f"matrix is not positive definite "
                    f"(smallest eigenvalue {smallest:.3e})"
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
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != self.a.n:
            raise ValueError("B must have one row per equation unknown")
        if not np.isfinite(b).all():
            raise ValueError("B has a non-finite entry")
        self.b = b

    @property
    def n(self):
        return self.a.n

    @property
    def rhs_rank(self):
        return self.b.shape[1]

    def rhs_norm(self):
        """Frobenius norm of C = B B^T, computed as ||B^T B||_F."""
        bb = self.b.T @ self.b
        return float(np.linalg.norm(bb))


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
            return spla.cho_factor(self.gram, lower=True)
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

    def products(self, problem):
        """U = A Y, V = M Y and N Y of `problem`, each formed on first use.

        The products of the last problem asked for are kept.
        """
        if self._products is None or self._products.problem is not problem:
            self._products = _PointProducts(problem, self.y)
        return self._products


class _PointProducts:
    """Lazy U = A Y, V = M Y and N Y, with N = U V^T + V U^T - B B^T."""

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
    point = _as_point(point)
    prod = point.products(problem)
    p = point.p
    coeff = np.linalg.qr(np.hstack([prod.u, prod.v, problem.b]), mode="r")
    cu = coeff[:, :p]
    cv = coeff[:, p:2 * p]
    cb = coeff[:, 2 * p:]
    small = cu @ cv.T
    small = small + small.T - cb @ cb.T
    return float(np.linalg.norm(small))


def relative_residual(problem, point):
    """Residual norm of the iterate relative to ||C||_F."""
    denom = problem.rhs_norm()
    if denom == 0.0:
        raise ValueError("zero right-hand side")
    return residual_fro(problem, point) / denom


def dense_oracle_solve(problem, dense_limit=DENSE_LIMIT):
    """Solve A X M + M X A = B B^T densely. Reference only.

    Works in the generalized eigenbasis of the pencil (A, M): with
    A W = M W diag(w) and W^T M W = I, the transformed equation is diagonal
    and X = W ((W^T C W) / (w_i + w_j)) W^T.

    Parameters
    ----------
    problem : LyapunovProblem
    dense_limit : int
        Guard against accidentally densifying a large problem.

    Returns
    -------
    ndarray
        The symmetric solution X, shape (n, n).
    """
    n = problem.n
    if n > dense_limit:
        raise ValueError(f"dense solve refused for n = {n} > {dense_limit}")
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
    main = np.full(n, 2.0 / (h * h))
    off = np.full(n - 1, -1.0 / (h * h))
    a = sps.diags([off, main, off], [-1, 0, 1], format="csr")
    if identity_mass:
        m = sps.eye(n, format="csr")
    else:
        d = np.concatenate([rng.random(n - 1), [0.0]]) + 0.1
        m = sps.diags([d], [0], format="csr")
    b = rng.standard_normal((n, 1))
    return LyapunovProblem(SpdSparseMatrix(a), SpdSparseMatrix(m), b)


# ---------------------------------------------------------------------------
# Matrix Market input and output.
#
# The reader is deliberately hand-rolled: errors must carry the offending
# file and line, and symmetric files must round-trip exactly, neither of
# which scipy's reader provides. Only the subset needed for problem data is
# supported: real coordinate and real dense array, each general or
# symmetric (the lower triangle, as the exchange format stores it).
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
    kind, symmetry, mat = _parse_matrix_market(path)
    if kind == "array":
        mat = sps.coo_matrix(mat)
    pair = _asymmetric_entry(mat) if symmetry == "general" else None
    if pair is not None:
        raise MatrixMarketError(
            path, 0,
            "general matrix is not symmetric: entries "
            "({0}, {1}) and ({1}, {0}) differ".format(pair[0] + 1, pair[1] + 1),
        )
    try:
        return SpdSparseMatrix(mat)
    except ValueError as exc:
        raise MatrixMarketError(path, 0, str(exc)) from exc


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
    """Write a matrix in Matrix Market exchange format.

    Sparse input is written in coordinate format; symmetric sparse matrices
    are detected and stored as their lower triangle. Dense input is written
    in array format, column major.
    """
    with open(path, "w", encoding="ascii") as fh:
        if sps.issparse(mat):
            mat = mat.tocoo()
            if _asymmetric_entry(mat) is None:
                lower = sps.tril(mat).tocoo()
                fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
            else:
                lower = mat
                fh.write("%%MatrixMarket matrix coordinate real general\n")
            if comment:
                fh.write(f"% {comment}\n")
            fh.write(f"{mat.shape[0]} {mat.shape[1]} {lower.nnz}\n")
            for i, j, v in zip(lower.row, lower.col, lower.data):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            arr = np.atleast_2d(np.asarray(mat, dtype=float))
            fh.write("%%MatrixMarket matrix array real general\n")
            if comment:
                fh.write(f"% {comment}\n")
            fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
            for v in arr.reshape(-1, order="F"):
                fh.write(f"{v:.17g}\n")


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
