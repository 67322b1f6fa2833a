"""Exact dense linear algebra over the package's fields.

Every matrix product, row reduction and kernel runs as a numpy kernel, from
the 4x4 torsion blocks held in :class:`Mat` to the reduction of the
twisted forms; only ``Mat.charpoly`` eliminates in field arithmetic.  Matrices
over F_p and Q are 2-d arrays, over F_{p^d} (rows, cols, d) coefficient
arrays with a precomputed reduction matrix.  One routine per operation
takes every field: ``mul_arrays`` (elementwise) and ``matmul_arrays``
(matrix) products, and ``fp_rref`` (F_p, Q) or ``fq_rref`` (F_{p^d}) behind
the row-list interface and ``quadrics.parity_rref``, which reduces a set of
forms on each [-1]-parity block's columns.  Each reduces mod p after every
sum of products of residues in [0, p) and keeps the dtype it is given;
the two rref kernels reduce in place.  ``to_np`` chooses that dtype, and
passes an array already in it through uncopied: int64 while
s (p-1)^2 < 2**63 for the kernel's longest sum of s products
(``int64_exact``), otherwise object arrays of Python ints, or of
Fractions over Q.  With d the extension degree and k the inner dimension
of a product, s is: 2 for ``fp_rref`` (p < 2**31); d for ``fq_rref``;
2d-1 for ``mul_arrays`` and ``quadrics.compose_forms``, whose sums add
reduced products; k over F_p and Q and max(k, d^2) over F_{p^d} for
``matmul_arrays`` and ``Mat.__mul__``; d for ``frobenius_fixed_values``;
max(136, d^2) for ``quadrics.forms_vanish_at``.  The two point searches
over F_p stay in int64 and refuse fields above their bounds: 6 for
``twist.p5_zeros`` and 136 for ``twist.search_twist_points``; over Q,
``twist.search_vdelta_rational`` leaves int64 above 36 B^2 max|M|.

Row conventions: a "row list" is a list of lists of raw field values; kernels
are returned as lists of raw-value vectors.
"""

from __future__ import annotations

import os

# Every array here is int64 or object, so no kernel calls BLAS; keep numpy's
# OpenBLAS from starting its thread pool at import.  A value the user set is
# kept, and the variable is gone again before any child process starts.
_SET_BLAS = "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_BLAS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402
if _SET_BLAS:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import Inconsistent
from .fields import Field
from .poly import Poly


def int64_exact(field: Field, terms: int) -> bool:
    """True when a sum of `terms` products of residues in [0, p) stays below
    2**63, so an int64 kernel forming such sums is exact over `field`."""
    return field.is_finite() and terms * (field.p - 1) ** 2 < 1 << 63


# ---------------------------------------------------------------------------
# numpy helpers


def _red_tables(field: Field):
    """Cached numpy reduction data for an extension field.

    RED is (2d-1, d): row k holds t^k reduced mod the modulus. REDFOLD is
    (d*d, d): row i*d+j reduces the outer-product coefficient slot (i, j).
    """
    if field._red is None:
        p, d = field.p, field.deg
        m = field.modulus
        red = [[1] + [0] * (d - 1)]
        for _ in range(1, 2 * d - 1):
            cur = red[-1]
            nxt = [0] + cur[: d - 1]
            lead = cur[d - 1]
            red.append([(x - lead * mi) % p for x, mi in zip(nxt, m)])
        red = to_np(field, red, 1)
        fold = np.zeros((d * d, 2 * d - 1), dtype=red.dtype)
        for i in range(d):
            for j in range(d):
                fold[i * d + j, i + j] = 1
        field._red = (red, (fold @ red) % p)
    return field._red


def to_np(field: Field, rows, s: int):
    """Raw values as a numpy array for a kernel summing s products: int64
    when that is exact (``int64_exact``), otherwise Python ints, or
    Fractions over Q, in an object array; an array of that dtype is
    returned itself, not copied."""
    return np.asarray(rows, dtype=np.int64 if int64_exact(field, s) else object)


def mod_p(field: Field, arr):
    """arr reduced mod p over a finite field; unchanged over Q."""
    return arr % field.p if field.is_finite() else arr


def from_np(field: Field, arr):
    arr = mod_p(field, np.asarray(arr))
    if field.kind != "ext":
        return arr.tolist()
    return [list(map(tuple, row.tolist())) for row in arr]


def mul_arrays(field: Field, a, b):
    """Elementwise product of two broadcastable arrays of raw values, reduced:
    (...) arrays over F_p and Q, (..., d) coefficient arrays over F_{p^d}
    (sums of 2d-1 products)."""
    if field.kind != "ext":
        return mod_p(field, np.multiply(a, b))
    p, d = field.p, field.deg
    red, _ = _red_tables(field)
    a, b = np.asarray(a), np.asarray(b)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    full = np.zeros(shape + (2 * d - 1,), dtype=np.result_type(a, b))
    for i in range(d):
        full[..., i : i + d] += a[..., i : i + 1] * b
    full %= p
    out = full @ red
    out %= p
    return out


def matmul_arrays(field: Field, A, B):
    """Matrix product of raw-value arrays, reduced: (r, k) @ (k, c) over F_p
    and Q, sums of k products; (r, k, d) @ (k, c, d) -> (r, c, d) over
    F_{p^d}, sums of at most max(k, d^2) products.  There, with A = sum_a
    A_a t^a for (r, k) arrays A_a over F_p, A B is the sum of the products
    A_a (t^a B): the coefficient array of t^a B sums d products (rows a d ..
    a d + d - 1 of ``redfold``) and each product k.  Each product, reduced,
    is added to the result, so only two (r, c, d) arrays are formed."""
    if field.kind != "ext":
        return mod_p(field, np.matmul(A, B))
    p, d = field.p, field.deg
    _, redfold = _red_tables(field)
    A = np.asarray(A) % p
    B = np.asarray(B) % p
    r, k, c = A.shape[0], A.shape[1], B.shape[1]
    out = np.zeros((r, c * d), dtype=np.result_type(A, B, redfold))
    term = np.empty_like(out)
    for a in range(d):
        np.matmul(A[:, :, a], (B @ redfold[a * d:(a + 1) * d] % p).reshape(k, c * d),
                  out=term)
        term %= p
        out += term
    out %= p
    return out.reshape(r, c, d)


def fp_rref(field: Field, A):
    """Reduced row echelon over F_p or Q; returns (R, pivot columns).  An
    ndarray argument is reduced in place and R is that array, so the caller
    passes one it does not read again.

    Only single products are formed, each reduced at once, so over F_p the
    int64 dtype is exact for every p < 2**31: (p-1)^2 < 2**62 leaves room
    for the subtraction."""
    A = np.asarray(A)
    if field.is_finite():
        A %= field.p
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = mod_p(field, A[r] * field.inv(A[r, c:c + 1].tolist()[0]))
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            update = A[rows]
            update -= np.outer(A[rows, c], A[r])
            A[rows] = mod_p(field, update)
        pivots.append(c)
        r += 1
    return A, pivots


def fq_rref(field: Field, A):
    """Reduced row echelon of an (R, C, d) extension-field array, in place
    as in ``fp_rref``; sums of d products.

    Each pivot row becomes, column by column, the d x d matrix of
    multiplication by its entry (sums of d products against the tensor
    T[a, b] = t^(a+b) of ``RED`` rows), and one matmul against those
    matrices updates every other row; the pivot row is normalized by the
    matrix of its pivot's inverse."""
    p, d = field.p, field.deg
    A = np.asarray(A)
    A %= p
    nrows, ncols = A.shape[0], A.shape[1]
    red, _ = _red_tables(field)
    T = red[np.add.outer(np.arange(d), np.arange(d))].reshape(d, d * d)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(np.any(A[r:, c, :] != 0, axis=-1))[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = np.array(field.inv(tuple(A[r, c].tolist())), dtype=A.dtype)
        A[r, c:] = A[r, c:] @ (inv @ T % p).reshape(d, d) % p
        rows = np.nonzero(np.any(A[:, c, :] != 0, axis=-1))[0]
        rows = rows[rows != r]
        if rows.size:
            # M[j, b] is row b of the matrix of multiplication by A[r, c + j]
            M = (A[r, c:] @ T % p).reshape(-1, d, d)
            prod = A[rows, c, :] @ M.transpose(1, 0, 2).reshape(d, -1)
            prod %= p
            update = A[rows, c:]
            update -= prod.reshape(update.shape)
            update %= p
            A[rows, c:] = update
        pivots.append(c)
        r += 1
    return A, pivots


def frobenius_fixed_values(field: Field, values, times: int = 1) -> bool:
    """True when a^(p^times) == a for every raw value a of `field`.

    Over an extension the values are stacked into one (N, d) array and
    multiplied by the cached Frobenius matrix (sums of d products); over
    F_p and Q the Frobenius is the identity."""
    if field.kind != "ext":
        return True
    A = to_np(field, values, field.deg).reshape(-1, field.deg)
    frob = to_np(field, field.frobenius_matrix(times), field.deg)
    return bool(np.array_equal(A @ frob.T % field.p, A))


def kernel_from_rref(field: Field, R, piv, ncols: int):
    """Basis of the right kernel of the first `ncols` columns of a reduced
    row echelon array R with pivot columns `piv`, all below `ncols`, over
    F_p, F_{p^d} or Q: one row per free column j, with 1 at j and -R[r, j]
    at the pivot column of row r."""
    free = [j for j in range(ncols) if j not in piv]
    basis = np.full((len(free), ncols) + R.shape[2:], field.zero(), dtype=R.dtype)
    basis[np.arange(len(free)), free] = field.one()
    basis[:, piv] = mod_p(field, -np.swapaxes(R[:len(piv), free], 0, 1))
    return basis


# ---------------------------------------------------------------------------
# generic row-list interface


def _rref_np(field: Field, rows):
    """(reduced array, pivot columns) of non-empty rows; an ndarray argument
    is reduced in a copy."""
    ext = field.kind == "ext"
    A = to_np(field, rows, field.deg if ext else 2)
    return (fq_rref if ext else fp_rref)(field, A.copy() if A is rows else A)


def rref_rows(field: Field, rows):
    """(reduced rows, pivot column list) over any field."""
    if not len(rows):
        return [], []
    R, piv = _rref_np(field, rows)
    return from_np(field, R), piv


def rank_rows(field: Field, rows) -> int:
    return len(_rref_np(field, rows)[1]) if len(rows) else 0


def kernel_rows(field: Field, rows):
    """Basis of the right kernel of the matrix given by rows."""
    if not len(rows):
        return []
    R, piv = _rref_np(field, rows)
    return from_np(field, kernel_from_rref(field, R, piv, len(rows[0])))


def solve_rows(field: Field, rows, rhs_cols):
    """Solve A.X = B columnwise.

    rows: the matrix A; rhs_cols: list of right-hand-side column vectors.
    Returns (solution columns, kernel basis); raises Inconsistent when some
    column has no solution.  Rank is len(A) minus kernel dimension as usual.
    [A | B] is reduced once: its kernel vectors at the free columns of A are
    (k, 0) with k a kernel vector of A, and at the column of B_t, free when
    the system is consistent, (-x, e_t) with A.x = B_t.
    """
    if not len(rows):
        return [[] for _ in rhs_cols], []
    ncols = len(rows[0])
    aug = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(rows)]
    R, piv = _rref_np(field, aug)
    if piv and piv[-1] >= ncols:
        raise Inconsistent("A.X = B has no solution")
    basis = kernel_from_rref(field, R, piv, ncols + len(rhs_cols))[:, :ncols]
    nker = len(basis) - len(rhs_cols)
    return from_np(field, -basis[nker:]), from_np(field, basis[:nker])


# ---------------------------------------------------------------------------
# the small-matrix class


class Mat:
    """Dense matrix over a single Field, raw-value storage, immutable use."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [[field.coerce(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return Mat(field, [[field.from_int(1 if i == j else 0) for j in range(n)]
                           for i in range(n)])

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Mat":
        return Mat(field, [[field.zero()] * c for _ in range(r)])._shaped(c)

    @staticmethod
    def diagonal(field: Field, entries) -> "Mat":
        n = len(entries)
        m = Mat.zeros(field, n, n)
        for i, e in enumerate(entries):
            m.rows[i][i] = field.coerce(e)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        return "Mat[" + "; ".join(" ".join(self.field.fmt(v) for v in row)
                                  for row in self.rows) + "]"

    def __add__(self, other):
        F = self.field
        return Mat(F, [[F.add(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        F = self.field
        return Mat(F, [[F.sub(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        F = self.field
        return Mat(F, [[F.neg(a) for a in row] for row in self.rows])

    def scale(self, s) -> "Mat":
        F = self.field
        s = F.coerce(s)
        return Mat(F, [[F.mul(a, s) for a in row] for row in self.rows])

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, Mat):
            return self.scale(other)
        # sums of max(k, d^2) products (``matmul_arrays``); the explicit
        # shapes keep a dimension of size 0
        s = max(self.ncols, F.deg ** 2)
        entry = (F.deg,) if F.kind == "ext" else ()
        A, B = (to_np(F, M.rows, s).reshape((M.nrows, M.ncols) + entry)
                for M in (self, other))
        return Mat(F, from_np(F, matmul_arrays(F, A, B)))._shaped(other.ncols)

    def matvec(self, vec):
        return (self * Mat(self.field, [[v] for v in vec])).col(0)

    def transpose(self) -> "Mat":
        return Mat(self.field, [self.col(j) for j in range(self.ncols)])._shaped(self.nrows)

    def _shaped(self, ncols: int) -> "Mat":
        """Self with `ncols` columns, which rows alone do not give when
        there are none (a 0 x k matrix)."""
        self.ncols = ncols
        return self

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def det(self):
        """(-1)^n times the constant term of ``charpoly``."""
        c = self.charpoly().coeff(0)
        return self.field.neg(c) if self.nrows % 2 else c

    def inv(self) -> "Mat":
        F = self.field
        n = self.nrows
        aug = [list(r) + [F.from_int(1 if i == j else 0) for j in range(n)]
               for i, r in enumerate(self.rows)]
        R, piv = rref_rows(F, aug)
        if piv != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Mat(F, [row[n:] for row in R])

    def charpoly(self) -> Poly:
        """Monic characteristic polynomial det(x*I - M) via Hessenberg form."""
        F = self.field
        n = self.nrows
        h = [list(r) for r in self.rows]
        # similarity reduction to upper Hessenberg: each row operation is
        # paired with the inverse column operation
        for c in range(n - 2):
            pr = next((i for i in range(c + 1, n) if not F.is_zero(h[i][c])), None)
            if pr is None:
                continue
            if pr != c + 1:
                h[c + 1], h[pr] = h[pr], h[c + 1]
                for row in h:
                    row[c + 1], row[pr] = row[pr], row[c + 1]
            inv = F.inv(h[c + 1][c])
            for i in range(c + 2, n):
                if F.is_zero(h[i][c]):
                    continue
                f = F.mul(h[i][c], inv)
                h[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = F.add(row[c + 1], F.mul(f, row[i]))
        return self._charpoly_hessenberg(h)

    def _charpoly_hessenberg(self, h):
        F = self.field
        n = self.nrows
        ps = [Poly.const(F, 1)]
        x = Poly.x(F)
        for m in range(1, n + 1):
            term = (x - Poly.const(F, h[m - 1][m - 1])) * ps[m - 1]
            prod = F.one()
            for k in range(1, m):
                prod = F.mul(prod, h[m - k][m - k - 1])
                term = term - Poly.const(F, F.mul(h[m - 1 - k][m - 1], prod)) * ps[m - 1 - k]
            ps.append(term)
        return ps[n]

    def frobenius_fixed(self) -> bool:
        """Entrywise a^p == a: all entries lie in the prime subfield image."""
        return frobenius_fixed_values(self.field, [v for row in self.rows for v in row])

    def map_entries(self, fn) -> "Mat":
        return Mat(self.field, [[fn(v) for v in row] for row in self.rows])

    def col(self, j):
        return [row[j] for row in self.rows]


def block_diag(field: Field, blocks) -> Mat:
    n = sum(b.nrows for b in blocks)
    out = Mat.zeros(field, n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            out.rows[off + i][off:off + b.ncols] = row
        off += b.nrows
    return out


def solve_linear(A: Mat, B: Mat):
    """One solution of A.X = B plus a basis of ker A.

    Returns (X: Mat, kernel: list of column vectors).  Raises Inconsistent
    when no solution exists.
    """
    cols = [B.col(j) for j in range(B.ncols)]
    sols, kernel = solve_rows(A.field, A.rows, cols)
    X = Mat(A.field, [list(r) for r in zip(*sols)]) if sols else Mat.zeros(A.field, A.ncols, 0)
    return X, kernel
