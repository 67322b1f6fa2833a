import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.errors import Inconsistent
from genus2covers.fields import Field
from genus2covers.linalg import (Mat, block_diag, ext_matmul_np, fp_rref,
                                 fq_rref, int64_exact, kernel_rows, rank_rows,
                                 rref_rows, solve_linear, solve_rows,
                                 span_supported, to_np)
from genus2covers.poly import Poly
from genus2covers.quadrics import MONOMIALS, QuadricForm, forms_vanish_at
from conftest import in_row_span


def _rand_mat(F, rng, r, c):
    return Mat(F, [[F.rand(rng) for _ in range(c)] for _ in range(r)])


def trace(A):
    F = A.field
    t = F.zero()
    for i in range(A.nrows):
        t = F.add(t, A.rows[i][i])
    return t


def test_solve_identity_and_zero():
    F = Field.prime(11)
    I = Mat.identity(F, 4)
    B = Mat(F, [[1, 2], [3, 4], [5, 6], [7, 8]])
    X, ker = solve_linear(I, B)
    assert X.rows == B.rows
    assert ker == []
    Z = Mat.zeros(F, 3, 3)
    X, ker = solve_linear(Z, Mat.zeros(F, 3, 1))
    assert all(F.is_zero(v) for row in X.rows for v in row)
    assert len(ker) == 3


@pytest.mark.parametrize("F", [Field.prime(7), Field.extension(7, 2)], ids=repr)
def test_products_with_a_dimension_of_size_zero(F):
    A = Mat.identity(F, 3)
    X, ker = solve_linear(A, Mat.zeros(F, 3, 0))
    assert (A * X).rows == [[], [], []]


@pytest.mark.parametrize("F", [Field.prime(7), Field.extension(7, 2)], ids=repr)
def test_zero_row_matrices_keep_their_columns(F):
    """The transpose of a 3 x 0 solution is 0 x 3, and so is its product
    with I_3."""
    I = Mat.identity(F, 3)
    Xt = solve_linear(I, Mat.zeros(F, 3, 0))[0].transpose()
    P = Xt * I
    assert (Xt.nrows, Xt.ncols) == (P.nrows, P.ncols) == (0, 3)
    assert P.rows == []
    assert (Mat.zeros(F, 0, 3).transpose().nrows, Mat.zeros(F, 0, 3).ncols) == (3, 3)


def test_solve_random_full_rank_and_remultiply():
    rng = random.Random(11)
    for F in (Field.prime(97), Field.extension(5, 2)):
        for _ in range(5):
            A = _rand_mat(F, rng, 20, 10)
            while rank_rows(F, A.rows) != 10:
                A = _rand_mat(F, rng, 20, 10)
            Xtrue = _rand_mat(F, rng, 10, 2)
            B = A * Xtrue
            X, ker = solve_linear(A, B)
            assert ker == []
            assert (A * X).rows == B.rows


def test_solve_detects_inconsistency():
    F = Field.prime(7)
    A = Mat(F, [[1, 0], [1, 0]])
    B = Mat(F, [[1], [2]])
    with pytest.raises(Inconsistent):
        solve_linear(A, B)


def test_rank_plus_kernel_dim():
    rng = random.Random(12)
    for F in (Field.prime(101), Field.extension(7, 2), Field.rationals()):
        for _ in range(10):
            rows = [[F.rand(rng) for _ in range(8)] for _ in range(rng.randrange(1, 12))]
            assert rank_rows(F, rows) + len(kernel_rows(F, rows)) == 8
            for v in kernel_rows(F, rows):
                for row in rows:
                    acc = F.zero()
                    for a, b in zip(row, v):
                        acc = F.add(acc, F.mul(a, b))
                    assert F.is_zero(acc)


def test_inverse_and_det():
    rng = random.Random(13)
    for F in (Field.prime(103), Field.extension(11, 2)):
        for _ in range(10):
            A = _rand_mat(F, rng, 5, 5)
            if F.is_zero(A.det()):
                continue
            assert (A * A.inv()).rows == Mat.identity(F, 5).rows


def cofactor_det(F, rows):
    """Reference determinant by expansion along the first row."""
    if not rows:
        return F.one()
    det = F.zero()
    for j, a in enumerate(rows[0]):
        minor = cofactor_det(F, [row[:j] + row[j + 1:] for row in rows[1:]])
        term = F.mul(a, minor)
        det = F.sub(det, term) if j % 2 else F.add(det, term)
    return det


def test_det_matches_cofactor_expansion():
    """``Mat.det``, read from the characteristic polynomial, against the
    expansion by minors, on random and on singular matrices of sizes 0-5."""
    rng = random.Random(15)
    for F in (Field.prime(103), Field.extension(11, 2), Field.rationals()):
        for n in range(6):
            A = _rand_mat(F, rng, n, n)
            assert A.det() == cofactor_det(F, A.rows)
            if n > 1:
                S = Mat(F, A.rows[:-1] + [A.rows[0]])
                assert S.det() == cofactor_det(F, S.rows) == F.zero()


def test_charpoly_known_cases():
    F = Field.prime(101)
    # companion matrix of x^3 + 2x + 5 has exactly that charpoly
    C = Mat(F, [[0, 0, -5], [1, 0, -2], [0, 1, 0]])
    assert C.charpoly() == Poly(F, [5, 2, 0, 1])
    D = Mat.diagonal(F, [F.from_int(2), F.from_int(3), F.from_int(3)])
    cp = D.charpoly()
    expect = Poly(F, [-2, 1]) * Poly(F, [-3, 1]) * Poly(F, [-3, 1])
    assert cp == expect


def test_charpoly_random_vs_trace_det():
    rng = random.Random(14)
    for F in (Field.prime(97), Field.extension(5, 3)):
        for _ in range(10):
            A = _rand_mat(F, rng, 4, 4)
            cp = A.charpoly()
            assert cp.degree == 4 and cp.lc() == F.one()
            # coefficient of x^3 is -trace, constant term is det(-A)
            assert cp.coeff(3) == F.neg(trace(A))
            assert cp.coeff(0) == Mat(F, [[F.neg(v) for v in row] for row in A.rows]).det()
            # Cayley-Hamilton-free sanity: charpoly at an eigenvalue-free shift
            assert cp.evaluate(F.zero()) == cp.coeff(0)


def test_block_diag_and_span():
    F = Field.prime(13)
    A = Mat(F, [[1, 2], [3, 4]])
    B = Mat(F, [[5]])
    M = block_diag(F, [A, B])
    assert M.rows == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    rows = [[1, 0, 0], [0, 1, 0]]
    assert in_row_span(F, rows, [[2, 3, 0]])
    assert not in_row_span(F, rows, [[0, 0, 1]])


def test_solve_rows_rational():
    Q = Field.rationals()
    rows = [[Q.from_int(2), Q.from_int(0)], [Q.from_int(0), Q.from_int(4)]]
    sols, ker = solve_rows(Q, rows, [[Q.from_int(1), Q.from_int(2)]])
    assert ker == []
    from fractions import Fraction
    assert sols[0] == [Fraction(1, 2), Fraction(1, 2)]


# ---------------------------------------------------------------------------
# differential tests: the numpy rref kernels against a plain reference, on
# int64 arrays and, past each kernel's bound and over Q, on object arrays

# primes just below and just above 2^25; 2^31 - 1, the largest prime whose
# fp_rref runs in int64; and 2^32 + 15, where it runs on Python ints
BOUND_PRIMES = [33554393, 33554467, 2147483647, 4294967311]


def ext_rows(arr):
    """Rows of coefficient tuples, read from an (R, C, d) array as it is."""
    return [list(map(tuple, row)) for row in arr.tolist()]


def plain_rref(F, rows):
    """Reduced row echelon form and pivot columns in field arithmetic."""
    A = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(len(A[0])):
        pr = next((i for i in range(r, len(A)) if not F.is_zero(A[i][c])), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(x, inv) for x in A[r]]
        for i in range(len(A)):
            if i != r and not F.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


@st.composite
def residue_matrices(draw, p, d=None):
    """Matrices of residues mod p (coefficient tuples of length d if given),
    with zeros, extreme residues and repeated rows, so that pivots move and
    the rank drops."""
    residue = st.one_of(st.just(0), st.integers(1, 3), st.integers(p - 3, p - 1),
                        st.integers(0, p - 1))
    return draw(matrices(residue if d is None else st.tuples(*[residue] * d)))


@st.composite
def matrices(draw, entry):
    """Matrices of 1 to 9 rows and columns of `entry`; half of them repeat
    the first row in the last."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(BOUND_PRIMES))
def test_fp_rref_matches_plain_rref(data, p):
    F = Field.prime(p)
    rows = data.draw(residue_matrices(p))
    A = to_np(F, rows, 2)
    assert (A.dtype == object) == (p > 2 ** 31)
    R, piv = fp_rref(F, A)
    assert (R.tolist(), piv) == plain_rref(F, rows)
    assert rref_rows(F, rows) == plain_rref(F, rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_rref_matches_plain_rref_over_q(data):
    """Over Q the same kernel runs on an object array of Fractions, with
    pivots inverted by ``Field.inv`` and nothing reduced."""
    Q = Field.rationals()
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)),
                      st.fractions(-20, 20, max_denominator=12))
    rows = data.draw(matrices(entry))
    A = to_np(Q, rows, 2)
    assert A.dtype == object
    R, piv = fp_rref(Q, A)
    assert (R.tolist(), piv) == plain_rref(Q, rows)
    assert rref_rows(Q, rows) == plain_rref(Q, rows)


# (p, d): fq_rref sums d products, so it runs in int64 while
# d (p-1)^2 < 2^63.  (101, 8) is the working degree of a Cassels twist
# rebuilt over the quadratic extension; 2^31 - 1 is inside the bound at
# d = 2 and just outside it at d = 3, where the arrays hold Python ints.
FQ_RREF_CASES = [(101, 3), (33554467, 2), (101, 8), (2147483647, 2), (2147483647, 3)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=st.sampled_from(FQ_RREF_CASES))
def test_fq_rref_matches_plain_rref(data, case):
    p, d = case
    F = Field.extension(p, d)
    rows = data.draw(residue_matrices(p, d))
    want = plain_rref(F, rows)
    A = to_np(F, rows, d)
    assert (A.dtype == object) == (case == (2147483647, 3))
    R, piv = fq_rref(F, A)
    assert (ext_rows(R), piv) == want
    assert rref_rows(F, rows) == want


@pytest.mark.parametrize("p, d", [(101, 8), (2147483647, 2), (2147483647, 3)])
def test_fq_rref_matches_plain_rref_on_dense_matrices(p, d):
    """Seeded matrices of uniform residues with one dependent row, so every
    pivot update meets full-size entries; at 2^31 - 1 a product left
    unreduced overflows int64 at d = 2, and at d = 3, on Python ints, leaves
    the dependent row a nonzero multiple of p."""
    F = Field.extension(p, d)
    rng = random.Random(p * d)
    for nrows, ncols in [(6, 9), (9, 6), (8, 8)]:
        rows = [[tuple(rng.randrange(p) for _ in range(d)) for _ in range(ncols)]
                for _ in range(nrows - 1)]
        rows.append([F.add(x, y) for x, y in zip(rows[0], rows[1])])
        R, piv = fq_rref(F, to_np(F, rows, d))
        assert (ext_rows(R), piv) == plain_rref(F, rows)


@pytest.mark.parametrize("F", [Field.prime(101), Field.prime(4294967311), Field.rationals(),
                               Field.extension(101, 3)], ids=repr)
def test_rref_reduces_an_ndarray_in_place(F):
    """fp_rref and fq_rref reduce an ndarray argument in place and return
    it, here a row view of a stack as ``twist._kernel_pairs`` passes."""
    rows = [[F.from_int(v) for v in row] for row in [[0, 2, 3], [2, 4, 7], [2, 6, 10]]]
    read = ext_rows if F.kind == "ext" else np.ndarray.tolist
    kernel, s = (fq_rref, F.deg) if F.kind == "ext" else (fp_rref, 2)
    stack = np.stack([to_np(F, rows, s)] * 2)
    R, piv = kernel(F, stack[0])
    assert np.shares_memory(R, stack[0])
    assert (read(stack[0]), piv) == plain_rref(F, rows)
    assert read(stack[1]) == rows


def plain_ext_mul(F, a, b):
    """Product of two coefficient tuples of F_{p^d} in Python ints, reduced
    by the monic modulus t^d + m_{d-1} t^{d-1} + ... + m_0."""
    p, d, m = F.p, F.deg, F.modulus
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            prod[top - d + i] -= prod[top] * m[i]
    return tuple(v % p for v in prod[:d])


def plain_ext_matmul(F, A, B):
    out = []
    for row in A:
        out.append([])
        for col in zip(*B):
            acc = [0] * F.deg
            for a, b in zip(row, col):
                acc = [(x + y) % F.p for x, y in zip(acc, plain_ext_mul(F, a, b))]
            out[-1].append(tuple(acc))
    return out


def residues(p):
    return st.one_of(st.just(0), st.integers(1, 3), st.integers(p - 3, p - 1),
                     st.integers(0, p - 1))


# (inner dimension k, degree d, p): ext_matmul_np sums max(k, d^2) products,
# so it is exact while max(k, d^2) (p-1)^2 < 2^63; each bound with the prime
# just below it and the prime just above it
EXT_MATMUL_CASES = [(8, 2, 1073741789), (8, 2, 1073741827),
                    (3, 2, 1518500213), (3, 2, 1518500279)]


@settings(max_examples=20, deadline=None)
@given(data=st.data(), case=st.sampled_from(EXT_MATMUL_CASES))
def test_ext_matmul_np_matches_plain_product(data, case):
    """The kernel is exact in int64 below its bound, also with every residue
    near p, and on Python ints above it, on products with r k c > 512."""
    k, d, p = case
    F = Field.extension(p, d)
    rc = 9 if k == 8 else 14
    # all entries p - 1 (the largest sums), or residues biased to the ends
    entry = st.tuples(*[residues(p)] * d) | st.just((p - 1,) * d)
    if data.draw(st.booleans()):
        entry = st.just((p - 1,) * d)
    A = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rc, max_size=rc))
    B = data.draw(st.lists(st.lists(entry, min_size=rc, max_size=rc), min_size=k, max_size=k))
    want = plain_ext_matmul(F, A, B)
    s = max(k, d * d)
    assert int64_exact(F, s) == (p not in (1073741827, 1518500279))
    got = ext_matmul_np(F, to_np(F, A, s), to_np(F, B, s))
    assert ext_rows(got) == [list(row) for row in want]
    assert (Mat(F, A) * Mat(F, B)).rows == want


def plain_matmul(F, A, B):
    """Product in Python ints (Fractions over Q), reduced mod p at the end."""
    if F.kind == "ext":
        return plain_ext_matmul(F, A, B)
    red = (lambda v: v % F.p) if F.is_finite() else (lambda v: v)
    return [[red(sum(a * b for a, b in zip(row, col))) for col in zip(*B)] for row in A]


def field_entries(F):
    """Entries of F: residues biased to the ends of [0, p), as coefficient
    tuples over an extension, or small fractions over Q."""
    if not F.is_finite():
        return st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=12))
    return residues(F.p) if F.kind == "prime" else st.tuples(*[residues(F.p)] * F.deg)


# fields of every kind, with 2^32 + 15 past every int64 bound (Python ints)
SMALL_PRODUCT_FIELDS = [Field.prime(101), Field.extension(101, 8), Field.rationals(),
                        Field.prime(4294967311)]


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("F", SMALL_PRODUCT_FIELDS, ids=repr)
def test_small_mat_products_match_plain_product(data, F, n):
    """Products with r k c <= 512, and matvec as a product with one column,
    run through the same kernel as large ones."""
    square = st.lists(st.lists(field_entries(F), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    A, B = data.draw(square), data.draw(square)
    assert (Mat(F, A) * Mat(F, B)).rows == plain_matmul(F, A, B)
    assert Mat(F, A).matvec(B[0]) == [row[0] for row in plain_matmul(F, A, [[v] for v in B[0]])]


SOLVE_FIELDS = [Field.prime(101), Field.extension(101, 2), Field.rationals(),
                Field.prime(4294967311)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), F=st.sampled_from(SOLVE_FIELDS))
def test_solve_rows_matches_plain_reference(data, F):
    """Solutions satisfy A X = B and the kernel is ``kernel_rows``; a right-hand
    side outside the column span of A, found by the plain rref of [A | B],
    raises Inconsistent.  Half of the right-hand sides are A x, in the span."""
    A = data.draw(matrices(field_entries(F)))
    nrows, ncols = len(A), len(A[0])
    column = st.lists(field_entries(F), min_size=nrows, max_size=nrows)
    point = st.lists(field_entries(F), min_size=ncols, max_size=ncols)
    B = [data.draw(column) if data.draw(st.booleans())
         else [row[0] for row in plain_matmul(F, A, [[v] for v in data.draw(point)])]
         for _ in range(data.draw(st.integers(1, 3)))]
    aug = [row + [col[i] for col in B] for i, row in enumerate(A)]
    consistent = all(c < ncols for c in plain_rref(F, aug)[1])
    if not consistent:
        with pytest.raises(Inconsistent):
            solve_rows(F, A, B)
        return
    sols, kernel = solve_rows(F, A, B)
    assert kernel == kernel_rows(F, A)
    assert [[row[0] for row in plain_matmul(F, A, [[v] for v in x])] for x in sols] == B


@pytest.mark.parametrize("F", [Field.prime(7), Field.extension(7, 2)], ids=repr)
def test_span_supported_reads_rank_and_block(F, rref_calls):
    """One reduction gives the rank and a basis of the span's vectors
    supported on `keep`: the basis is independent, lies in the span and is
    supported there, and its size is the rank minus the rank of the other
    columns."""
    rng = random.Random(16)
    keep = [6, 2, 5]
    rest = [j for j in range(8) if j not in keep]
    for _ in range(20):
        vecs = [[F.rand(rng) if j in keep or full else F.zero() for j in range(8)]
                for full in rng.choices([True, False], k=rng.randrange(1, 7))]
        rref_calls.clear()
        rank, block = span_supported(F, vecs, keep)
        assert len(rref_calls) == 1
        assert rank == rank_rows(F, vecs)
        assert len(block) == rank - rank_rows(F, [[v[j] for j in rest] for v in vecs])
        assert rank_rows(F, block) == len(block)
        assert in_row_span(F, vecs, block)
        assert all(F.is_zero(v[j]) for v in block for j in rest)
    assert span_supported(F, [], keep) == (0, [])


def test_solve_rows_reduces_once(monkeypatch):
    """[A | B] is row-reduced once; the kernel of A is read off the same
    reduction."""
    from genus2covers import linalg
    calls = []
    for name in ("fp_rref", "fq_rref"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda F, A, kernel=kernel: calls.append(1) or kernel(F, A))
    for F in (Field.prime(7), Field.extension(7, 2)):
        calls.clear()
        A = [[F.from_int(v) for v in row] for row in [[1, 2, 3], [2, 4, 6]]]
        sols, ker = solve_rows(F, A, [[F.from_int(1), F.from_int(2)]])
        assert len(ker) == 2 and len(calls) == 1


# forms_vanish_at sums 136 products (the monomials): the primes just below
# and just above 136 (p-1)^2 < 2^63
FORMS_VANISH_PRIMES = [260420627, 260420681]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), p=st.sampled_from(FORMS_VANISH_PRIMES),
       degrees=st.sampled_from([(1, 1), (1, 2), (2, 2)]))
def test_forms_vanish_at_matches_plain_evaluation(data, p, degrees):
    """Forms over F_{p^e} at points over F_{p^d}, (e, d) = degrees, against
    an evaluation in Python ints; the coordinates lie in F_{p^e}.  When
    planted, each form is made to vanish at the first point, so that both
    answers occur."""
    e, d = degrees
    Fc, K = (Field.prime(p) if n == 1 else Field.extension(p, n) for n in degrees)
    # every value as a coefficient tuple of length d
    elem = st.tuples(*[residues(p)] * e).map(lambda t: t + (0,) * (d - e))

    def mul(a, b):
        return plain_ext_mul(K, a, b) if d > 1 else (a[0] * b[0] % p,)

    def value(coeffs, vec):
        acc = (0,) * d
        for (i, j), c in coeffs.items():
            acc = tuple((x + y) % p for x, y in zip(acc, mul(c, mul(vec[i], vec[j]))))
        return acc

    extreme = data.draw(st.booleans())
    if extreme:
        # the largest sums: every coefficient p - 1 and every monomial x^2 = r,
        # the largest square below p
        r = next(r for r in range(p - 1, 0, -1) if pow(r, (p - 1) // 2, p) == 1)
        pts = [[(Field.prime(p).sqrt(r),) + (0,) * (d - 1)] * 16]
    else:
        pts = data.draw(st.lists(st.lists(elem, min_size=16, max_size=16),
                                 min_size=1, max_size=3))
    plant, a = data.draw(st.booleans()), data.draw(st.integers(0, 15))
    if plant:
        pts[0][a] = (1,) + (0,) * (d - 1)
    forms = []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = {m: (p - 1,) + (0,) * (d - 1) for m in MONOMIALS} if extreme else {}
        for _ in range(0 if extreme else data.draw(st.integers(1, 40))):
            i = data.draw(st.integers(0, 15))
            coeffs[(i, data.draw(st.integers(i, 15)))] = data.draw(elem)
        if plant:   # x_a = 1 at the first point: c_aa = -(the rest there)
            coeffs[(a, a)] = (0,) * d
            coeffs[(a, a)] = tuple(-x % p for x in value(coeffs, pts[0]))
        forms.append(coeffs)
    want = all(value(c, vec) == (0,) * d for c in forms for vec in pts)
    qforms = []
    for coeffs in forms:
        q = QuadricForm(Fc)
        for (i, j), c in coeffs.items():
            q.add_term(i, j, c[0] if e == 1 else c)
        qforms.append(q)
    raw = [[v[0] if d == 1 else v for v in vec] for vec in pts]
    assert forms_vanish_at(qforms, [(vec, K) for vec in raw]) == want
