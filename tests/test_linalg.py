import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.errors import Inconsistent
from genus2covers.fields import Field
from genus2covers.linalg import (Mat, block_diag, fp_rref, fq_rref, from_np,
                                 in_row_span, kernel_rows, rank_rows, rref_rows,
                                 solve_linear, solve_rows)
from genus2covers.poly import Poly


def _rand_mat(F, rng, r, c):
    return Mat(F, [[F.rand(rng) for _ in range(c)] for _ in range(r)])


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


def test_solve_random_full_rank_and_remultiply():
    rng = random.Random(11)
    for F in (Field.prime(97), Field.extension(5, 2)):
        for _ in range(5):
            A = _rand_mat(F, rng, 20, 10)
            while A.rank() != 10:
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
            assert cp.coeff(3) == F.neg(A.trace())
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
# differential tests: the numpy rref kernels against a plain reference

# primes just below and just above 2^25, and 2^31 - 1, the largest prime
# fp_rref accepts
BOUND_PRIMES = [33554393, 33554467, 2147483647]


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
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    residue = st.one_of(st.just(0), st.integers(1, 3), st.integers(p - 3, p - 1),
                        st.integers(0, p - 1))
    entry = residue if d is None else st.tuples(*[residue] * d)
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
    R, piv = fp_rref(np.array(rows, dtype=np.int64), p)
    assert (from_np(F, R), piv) == plain_rref(F, rows)
    assert rref_rows(F, rows) == plain_rref(F, rows)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), case=st.sampled_from([(101, 3), (33554467, 2)]))
def test_fq_rref_matches_plain_rref(data, case):
    p, d = case
    F = Field.extension(p, d)
    rows = data.draw(residue_matrices(p, d))
    R, piv = fq_rref(F, np.array(rows, dtype=np.int64))
    assert (from_np(F, R), piv) == plain_rref(F, rows)
