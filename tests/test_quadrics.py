import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.curve import CurveData, even_slot, random_point
from genus2covers.errors import Genus2Error
from genus2covers.fields import Field
from genus2covers.linalg import (Mat, block_diag, ext_mul_arrays, from_np, mod_p,
                                 rank_rows, solve_rows, to_np)
from genus2covers.quadrics import (ALL_BB_PAIRS, EVEN_MONOMIALS, LISTED_BB_PAIRS,
                                   MONOMIALS, UNLISTED_BB_PAIRS, JacobianModel,
                                   QuadricForm, compose_forms, forms_vanish_at,
                                   independent_picks, interpolate_bb_quadrics,
                                   monomial_array, sampled_kernel, sampling_field,
                                   select_independent,
                                   vanishing_kernel_dimensions,
                                   veronese_quadrics)
from conftest import in_row_span


def test_counts_and_rank(ref_jacobian, ref_field):
    jm = ref_jacobian
    assert len(jm.veronese) == 20
    assert len(jm.odd) == 15 and len(jm.odd_b_shift) == 15
    assert len(jm.listed_bb) == 7 and len(jm.interpolated_bb) == 14
    assert len(jm.forms) == 72
    assert rank_rows(ref_field, [q.vector() for q in jm.forms]) == 72


def test_vanishing_at_200_points(ref_curve, ref_jacobian, rng):
    K = sampling_field(ref_curve.field)
    pts = [random_point(ref_curve, K, rng) for _ in range(200)]
    assert ref_jacobian.vanish_at(pts)


def is_even_only(q):
    return all(j < 10 for (_, j) in q.coeffs)


def test_even_only_dimension_21(ref_jacobian, ref_field):
    evens = [q for q in ref_jacobian.forms if is_even_only(q)]
    assert len(evens) == 21
    assert rank_rows(ref_field, [q.vector() for q in evens]) == 21


def test_kernel_certificates(ref_curve):
    assert vanishing_kernel_dimensions(ref_curve, seed=3) == (72, 21)


def test_kernel_dimensions_reduce_once(ref_curve, rref_calls):
    """Both dimensions come from one reduction, the even columns first."""
    assert vanishing_kernel_dimensions(ref_curve, seed=1) == (72, 21)
    assert len(rref_calls) == 1


def reference_interpolation(curve, seed, pairs):
    """The plain reference for the b_i b_j forms of ``sampled_kernel``: solve
    for each product as a k-quadratic at 88 sampled classes of their own
    stream, each equation over the sampling field split into its
    coefficients over the prime field.  ``solve_rows`` sets the free even
    columns to zero, as the kernel read does."""
    F = curve.field
    K = sampling_field(F)
    rng = random.Random(seed * 7919 + 17)
    rows, rhs = [], [[] for _ in pairs]
    for _ in range(88):
        v = random_point(curve, K, rng).coords().v
        values = [K.mul(v[MONOMIALS[n][0]], v[MONOMIALS[n][1]]) for n in EVEN_MONOMIALS]
        targets = [K.mul(v[9 + bi], v[9 + bj]) for bi, bj in pairs]
        for t in range(K.deg):
            coeff = lambda x: x if K.kind == "prime" else x[t]
            rows.append([coeff(x) for x in values])
            for col, x in zip(rhs, targets):
                col.append(coeff(x))
    sols, kernel = solve_rows(F, rows, rhs)
    assert len(kernel) == 21
    forms = []
    for (bi, bj), sol in zip(pairs, sols):
        q = QuadricForm(F)
        q.add_term(9 + bi, 9 + bj, 1)
        for n, c in zip(EVEN_MONOMIALS, sol):
            q.add_term(*MONOMIALS[n], F.neg(c))
        forms.append(q)
    return forms


# sampling over F_{13^4}, F_{101^2} and the prime field itself, int64 below
# 2^31 and object arrays of Python ints above
@pytest.mark.parametrize("p", [13, 101, 40000003, 4294967311])
def test_sampled_kernel_forms_match_reference_interpolation(p):
    F = Field.prime(p)
    curve = CurveData(F, [5, 1, 2, 1, 1, 3, 1])
    for seed in (0, 1, 7):
        forms, dims = sampled_kernel(curve, seed)
        assert dims == (72, 21)
        want = reference_interpolation(curve, seed, UNLISTED_BB_PAIRS)
        assert [q.coeffs for q in forms] == [q.coeffs for q in want]


def hand_shifted_odd_quadrics(curve):
    """The reference for ``JacobianModel.odd_b_shift``: the products
    k_j * Q_i written out with every b_i replaced by b_{i-1}, then
    f0 b0 = -(f1 b1 + ... + f6 b6) substituted by hand and every form
    scaled by f0."""
    F = curve.field
    f = curve.coeffs
    two = F.from_int(2)

    def bl(*pairs):
        """b-linear form as {index: coeff}, 1-based indices, 0 = b_0."""
        return {idx: c for idx, c in pairs}

    e1 = bl((0, F.mul(two, f[0])), (1, f[1]))
    e2 = bl((2, f[3]), (3, F.mul(two, f[4])), (4, F.mul(two, f[5])),
            (5, F.mul(two, f[6])))
    e3 = bl((3, f[5]), (4, F.mul(two, f[6])))
    b2, b3, b4 = bl((1, F.one())), bl((2, F.one())), bl((3, F.one()))

    def neg(d):
        return {i: F.neg(c) for i, c in d.items()}

    q_rows = [
        {2: e1, 3: neg(e2), 4: neg(b4)},
        {1: neg(e1), 3: neg(e3), 4: b3},
        {1: e2, 2: e3, 4: neg(b2)},
        {1: b4, 2: neg(b3), 3: b2},
    ]
    inv0 = F.inv(f[0])
    for row in q_rows:
        for blin in row.values():
            c0 = blin.pop(0, None)
            if c0 is not None:
                fac = F.neg(F.mul(c0, inv0))
                for i in range(1, 7):
                    blin[i] = F.add(blin.get(i, F.zero()), F.mul(fac, f[i]))
    cands = []
    for j in range(1, 5):
        for i in range(4):
            q = QuadricForm(F)
            for kidx, blin in q_rows[i].items():
                for bidx, c in blin.items():
                    q.add_term(even_slot(j, kidx), 9 + bidx, c)
            cands.append(q.scaled(f[0]))
    return select_independent(F, cands, 15)


@pytest.mark.parametrize("p, coeffs", [
    (3, [2, 2, 0, 2, 0, 1, 1]),
    (101, [5, 1, 2, 1, 1, 3, 1]),
    (2 ** 31 - 1, [35, 0, 0, 2 ** 31 - 13, 0, 0, 1]),
    (4294967311, [5, 1, 2, 1, 1, 3, 1]),
])
def test_shifted_odd_quadrics_match_hand_substitution(p, coeffs):
    """The second odd family, the first composed with the b-shift, equals
    the family substituted by hand."""
    jm = JacobianModel(CurveData(Field.prime(p), coeffs), seed=1)
    assert [q.coeffs for q in jm.odd_b_shift] == [
        q.coeffs for q in hand_shifted_odd_quadrics(jm.curve)]


def test_two_uple_holds_identically(ref_curve, ref_field, rng):
    """The even part of any evaluated point satisfies every rank condition."""
    forms = veronese_quadrics(ref_field)
    pts = [(random_point(ref_curve, ref_field, rng).coords().v, ref_field)
           for _ in range(20)]
    assert forms_vanish_at(forms, pts)


def test_interpolated_b1sq_is_classical_modulo_even_space(ref_curve, ref_jacobian):
    """Reconstructing b1^2 by interpolation differs from the hardcoded form
    by an element of the 21-dimensional even vanishing space."""
    F = ref_curve.field
    forms = interpolate_bb_quadrics(ref_curve, seed=9, targets=[(1, 1)])
    listed = ref_jacobian.listed_bb[0]
    diff = [F.sub(a, b) for a, b in zip(forms[0].vector(), listed.vector())]
    evens = [q.vector() for q in ref_jacobian.forms if is_even_only(q)]
    assert in_row_span(F, evens, [diff])


def test_bb_table_covers_all_products(ref_jacobian):
    table = ref_jacobian.bb_in_kk()
    assert sorted(table) == sorted(ALL_BB_PAIRS)
    assert sorted(LISTED_BB_PAIRS) == sorted(LISTED_BB_PAIRS)


def test_bb_value_matches_products(ref_curve, ref_jacobian, rng):
    F = ref_curve.field
    for _ in range(20):
        D = random_point(ref_curve, F, rng)
        c = D.coords()
        kv = [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]
        for (i, j) in ALL_BB_PAIRS:
            got = ref_jacobian.bb_value(i, j, kv, F)
            want = F.mul(c.odd[i - 1], c.odd[j - 1])
            assert F.eq(got, want), (i, j)


def test_quadric_json_roundtrip(ref_jacobian, ref_field):
    for q in ref_jacobian.forms[:5]:
        data = q.to_json()
        back = QuadricForm.from_json(ref_field, data)
        assert back.coeffs == q.coeffs


def test_compose_with_identity(ref_jacobian, ref_field):
    I = Mat.identity(ref_field, 16)
    q = ref_jacobian.forms[21]
    assert compose_forms([q], I)[0].coeffs == q.coeffs


def reference_compose(q, M):
    """v -> Q(M v) one form at a time: the symmetric matrix A of Q (halved
    off-diagonal coefficients), then M^T A M read back as a form."""
    F = q.field
    half = F.inv(F.from_int(2))
    A = Mat.zeros(F, 16, 16)
    for (i, j), c in q.coeffs.items():
        A.rows[i][j] = c if i == j else F.mul(c, half)
        A.rows[j][i] = A.rows[i][j]
    B = M.transpose() * A * M
    out = QuadricForm(F)
    for i, j in MONOMIALS:
        c = B.rows[i][j] if i == j else F.mul(F.from_int(2), B.rows[i][j])
        if not F.is_zero(c):
            out.coeffs[(i, j)] = c
    return out


def full_compose_forms(forms, M):
    """The reference for ``compose_forms`` at any 16x16 M: the whole
    136 x 136 matrix T of the composition, T[(i,j),(a,b)] = M_ia M_jb +
    M_ib M_ja for a < b and M_ia M_ja for a = b, and each composed form the
    sum of the rows of T at its nonzero coefficients, times them."""
    F = M.field
    d, I, J = F.deg, np.array([i for i, _ in MONOMIALS]), np.array([j for _, j in MONOMIALS])
    if F.kind == "ext":
        mul = lambda a, b: ext_mul_arrays(F, a, b)
    else:
        mul = lambda a, b: mod_p(F, a * b)
    Mn = to_np(F, M.rows, 2 * d - 1).reshape(16, 16, d)
    T = mod_p(F, mul(Mn[I[:, None], I], Mn[J[:, None], J])
              + mul(Mn[I[:, None], J], Mn[J[:, None], I]) * (I != J)[:, None])
    out = []
    for q in forms:
        c = to_np(F, q.vector(), 2 * d - 1).reshape(len(MONOMIALS), 1, d)
        m = np.nonzero(c.any(axis=(1, 2)))[0]
        row = mul(c[m], T[m]).sum(axis=0)
        out.append(QuadricForm.from_vector(F, from_np(F, (row if d > 1 else row[:, 0])[None])[0]))
    return out


def random_block_diag(F, rng):
    """A random 16x16 matrix, block-diagonal on the even and odd coordinates."""
    return block_diag(F, [Mat(F, [[F.rand(rng) for _ in range(n)] for _ in range(n)])
                          for n in (10, 6)])


# int64 arrays over F_101, F_{101^2}, F_{101^4}, F_{101^8} and F_p at p =
# 2^31 - 1; object arrays of Python ints over F_{p^2} at that p, past the
# (2d-1) (p-1)^2 < 2^63 bound, and over F_p at p > 2^32, and of Fractions
# over Q
_COMPOSE_FIELDS = [Field.prime(101), Field.extension(101, 2), Field.extension(101, 4),
                   Field.extension(101, 8), Field.prime(2147483647),
                   Field.extension(2147483647, 2), Field.prime(4294967311),
                   Field.rationals()]


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(_COMPOSE_FIELDS), seed=st.integers(0, 2 ** 32),
       nforms=st.integers(1, 4), nterms=st.integers(0, 12))
def test_compose_forms_matches_matrix_conjugation(field, seed, nforms, nterms):
    """The composition on the parity blocks of a block-diagonal M equals the
    full-T reference and M^T A M per form."""
    F = field
    rng = random.Random(seed)
    M = random_block_diag(F, rng)
    forms = []
    for _ in range(nforms):
        q = QuadricForm(F)
        for _ in range(nterms):
            q.add_term(*rng.choice(MONOMIALS), F.rand(rng))
        forms.append(q)
    got = [g.coeffs for g in compose_forms(forms, M)]
    assert got == [g.coeffs for g in full_compose_forms(forms, M)]
    assert got == [reference_compose(q, M).coeffs for q in forms]


def test_compose_forms_refuses_a_coupling_matrix(ref_field):
    """An M that mixes even and odd coordinates leaves the parity blocks."""
    M = Mat.identity(ref_field, 16)
    M.rows[3][12] = ref_field.one()
    with pytest.raises(Genus2Error, match="block-diagonal"):
        compose_forms([QuadricForm(ref_field, {(0, 0): 1})], M)


def monomial_values(field, vec):
    """The reference for ``monomial_array``: the 136 products one class at a
    time in field arithmetic."""
    return [field.mul(vec[i], vec[j]) for (i, j) in MONOMIALS]


# int64 over F_101, F_{101^2} and F_{101^8}; object arrays of Python ints
# over F_p and F_{p^2} at p > 2^32
@pytest.mark.parametrize("K", [Field.prime(101), Field.extension(101, 2),
                               Field.extension(101, 8), Field.prime(4294967311),
                               Field.extension(4294967311, 2)])
def test_monomial_array_matches_monomial_values(K):
    rng = random.Random(K.p * K.deg)
    vecs = [[K.rand(rng) for _ in range(16)] for _ in range(7)]
    for s in (2, 136):
        got = monomial_array(K, vecs, s)
        assert got.dtype == to_np(K, [0], max(s, 2 * K.deg - 1)).dtype
        assert from_np(K, got) == [monomial_values(K, v) for v in vecs]


def test_second_curve_full_build():
    """Independence from the reference curve: a fresh random curve."""
    F = Field.prime(211)
    rng = random.Random(8)
    from genus2covers.curve import CurveData
    while True:
        coeffs = [F.rand(rng) for _ in range(7)]
        if F.is_zero(coeffs[0]) or F.is_zero(coeffs[6]):
            continue
        try:
            cur = CurveData(F, coeffs)
            break
        except Exception:
            continue
    jm = JacobianModel(cur, seed=4)
    K = sampling_field(F)
    pts = [random_point(cur, K, rng) for _ in range(60)]
    assert jm.vanish_at(pts)
    assert rank_rows(F, [q.vector() for q in jm.forms]) == 72


def greedy_picks(field, vectors):
    """The reference for ``independent_picks``: keep each vector, in order,
    that raises the rank of the ones kept so far."""
    kept, rows = [], []
    for idx, vec in enumerate(vectors):
        if rank_rows(field, rows + [vec]) == len(rows) + 1:
            rows.append(vec)
            kept.append(idx)
    return kept


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       field=st.sampled_from([Field.prime(7), Field.prime(101), Field.extension(7, 2),
                              Field.extension(101, 3), Field.rationals()]),
       rng=st.randoms(use_true_random=False))
def test_independent_picks_match_greedy_loop(data, field, rng):
    """One rref of the vectors as columns picks what the greedy loop picks;
    zero vectors and combinations of earlier vectors are planted."""
    F, dim = field, data.draw(st.integers(1, 10))
    vectors = []
    for _ in range(data.draw(st.integers(0, 12))):
        kind = rng.random()
        if vectors and kind < 0.35:
            vec = [F.zero()] * dim
            for other in rng.sample(vectors, rng.randint(1, len(vectors))):
                c = F.rand(rng)
                vec = [F.add(v, F.mul(c, w)) for v, w in zip(vec, other)]
        elif kind < 0.45:
            vec = [F.zero()] * dim
        else:
            vec = [F.rand(rng) if rng.random() < 0.7 else F.zero() for _ in range(dim)]
        vectors.append(vec)
    want = greedy_picks(F, vectors)
    assert independent_picks(F, vectors) == want
    # select_independent keeps the first `target` picks, or raises
    forms = [QuadricForm.from_vector(F, vec + [F.zero()] * (len(MONOMIALS) - dim))
             for vec in vectors]
    target = data.draw(st.integers(1, 6))
    if len(want) >= target:
        assert select_independent(F, forms, target) == [forms[i] for i in want[:target]]
    else:
        with pytest.raises(Genus2Error, match=f"only {len(want)} independent"):
            select_independent(F, forms, target)
