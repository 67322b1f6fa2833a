import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.curve import EVEN_PAIRS, random_point
from genus2covers.errors import BadGauge, NonUnitDelta
from genus2covers.fields import Field
from genus2covers.kummer import KummerModels, MultiPoly, veronese_quartic
from genus2covers.linalg import Mat, rank_rows
from genus2covers.poly import Poly, _lift
from conftest import basis_change, rand_elem


@pytest.fixture(scope="module")
def km(ref_algebra):
    return KummerModels(ref_algebra)


def _kvec(D):
    c = D.coords()
    return [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]


def test_kummer_quartic(km, ref_curve, rng):
    q = km.kummer_quartic()
    assert max(sum(e) for e in q.terms) == 4
    assert max(e[3] for e in q.terms) == 2  # quadratic in the fourth coordinate
    F = ref_curve.field
    for _ in range(100):
        D = random_point(ref_curve, F, rng)
        assert F.is_zero(q.evaluate(_kvec(D), F))
        assert F.is_zero(q.evaluate(_kvec(D.negate()), F))


def test_y_quadrics(km, ref_curve, ref_algebra, rng):
    F = ref_curve.field
    mats = km.y_matrices()
    assert all(M.is_symmetric() for M in mats)
    forms = km.y_quadrics()
    vecs = [q.vector() for q in forms]
    assert rank_rows(F, vecs) == 3
    for _ in range(100):
        D = random_point(ref_curve, F, rng)
        vec = D.coords().v
        for q in forms:
            assert F.is_zero(q.evaluate(vec))


def test_y_matches_diagonal_form(km, ref_algebra):
    """Conjugating the three matrices by the Vandermonde gives the diagonal
    weights w^j lambda_w (delta = 1), up to the f6 normalization."""
    K = ref_algebra.splitting
    S = ref_algebra.S
    f6 = _lift(ref_algebra.field, K, ref_algebra.curve.coeffs[6])
    for j, M in enumerate(km.y_matrices()):
        MK = Mat(K, [[_lift(ref_algebra.field, K, v) for v in row] for row in M.rows])
        conj = S.transpose() * MK * S
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert K.is_zero(conj.rows[a][b])
                else:
                    w = ref_algebra.roots[a]
                    expect = K.mul(f6, K.mul(K.pw(w, j), ref_algebra.lambdas[a]))
                    assert conj.rows[a][a] == expect


def test_v_delta_special_values(km, ref_algebra):
    R, T = ref_algebra.R, ref_algebra.T
    v1 = km.v_delta(ref_algebra.one())
    assert v1.matrices[0].rows == T.rows
    assert v1.matrices[1].rows == (R * T).rows
    assert v1.matrices[2].rows == (R * R * T).rows
    vx = km.v_delta(ref_algebra.x())
    assert vx.matrices[0].rows == (R * T).rows
    assert vx.matrices[1].rows == (R * R * T).rows
    assert vx.matrices[2].rows == (R * R * R * T).rows


def test_v_delta_rejects_nonunit(km, ref_algebra):
    """Zero divisors of L (irreducible factors of f) are rejected."""
    K = ref_algebra.splitting
    # (X - w)(X - sigma(w)) ... over a full Frobenius orbit has ground
    # coefficients and kills the corresponding evaluations
    i = 0
    orbit = [i]
    cur = ref_algebra.frob_perm[i]
    while cur != i:
        orbit.append(cur)
        cur = ref_algebra.frob_perm[cur]
    from genus2covers.poly import Poly
    g = Poly(K, [K.one()])
    for t in orbit:
        g = g * Poly(K, [K.neg(ref_algebra.roots[t]), K.one()])
    F = ref_algebra.field
    coeffs = []
    for t in range(6):
        c = g.coeff(t)
        assert K.eq(K.frobenius(c), c)
        coeffs.append(c[0] if K.kind == "ext" else c)
    with pytest.raises(NonUnitDelta):
        km.v_delta(ref_algebra.elem(coeffs))


def test_v_delta_diagonalization(km, ref_algebra, rng):
    K = ref_algebra.splitting
    F = ref_algebra.field
    delta = rand_elem(ref_algebra, rng)
    while F.is_zero(delta.norm()):
        delta = rand_elem(ref_algebra, rng)
    vd = km.v_delta(delta)
    S = ref_algebra.S
    f6 = _lift(F, K, ref_algebra.curve.coeffs[6])
    for j, M in enumerate(vd.matrices):
        MK = Mat(K, [[_lift(F, K, v) for v in row] for row in M.rows])
        conj = S.transpose() * MK * S
        for a in range(6):
            w = ref_algebra.roots[a]
            expect = K.mul(f6, K.mul(K.pw(w, j),
                                     K.mul(ref_algebra.lambdas[a], delta.phi(a))))
            assert conj.rows[a][a] == expect


def test_multiplication_equivariance(km, ref_algebra, rng):
    """Points of V_{delta xi^2} map to points of V_delta under z -> xi z,
    and the matrices satisfy the corresponding congruence."""
    F = ref_algebra.field
    K = ref_algebra.splitting
    T, T_inv = ref_algebra.T, ref_algebra.T.inv()
    for _ in range(10):
        eta = rand_elem(ref_algebra, rng)
        xi = rand_elem(ref_algebra, rng)
        if F.is_zero(eta.norm()) or F.is_zero(xi.norm()):
            continue
        delta = eta * eta
        vd = km.v_delta(delta)
        vdx = km.v_delta(delta * xi * xi)
        # matrix congruence: M_j(delta xi^2) = W^t M_j(delta) W with
        # W = T^{-1} xi(R) T (multiplication by xi on g-coordinates)
        xiR = Mat.zeros(F, 6, 6)
        for i, c in enumerate(xi.c):
            if not F.is_zero(c):
                xiR = xiR + ref_algebra.R_pows[i].scale(c)
        W = T_inv * xiR * T
        for Mj, Mjx in zip(vd.matrices, vdx.matrices):
            assert (W.transpose() * Mj * W).rows == Mjx.rows
        # pointwise: g-coordinates of eta^{-1} xi^{-1} rho_J(D) solve the
        # twisted system, and multiplying by xi moves them to V_delta
        D = random_point(ref_algebra.curve, K, rng)
        z = km.rho_J(D)
        etaK = ref_algebra.elem([_lift(F, K, v) for v in eta.c], K)
        xiK = ref_algebra.elem([_lift(F, K, v) for v in xi.c], K)
        zz = z * (etaK * xiK).inverse()
        gz = basis_change(ref_algebra, zz.c, "power", "g", field=K)
        assert vdx.is_solution(gz, K)
        moved = zz * xiK
        gm = basis_change(ref_algebra, moved.c, "power", "g", field=K)
        assert vd.is_solution(gm, K)


def test_c_odd_coordinates_are_scaled_dual_evaluations(km, ref_algebra,
                                                       ref_curve, rng):
    """c_w of a class equals lambda_w^{-1} rho_J(D)(w) / f6: the odd
    diagonal coordinates are the scaled dual-basis evaluations of the
    section value, tying the two constructions of the P^5 model together."""
    from genus2covers.torsion import TorsionActionCtx
    alg = ref_algebra
    K = alg.splitting
    ctx = TorsionActionCtx(alg)
    f6 = _lift(alg.field, K, alg.curve.coeffs[6])
    for _ in range(10):
        D = random_point(ref_curve, ref_curve.field, rng)
        z = km.rho_J(D)
        dc = ctx.c_coords(D.coords())
        for i in range(6):
            expect = K.div(K.mul(K.inv(alg.lambdas[i]), z.phi(i)), f6)
            assert K.eq(dc.odd[i], expect)


def test_rho_j_and_cassels_section(km, ref_curve, ref_field, rng):
    F = ref_field
    v1 = km.v_delta(km.algebra.one())
    for _ in range(50):
        D = random_point(ref_curve, F, rng)
        z = km.rho_J(D)
        b = D.coords().odd
        assert v1.is_solution(b, F)
        xi = km.cassels_section(D)
        y1y2 = F.mul(D.p1[1], D.p2[1])
        assert (xi * y1y2).c == z.c
        zneg = km.rho_J(D.negate())
        assert zneg.c == [F.neg(v) for v in z.c]


def closed_form_cubic(curve, D):
    """The reference for ``interpolating_cubic``: the Hermite basis written
    out, g_cd = (X-c)^2 (X-d) / (c-d)^2 and h_cd = (X-c)^2 (2X + c - 3d) /
    (c-d)^3, weighted by the slopes f'(x) / (2y) and the values y."""
    F = D.field
    (x1, y1), (x2, y2) = D.p1, D.p2
    df = curve.f.map_field(F).derivative()
    X = Poly(F, [F.zero(), F.one()])

    def g_cd(c, d):
        num = (X - Poly(F, [c])) * (X - Poly(F, [c])) * (X - Poly(F, [d]))
        return num * F.inv(F.mul(F.sub(c, d), F.sub(c, d)))

    def h_cd(c, d):
        num = (X - Poly(F, [c])) * (X - Poly(F, [c])) \
            * Poly(F, [F.sub(c, F.mul(F.from_int(3), d)), F.from_int(2)])
        dd = F.sub(c, d)
        return num * F.inv(F.mul(F.mul(dd, dd), dd))

    slope = lambda x, y: F.div(df.evaluate(x), F.mul(F.from_int(2), y))
    return (g_cd(x1, x2) * slope(x2, y2) + g_cd(x2, x1) * slope(x1, y1)
            + h_cd(x1, x2) * y2 + h_cd(x2, x1) * y1)


@pytest.mark.parametrize("K", [Field.prime(101), Field.extension(101, 2)], ids=["F101", "F101^2"])
def test_interpolating_cubic_matches_closed_form(km, ref_curve, K, rng):
    for _ in range(40):
        D = random_point(ref_curve, K, rng)
        M = km.interpolating_cubic(D)
        assert M == closed_form_cubic(ref_curve, D)
        for x, y in (D.p1, D.p2):
            assert K.eq(M.evaluate(x), y)


def test_map_y_to_x(km, ref_curve, ref_field, rng):
    F = ref_field
    for _ in range(50):
        D = random_point(ref_curve, F, rng)
        c = D.coords()
        out = km.map_Y_to_X(c.odd, F)
        kv = _kvec(D)
        for i in range(4):
            for j in range(i + 1, 4):
                assert F.is_zero(F.sub(F.mul(out[i], kv[j]), F.mul(out[j], kv[i])))
        # fourth coordinate is the weighted quadratic in b_1..b_4
        b = c.odd
        f = ref_curve.coeffs
        acc = F.zero()
        for cf, (u, v) in zip(f, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]):
            acc = F.add(acc, F.mul(cf, F.mul(b[u], b[v])))
        assert out[3] == acc


def test_map_x_to_y_roundtrip(km, ref_curve, ref_field, ref_jacobian, rng):
    F = ref_field
    done = 0
    while done < 50:
        D = random_point(ref_curve, F, rng)
        c = D.coords()
        kv = _kvec(D)
        r = next(i for i in range(1, 7) if not F.is_zero(c.odd[i - 1]))
        bb = km.map_X_to_Y(ref_jacobian, kv, r, F)
        for i in range(6):
            for j in range(i + 1, 6):
                assert F.is_zero(F.sub(F.mul(bb[i], c.odd[j]), F.mul(bb[j], c.odd[i])))
        # image satisfies the P^5 quadrics
        for M in km.y_matrices():
            acc = F.zero()
            for i in range(6):
                for j in range(6):
                    acc = F.add(acc, F.mul(M.rows[i][j], F.mul(bb[i], bb[j])))
            assert F.is_zero(acc)
        done += 1


def test_map_x_to_y_bad_gauge_at_nodes(km, ref_algebra, ref_jacobian):
    """At the image of a two-torsion point every gauge vanishes."""
    K = ref_algebra.splitting
    w1, w2 = ref_algebra.roots[0], ref_algebra.roots[1]
    from genus2covers.curve import k4_numerator
    f = [_lift(ref_algebra.field, K, c) for c in ref_algebra.curve.coeffs]
    k2, k3 = K.add(w1, w2), K.mul(w1, w2)
    dx = K.sub(w1, w2)
    k4 = K.div(k4_numerator(K, f, k2, k3), K.mul(dx, dx))
    kv = [K.one(), k2, k3, k4]
    for r in range(1, 7):
        with pytest.raises(BadGauge):
            km.map_X_to_Y(ref_jacobian, kv, r, K)


def test_weddle(km, ref_curve, ref_field, rng):
    q = km.weddle_quartic()
    assert max(sum(e) for e in q.terms) == 4
    assert q.nvars == 4  # no b5, b6
    F = ref_field
    for _ in range(100):
        D = random_point(ref_curve, F, rng)
        assert F.is_zero(q.evaluate(D.coords().odd[:4], F))


def plain_compose_linear(q, M):
    """Reference substitution v_i -> sum_j M[i][j] v_j over M's field (q's
    coefficients lifted there): every monomial expanded by one dict product
    per linear factor."""
    F, n = M.field, q.nvars
    unit = lambda j: tuple(int(t == j) for t in range(n))
    lin = [{unit(j): M.rows[i][j] for j in range(n)} for i in range(n)]

    def times(p1, p2):
        prod = {}
        for e1, c1 in p1.items():
            for e2, c2 in p2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = F.add(prod.get(e, F.zero()), F.mul(c1, c2))
        return prod

    out = MultiPoly(F, n)
    for e, c in q.terms.items():
        term = {(0,) * n: _lift(q.field, F, c)}
        for var, power in enumerate(e):
            for _ in range(power):
                term = times(term, lin[var])
        for e2, c2 in term.items():
            out._add(e2, c2)
    return out


def scaled_terms(q, s, K):
    """The terms of s q over K."""
    out = MultiPoly(K, q.nvars)
    for e, c in q.terms.items():
        out._add(e, K.mul(_lift(q.field, K, c), s))
    return out.terms


def sym2(M):
    """The symmetric square of a 4x4 M on the even coordinates, so that
    v(M k) = sym2(M) v(k) for v(k) = (k_i k_j) in slot order."""
    F, m = M.field, M.rows
    rows = []
    for i, j in EVEN_PAIRS:
        row = []
        for u, v in EVEN_PAIRS:
            c = F.mul(m[i - 1][u - 1], m[j - 1][v - 1])
            if u != v:
                c = F.add(c, F.mul(m[i - 1][v - 1], m[j - 1][u - 1]))
            row.append(c)
        rows.append(row)
    return Mat(F, rows)


def _random_mat(field, rng, n):
    return Mat(field, [[field.rand(rng) if rng.random() < 0.7 else field.zero()
                        for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([Field.prime(7), Field.prime(101), Field.extension(5, 2)]),
       seed=st.integers(0, 2 ** 32))
def test_veronese_quartic_of_congruence_matches_substitution(field, seed):
    """veronese_quartic(S^T A S) = veronese_quartic(A) composed with M, for
    S = Sym^2(M); and veronese_quartic(A) takes the value v(k)^T A v(k)."""
    rng = random.Random(seed)
    M, A = _random_mat(field, rng, 4), _random_mat(field, rng, 10)
    S = sym2(M)
    q = veronese_quartic(A)
    assert veronese_quartic(S.transpose() * A * S).terms == plain_compose_linear(q, M).terms
    k = [field.rand(rng) for _ in range(4)]
    v = [field.mul(k[i - 1], k[j - 1]) for i, j in EVEN_PAIRS]
    value = field.zero()
    for a in range(10):
        for b in range(10):
            value = field.add(value, field.mul(A.rows[a][b], field.mul(v[a], v[b])))
    assert field.eq(q.evaluate(k), value)


def test_veronese_quartic_sees_a_perturbed_congruence():
    F = Field.prime(101)
    rng = random.Random(5)
    M, A = _random_mat(F, rng, 4), _random_mat(F, rng, 10)
    rows = [list(row) for row in sym2(M).rows]
    rows[0][0] = F.add(rows[0][0], F.one())
    S = Mat(F, rows)
    assert veronese_quartic(S.transpose() * A * S).terms != \
        plain_compose_linear(veronese_quartic(A), M).terms
