import pytest

from genus2covers.curve import EVEN_PAIRS, CurveData, random_point
from genus2covers.errors import IdentityPoint, NotDiagonal, NotGeneric, OddMask
from genus2covers.etale import (EtaleAlgebra, TwoTorsionPoint, all_two_torsion, alpha_sign,
                                even_masks, mask_of, weil_pairing)
from genus2covers.fields import Field, FieldElem
from genus2covers.kummer import KummerModels
from genus2covers.linalg import Mat, from_np, rank_rows
from genus2covers.poly import Poly, _lift
from genus2covers.quadrics import compose_forms, forms_vanish_at
from genus2covers.torsion import TorsionActionCtx
from conftest import add_two_torsion, in_row_span
from test_kummer import plain_compose_linear, scaled_terms


def kappa_values(ctx, mask3: int):
    """The paper's ten kappa_{ij} values for a 3-subset, slot order."""
    K = ctx.K
    el = lambda v: FieldElem(K, v)
    f6 = el(_lift(ctx.field, K, ctx.algebra.curve.coeffs[6]))
    s1, s2, s3 = (el(v) for v in ctx._sigma_tau[mask3])
    t1, t2, t3 = (el(v) for v in ctx._sigma_tau[mask3 ^ 0b111111])
    kap = {
        (1, 1): s1,
        (1, 2): s2,
        (1, 3): s3,
        (1, 4): f6*(s1*t1*t3 + 2*s2*t3 + s3*t1**2),
        (2, 2): s2*t1 + s3,
        (2, 3): s3*t1,
        (2, 4): f6*(s1*t2*t3 + s2*t1*t3 + s3**2),
        (3, 3): s3*t2,
        (3, 4): f6*(s2**2*t3 + s2*t2*t3 + 2*s3*t1*t3),
        (4, 4): f6**2*(s1**2*s2*t2*t3 + 4*s1**2*s3*t1*t3 + s1*s2*s3*t1*t2
                       + s1*s2*t3**2 + s1*s3**2*t2 + s1*s3*t1*t2**2
                       + 3*s1*s3*t2*t3 + s2**2*t1**2*t3 + 4*s2*s3*t2**2
                       + 4*s3**2*t3 + s3*t1*t2*t3),
    }
    return [kap[p].v for p in EVEN_PAIRS]


def kappa_inverse(ctx) -> Mat:
    """G^-1 from the paper's kappa table: the column of a partition rep I is
    kappa(I) - kappa(complement of I)."""
    K = ctx.K
    cols = [[K.sub(a, b) for a, b in zip(kappa_values(ctx, rep),
                                         kappa_values(ctx, rep ^ 0b111111))]
            for rep in ctx.reps]
    return Mat(K, [list(r) for r in zip(*cols)])


def mu2_elem(alg, m: int):
    """The square root of unity in L tensored up: phi_w = -1 iff w in m."""
    K = alg.splitting
    coeffs = [K.zero()] * 6
    for i, w in enumerate(alg.roots):
        sign = K.from_int(-1 if m >> i & 1 else 1)
        lag = lagrange_elem(alg, i)
        coeffs = [K.add(c, K.mul(sign, l)) for c, l in zip(coeffs, lag.c)]
    return alg.elem(coeffs, K)


def lagrange_elem(alg, i: int):
    """The idempotent P_w with P_w(w') = [w == w']."""
    K = alg.splitting
    num = Poly(K, [K.one()])
    for j, t in enumerate(alg.roots):
        if j != i:
            num = num * Poly(K, [K.neg(t), K.one()])
    num = num * K.inv(alg.lambdas[i])
    return alg.elem([num.coeff(t) for t in range(6)], K)


def c_even_single(ctx, coords, mask3: int):
    """c_I for one 3-subset straight from its defining relation."""
    K = ctx.K
    vec = [_lift(coords.field, K, v) for v in coords.v]
    inv = K.inv(ctx._normalizer(mask3))
    acc = K.zero()
    for val, lam in zip(vec[:10], ctx._lambda_row(mask3)):
        acc = K.add(acc, K.mul(val, lam))
    return K.mul(inv, acc)


def test_mp_identities(ref_torsion):
    K = ref_torsion.K
    for P in all_two_torsion():
        M = ref_torsion.mp_matrix(P)
        res = ref_torsion.res_gh(P)
        sq = M * M
        for i in range(4):
            for j in range(4):
                assert K.eq(sq.rows[i][j], res if i == j else K.zero())
        assert K.eq(M.det(), K.mul(res, res))
    with pytest.raises(IdentityPoint):
        ref_torsion.mp_matrix(TwoTorsionPoint.identity())


def test_mp_action_via_addition_oracle(ref_torsion, ref_curve, rng):
    alg = ref_torsion.algebra
    K = alg.splitting
    done = 0
    while done < 10:
        D = random_point(ref_curve, K, rng)
        P = all_two_torsion()[done % 15]
        i, j = P.root_indices()
        try:
            DP = add_two_torsion(D, (alg.roots[i], alg.roots[j]))
        except NotGeneric:
            continue
        c0, c1 = D.coords(), DP.coords()
        kv0 = [c0.v[0], c0.kval(1, 2), c0.kval(1, 3), c0.kval(1, 4)]
        kv1 = [c1.v[0], c1.kval(1, 2), c1.kval(1, 3), c1.kval(1, 4)]
        Mk = ref_torsion.mp_matrix(P).matvec(kv0)
        for a in range(4):
            for b in range(a + 1, 4):
                assert K.is_zero(K.sub(K.mul(Mk[a], kv1[b]), K.mul(Mk[b], kv1[a])))
        done += 1


def test_kummer_quartic_invariance(ref_torsion, ref_algebra):
    K = ref_torsion.K
    km = KummerModels(ref_algebra)
    quartic = km.kummer_quartic()
    for P in all_two_torsion():
        M = ref_torsion.mp_matrix(P)
        res = ref_torsion.res_gh(P)
        assert plain_compose_linear(quartic, M).terms == scaled_terms(quartic, K.mul(res, res), K)


def test_t10_charpoly_and_det(ref_torsion):
    K = ref_torsion.K
    expect = Poly(K, [1])
    for _ in range(6):
        expect = expect * Poly(K, [K.from_int(-1), K.one()])
    for _ in range(4):
        expect = expect * Poly(K, [K.one(), K.one()])
    for P in all_two_torsion():
        T = ref_torsion.t10_matrix(P)
        assert T.charpoly() == expect
        assert K.eq(T.det(), K.one())


def test_t10_group_law_all_pairs(ref_torsion):
    K = ref_torsion.K
    pts = all_two_torsion()
    for P in pts:
        TP = ref_torsion.t10_matrix(P)
        for Q in pts:
            e = weil_pairing(P, Q)
            lhs = TP * ref_torsion.t10_matrix(Q)
            rhs = ref_torsion.t10_matrix(P + Q).scale(K.from_int(e))
            assert lhs.rows == rhs.rows


def test_commutators_encode_weil_pairing(ref_torsion):
    """The 4x4 matrices commute exactly up to the pairing sign; on the ten
    even coordinates the normalized squares commute outright (forced by the
    group law, whose cocycle is the symmetric-valued pairing)."""
    K = ref_torsion.K
    pts = all_two_torsion()
    for P in pts[:6]:
        MP = ref_torsion.mp_matrix(P)
        TP = ref_torsion.t10_matrix(P)
        for Q in pts[6:12]:
            MQ = ref_torsion.mp_matrix(Q)
            comm4 = MP * MQ * MP.inv() * MQ.inv()
            e = K.from_int(weil_pairing(P, Q))
            assert comm4.rows == Mat.identity(K, 4).scale(e).rows
            TQ = ref_torsion.t10_matrix(Q)
            comm10 = TP * TQ * TP.inv() * TQ.inv()
            assert comm10.rows == Mat.identity(K, 10).rows


def test_rho6_eigenstructure(ref_torsion):
    K = ref_torsion.K
    x = Poly(K, [K.zero(), K.one()])
    for m in even_masks(nontrivial_only=True):
        if m == 0b111111:
            continue
        R6 = ref_torsion.rho6_matrix(m)
        a = K.from_int(alpha_sign(m))
        expect = Poly(K, [1])
        for _ in range(4):
            expect = expect * (x + Poly(K, [a]))
        for _ in range(2):
            expect = expect * (x - Poly(K, [a]))
        assert R6.charpoly() == expect
    full = ref_torsion.rho6_matrix(0b111111)
    assert full.rows == Mat.identity(K, 6).scale(K.from_int(-1)).rows
    with pytest.raises(OddMask):
        ref_torsion.rho6_matrix(0b1)


def test_rho6_action_via_section_multiplicativity(ref_torsion, ref_curve, rng):
    """rho_J(D + P) is projectively the signed multiple of rho_J(D)."""
    alg = ref_torsion.algebra
    K = alg.splitting
    km = KummerModels(alg)
    done = 0
    while done < 10:
        D = random_point(ref_curve, K, rng)
        P = all_two_torsion()[done % 15]
        i, j = P.root_indices()
        try:
            DP = add_two_torsion(D, (alg.roots[i], alg.roots[j]))
        except NotGeneric:
            continue
        sign_el = mu2_elem(alg, P.mask)
        lhs = km.rho_J(DP)
        rhs = km.rho_J(D) * sign_el
        # projective equality in L
        ratios = [(a, b) for a, b in zip(lhs.c, rhs.c)]
        nz = next((t for t in ratios if not K.is_zero(t[1])), None)
        scale = K.div(nz[0], nz[1])
        for a, b in ratios:
            assert K.eq(a, K.mul(scale, b))
        done += 1


def test_rho_is_representation(ref_torsion, rng):
    masks = even_masks()
    for _ in range(50):
        m1, m2 = rng.choice(masks), rng.choice(masks)
        lhs = ref_torsion.rho_matrix(m1) * ref_torsion.rho_matrix(m2)
        assert lhs.rows == ref_torsion.rho_matrix(m1 ^ m2).rows


def test_rho_scalars_at_center(ref_torsion):
    K = ref_torsion.K
    assert ref_torsion.rho_matrix(0).rows == Mat.identity(K, 16).rows
    # the full mask acts by -1 on both blocks
    full = ref_torsion.rho_matrix(0b111111)
    assert full.rows == Mat.identity(K, 16).scale(K.from_int(-1)).rows


def test_quadric_space_invariance(ref_torsion, ref_jacobian):
    """Composing any generator with a mask action stays inside the span."""
    K = ref_torsion.K
    F = ref_jacobian.field
    base = [[_lift(F, K, v) for v in q.vector()] for q in ref_jacobian.forms]
    for m in (mask_of([0, 1]), mask_of([0, 2]), mask_of([0, 3]),
              mask_of([0, 4]), mask_of([0, 5])):
        R = ref_torsion.rho_matrix(m)
        composed = from_np(K, compose_forms(
            [q.map_field(K) for q in ref_jacobian.forms[:12]], R))
        assert in_row_span(K, base, composed)


def test_ground_field_entries_for_stable_masks(ref_torsion):
    for m in even_masks():
        if ref_torsion.mask_is_stable(m):
            assert ref_torsion.rho6_matrix(m).frobenius_fixed()
            assert ref_torsion.rho10_matrix(m).frobenius_fixed()
            assert ref_torsion.definition_field_tag(ref_torsion.rho6_matrix(m)) == "ground"


def test_c_coords_roundtrip_and_kappa(ref_torsion, ref_curve, rng):
    K = ref_torsion.K
    F = ref_curve.field
    for _ in range(50):
        D = random_point(ref_curve, F, rng)
        c = D.coords()
        dc = ref_torsion.c_coords(c)
        back = ref_torsion.coords_from_c(dc)
        assert back == [_lift(F, K, v) for v in c.v]
    # kappa_11 = sigma_1: first row of the inverse change is the root sums
    for r, rep in enumerate(ref_torsion.reps):
        s1 = ref_torsion._sigma_tau[rep][0]
        t1 = ref_torsion._sigma_tau[rep ^ 0b111111][0]
        assert K.eq(ref_torsion.G_inv_kappa.rows[0][r], K.sub(s1, t1))


def test_c_sign_convention(ref_torsion, ref_curve, rng):
    K = ref_torsion.K
    D = random_point(ref_curve, ref_curve.field, rng)
    c = D.coords()
    for rep in ref_torsion.reps[:4]:
        a = c_even_single(ref_torsion, c, rep)
        b = c_even_single(ref_torsion, c, rep ^ 0b111111)
        assert K.eq(a, K.neg(b))


def test_c_coords_of_negated_class(ref_torsion, ref_curve, rng):
    """Negating the class negates exactly the six odd c-coordinates."""
    K = ref_torsion.K
    for _ in range(10):
        D = random_point(ref_curve, ref_curve.field, rng)
        dc = ref_torsion.c_coords(D.coords())
        dn = ref_torsion.c_coords(D.negate().coords())
        assert dn.even == dc.even
        assert dn.odd == [K.neg(v) for v in dc.odd]


def test_verify_diagonal_all_masks(ref_torsion):
    K = ref_torsion.K
    diag = ref_torsion.verify_diagonal(0)
    assert all(K.eq(v, K.one()) for v in diag)
    for m in even_masks(nontrivial_only=True):
        ref_torsion.verify_diagonal(m)
    # a size-2 mask negates exactly the two odd slots it contains
    m = mask_of([0, 1])
    diag = ref_torsion.verify_diagonal(m)
    for i in range(6):
        want = K.from_int(-1 if i in (0, 1) else 1)
        assert K.eq(diag[10 + i], want)


def test_character_census(ref_torsion):
    """The sixteen diagonal characters are exactly the odd-partition ones."""
    K = ref_torsion.K
    masks = even_masks(nontrivial_only=True)
    observed = []
    for slot in range(16):
        observed.append([])
    for m in masks:
        diag = ref_torsion.verify_diagonal(m)
        for slot in range(16):
            observed[slot].append(1 if K.eq(diag[slot], K.one()) else -1)
    expected = {}
    for rep in ref_torsion.reps:
        key = tuple(1 if bin(rep & m).count("1") % 2 == 0 else -1 for m in masks)
        expected[key] = expected.get(key, 0)
    for i in range(6):
        key = tuple(1 if bin((1 << i) & m).count("1") % 2 == 0 else -1 for m in masks)
        expected[key] = expected.get(key, 0)
    assert len(expected) == 16
    for row in observed:
        key = tuple(row)
        assert key in expected
        expected[key] += 1
    assert all(v == 1 for v in expected.values())


def test_generators_dimension_audit(ref_torsion, ref_jacobian):
    K = ref_torsion.K
    F = ref_jacobian.field
    gens = ref_torsion.invariant_generators()
    assert len(gens) == 72
    o_plus = [q for l, q in gens if l[0] == "O"]
    assert len(o_plus) == 12
    assert rank_rows(K, [q.vector() for q in o_plus]) == 12
    for P in [(0, 1), (2, 3)]:
        block = [q for l, q in gens if l[0] == P]
        assert len(block) == 4
        assert rank_rows(K, [q.vector() for q in block]) == 4
    vecs = [q.vector() for _, q in gens]
    assert rank_rows(K, vecs) == 72
    jvecs = [[_lift(F, K, v) for v in q.vector()] for q in ref_jacobian.forms]
    assert rank_rows(K, jvecs + vecs) == 72


def test_generators_vanish(ref_torsion, ref_curve, rng):
    K = ref_torsion.K
    gens = [q for _, q in ref_torsion.invariant_generators()]
    pts = []
    for _ in range(100):
        D = random_point(ref_curve, K, rng)
        pts.append((D.coords().v, K))
    assert forms_vanish_at(gens, pts)


def test_not_diagonal_on_wrong_basis(ref_torsion):
    """Feeding a non-mask matrix through the diagonal check trips the error."""
    with pytest.raises((NotDiagonal, OddMask)):
        # odd mask is rejected before any conjugation
        ref_torsion.verify_diagonal(0b1)


@pytest.mark.parametrize("p, coeffs, quadratic", [
    (31, [720, -1764, 1624, -735, 175, -21, 1], False),   # split: the roots 1..6
    (101, [5, 1, 2, 1, 1, 3, 1], False),
    (101, [5, 1, 2, 1, 1, 3, 1], True),
    (1009, [400, 414, 335, 194, 623, 440, 63], True),
    (1999, [1172, 1636, 510, 880, 1973, 1309, 1170], False),
    (1999, [1172, 1636, 510, 880, 1973, 1309, 1170], True),
], ids=["F31-degree1", "F101-degree4", "F101-degree8", "F1009-degree8",
        "F1999-degree6", "F1999-degree12"])
def test_inverse_change_matches_kappa_table(p, coeffs, quadratic):
    """G_inv_kappa, one inversion of G, equals the paper's closed-form kappa
    table, over the splitting field and over its quadratic extension."""
    alg = EtaleAlgebra(CurveData(Field.prime(p), coeffs))
    if quadratic:
        K = alg.splitting
        alg = EtaleAlgebra(alg.curve, splitting=Field.extension(p, 2 * K.deg))
    ctx = TorsionActionCtx(alg)
    assert ctx.K.deg == alg.splitting.deg
    assert ctx.G_inv_kappa.rows == kappa_inverse(ctx).rows


def test_inverse_change_matches_kappa_table_over_q():
    Q = Field.rationals()
    roots = [1, -1, 2, -2, 3, 12]
    f = Poly(Q, [1])
    for a in roots:
        f = f * Poly(Q, [Q.from_int(-a), Q.one()])
    alg = EtaleAlgebra(CurveData(Q, [f.coeff(i) for i in range(7)]),
                       roots=[Q.from_int(a) for a in roots])
    ctx = TorsionActionCtx(alg)
    assert ctx.G_inv_kappa.rows == kappa_inverse(ctx).rows
