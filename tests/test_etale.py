import random

import pytest

from genus2covers.errors import OddMask
from genus2covers.etale import (EtaleAlgebra, TwoTorsionPoint, all_two_torsion,
                                alpha_sign, character_chi, even_masks, mask_of,
                                popcount, weil_pairing)
from genus2covers.fields import Field
from genus2covers.poly import Poly, _lift
from conftest import basis_change, rand_elem


def test_mul_identity_and_reduction(ref_algebra, rng):
    F = ref_algebra.field
    one = ref_algebra.one()
    for _ in range(20):
        a = rand_elem(ref_algebra, rng)
        assert (a * one).c == a.c
    # X * X^5 reduces through X^6 = -(f0 + ... + f5 X^5)/f6
    x = ref_algebra.x()
    x5 = ref_algebra.elem([0, 0, 0, 0, 0, 1])
    prod = x * x5
    f = ref_algebra.curve.coeffs
    inv6 = F.inv(f[6])
    expect = [F.neg(F.mul(f[i], inv6)) for i in range(6)]
    assert prod.c == expect


def test_mul_respects_evaluation(ref_algebra, rng):
    K = ref_algebra.splitting
    for _ in range(100):
        a = rand_elem(ref_algebra, rng)
        b = rand_elem(ref_algebra, rng)
        ab = a * b
        for i in range(6):
            assert K.eq(ab.phi(i), K.mul(a.phi(i), b.phi(i)))


def test_norm_examples(ref_algebra, rng):
    F = ref_algebra.field
    assert ref_algebra.one().norm() == F.one()
    c = F.from_int(7)
    const = ref_algebra.elem([c, 0, 0, 0, 0, 0])
    assert const.norm() == F.pw(c, 6)
    # norm = product of the root evaluations, computed without roots
    K = ref_algebra.splitting
    for _ in range(30):
        a = rand_elem(ref_algebra, rng)
        prod = K.one()
        for i in range(6):
            prod = K.mul(prod, a.phi(i))
        assert K.eq(_lift(F, K, a.norm()), prod)


def test_norm_multiplicative(ref_algebra, rng):
    F = ref_algebra.field
    for _ in range(50):
        a = rand_elem(ref_algebra, rng)
        b = rand_elem(ref_algebra, rng)
        assert F.eq((a * b).norm(), F.mul(a.norm(), b.norm()))


def test_weil_pairing_table():
    P = TwoTorsionPoint(mask_of([0, 1]))
    assert weil_pairing(P, P) == 1          # intersection size 2
    Q = TwoTorsionPoint(mask_of([2, 3]))
    assert weil_pairing(P, Q) == 1          # disjoint
    R = TwoTorsionPoint(mask_of([0, 2]))
    assert weil_pairing(P, R) == -1         # one common root
    O = TwoTorsionPoint.identity()
    for S in all_two_torsion():
        assert weil_pairing(O, S) == 1


def test_characters_and_alpha():
    assert character_chi(mask_of([0]), 0) == 1
    assert character_chi(mask_of([0]), 0b111111) == -1
    assert alpha_sign(0) == 1
    assert alpha_sign(0b111111) == -1
    with pytest.raises(OddMask):
        character_chi(0b1, 0b111)
    with pytest.raises(OddMask):
        alpha_sign(0b111)
    rng = random.Random(0)
    masks = even_masks()
    for _ in range(100):
        I = rng.randrange(64)
        J = rng.randrange(64)
        m = rng.choice(masks)
        assert (character_chi(I, m) * character_chi(J, m)
                == character_chi(I ^ J, m))


def test_weil_alpha_identity():
    """e_W(beta(m), beta(m')) = alpha(m m') alpha(m) alpha(m') on pairs."""
    pairs = [m.mask for m in all_two_torsion()]
    for m1 in pairs:
        for m2 in pairs:
            lhs = weil_pairing(TwoTorsionPoint.from_even_mask(m1),
                               TwoTorsionPoint.from_even_mask(m2))
            rhs = alpha_sign(m1 ^ m2) * alpha_sign(m1) * alpha_sign(m2)
            assert lhs == rhs


def test_chi_complement_parity():
    for I in (m for m in range(64) if popcount(m) == 3):
        for m in even_masks():
            assert character_chi(I, m) == character_chi(I ^ 0b111111, m)


def test_basis_change_roundtrips(ref_algebra, rng):
    K = ref_algebra.splitting
    for frm in ("power", "g", "root-values", "root-dual"):
        for to in ("power", "g", "root-values", "root-dual"):
            vec = [K.rand(rng) for _ in range(6)]
            out = basis_change(ref_algebra, vec, frm, to, field=K)
            back = basis_change(ref_algebra, out, to, frm, field=K)
            assert back == vec


def test_basis_change_root_bases_need_splitting_field(ref_algebra, ref_field):
    from genus2covers.errors import MissingRoots
    with pytest.raises(MissingRoots):
        basis_change(ref_algebra, [1, 0, 0, 0, 0, 0], "power", "root-values",
                     field=ref_field)


def test_g_basis_constant_and_expansion(ref_algebra, rng):
    F = ref_algebra.field
    # the last reversal-basis vector is the constant f6
    power = basis_change(ref_algebra, [0, 0, 0, 0, 0, 1], "g", "power", field=F)
    assert power == [ref_algebra.curve.coeffs[6]] + [F.zero()] * 5
    # T carries g-coordinates to power coordinates of the same element
    for _ in range(50):
        gco = [F.rand(rng) for _ in range(6)]
        power = basis_change(ref_algebra, gco, "g", "power", field=F)
        f = ref_algebra.curve.coeffs
        expect = [F.zero()] * 6
        for i in range(1, 7):
            for t in range(0, 7 - i):
                expect[t] = F.add(expect[t], F.mul(gco[i - 1], f[i + t]))
        assert power == expect


def test_r_matrix_charpoly_is_f(ref_algebra):
    assert ref_algebra.R.charpoly() == ref_algebra.curve.f.monic()


def test_vandermonde_conjugate_matches_R(ref_algebra):
    K = ref_algebra.splitting
    from genus2covers.linalg import Mat
    D = Mat.diagonal(K, ref_algebra.roots)
    M = ref_algebra.S * D * ref_algebra.S_inv
    assert M.charpoly() == ref_algebra.curve.f.map_field(K).monic()


def test_frobenius_mask_action(ref_algebra):
    perm = ref_algebra.frob_perm
    assert sorted(perm) == list(range(6))
    m = mask_of([0, 1])
    fm = ref_algebra.frobenius_mask(m)
    assert popcount(fm) == 2
    # applying the splitting degree times comes back
    cur = m
    for _ in range(ref_algebra.splitting.deg):
        cur = ref_algebra.frobenius_mask(cur)
    assert cur == m


def test_inverse_in_algebra(ref_algebra, rng):
    F = ref_algebra.field
    for _ in range(20):
        a = rand_elem(ref_algebra, rng)
        if F.is_zero(a.norm()):
            continue
        inv = a.inverse()
        assert (a * inv).c == ref_algebra.one().c


def test_rational_algebra_with_supplied_roots():
    from genus2covers.curve import CurveData
    Q = Field.rationals()
    f = Poly(Q, [1])
    for a in range(1, 7):
        f = f * Poly(Q, [Q.from_int(-a), Q.one()])
    curve = CurveData(Q, [f.coeff(i) for i in range(7)])
    alg = EtaleAlgebra(curve, roots=[Q.from_int(a) for a in range(1, 7)])
    assert alg.splitting == Q
    assert alg.R.charpoly() == f.monic()
