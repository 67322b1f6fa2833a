import random

import pytest

from genus2covers.curve import (CurveData, DivisorClass, add, cassels_image,
                                random_point)
from genus2covers.errors import (DegenerateDivisor, Genus2Error, NotGeneric)
from genus2covers.fields import Field, FieldElem
from genus2covers.poly import Poly
from conftest import add_two_torsion


def test_curve_validation():
    F = Field.prime(11)
    with pytest.raises(Genus2Error):
        CurveData(F, [1, 0, 0, 0, 0, 0, 0])   # degree < 6
    with pytest.raises(Genus2Error):
        CurveData(F, [0, 1, 0, 0, 0, 0, 1])   # f0 = 0
    # shift repairs a vanishing constant term
    g = Poly(F, [0, 1, 0, 0, 0, 1, 1])
    if g.is_separable():
        shifted = CurveData.__new__(CurveData)
        cur = None
        for c in range(1, 11):
            cand = g.compose_shift(F.from_int(c))
            if not F.is_zero(cand.coeff(0)) and cand.is_separable():
                cur = CurveData(F, [cand.coeff(i) for i in range(7)])
                break
        assert cur is not None


def test_divisor_class_rejects_non_generic(ref_curve, ref_field):
    F = ref_field
    # find a point and pair it with itself / a Weierstrass point
    rng = random.Random(1)
    D = random_point(ref_curve, F, rng)
    x1, y1 = D.p1
    with pytest.raises(DegenerateDivisor):
        DivisorClass(ref_curve, F, (x1, y1), (x1, F.neg(y1)))
    with pytest.raises(DegenerateDivisor):
        DivisorClass(ref_curve, F, (x1, F.zero()), D.p2)


def swapped(D):
    """D with its two points stored in the other order."""
    out = object.__new__(DivisorClass)
    out.curve, out.field = D.curve, D.field
    out.p1, out.p2 = D.p2, D.p1
    return out


def test_swap_symmetry_and_k11(ref_curve, ref_field, rng):
    for _ in range(50):
        D = random_point(ref_curve, ref_field, rng)
        c = D.coords()
        assert c.v == swapped(D).coords().v
        assert c.v[0] == ref_field.one()


def test_b1b3_minus_b2sq(ref_curve, ref_field, rng):
    F = ref_field
    for _ in range(50):
        D = random_point(ref_curve, F, rng)
        b = D.coords().odd
        lhs = F.sub(F.mul(b[0], b[2]), F.mul(b[1], b[1]))
        assert lhs == F.neg(F.mul(D.p1[1], D.p2[1]))


def test_b6_against_independent_formula(ref_curve, ref_field, rng):
    """b6 defined through the linear relation must match the closed form
    with numerator weights H(r, s) = 2 f6^2 s^5 (r-s)^2 - (r-s)(f5 + f6 r) f'(s)
    - 2 (2 f5 + f6 (r+s)) f(s)."""
    F = ref_field
    fpoly = ref_curve.f
    dpoly = fpoly.derivative()
    el = lambda v: FieldElem(F, v)
    f5, f6 = el(ref_curve.coeffs[5]), el(ref_curve.coeffs[6])

    def hval(r, s):
        return (2 * f6 ** 2 * s ** 5 * (r - s) ** 2
                - (r - s) * (f5 + f6 * r) * el(dpoly.evaluate(s.v))
                - 2 * (2 * f5 + f6 * (r + s)) * el(fpoly.evaluate(s.v)))

    for _ in range(30):
        D = random_point(ref_curve, F, rng)
        x1, y1 = el(D.p1[0]), el(D.p1[1])
        x2, y2 = el(D.p2[0]), el(D.p2[1])
        b6 = (hval(x1, x2) * y1 - hval(x2, x1) * y2) / (2 * f6 ** 2 * (x1 - x2) ** 3)
        assert b6.v == D.coords().odd[5]


def test_negate(ref_curve, ref_field, rng):
    F = ref_field
    for _ in range(20):
        D = random_point(ref_curve, F, rng)
        N = D.negate()
        assert N.negate().coords().v == D.coords().v
        c, cn = D.coords(), N.coords()
        assert cn.even == c.even
        assert cn.odd == [F.neg(v) for v in c.odd]


def test_add_commutes_and_rejects(ref_curve, ref_field, rng):
    done = 0
    while done < 10:
        D1 = random_point(ref_curve, ref_field, rng)
        D2 = random_point(ref_curve, ref_field, rng)
        try:
            S1 = add(D1, D2)
            S2 = add(D2, D1)
        except NotGeneric:
            continue
        assert S1.coords().proportional(S2.coords())
        done += 1
    # D + (-D) degenerates
    D = random_point(ref_curve, ref_field, rng)
    with pytest.raises(NotGeneric):
        add(D, D.negate())


def test_two_torsion_translation_involutive(ref_curve, ref_algebra, rng):
    """Adding a Weierstrass pair twice returns to the class."""
    K = ref_algebra.splitting
    alg = ref_algebra
    done = 0
    while done < 5:
        D = random_point(ref_curve, K, rng)
        pair = (alg.roots[0], alg.roots[1])
        try:
            DP = add_two_torsion(D, pair)
            DPP = add_two_torsion(DP, pair)
        except NotGeneric:
            continue
        assert DPP.coords().proportional(D.coords())
        done += 1


def test_random_point_on_curve(ref_curve, ref_field, rng):
    F = ref_field
    fK = ref_curve.f
    for _ in range(50):
        D = random_point(ref_curve, F, rng)
        for (x, y) in (D.p1, D.p2):
            assert F.eq(F.mul(y, y), fK.evaluate(x))


def test_cassels_image_norm_identity(ref_curve, ref_field, ref_algebra, rng):
    F = ref_field
    for _ in range(30):
        D = random_point(ref_curve, F, rng)
        delta, n = cassels_image(D)
        assert delta[2] == F.one() and delta[3:] == [F.zero()] * 3
        assert delta[1] == F.neg(F.add(D.p1[0], D.p2[0]))
        assert delta[0] == F.mul(D.p1[0], D.p2[0])
        el = ref_algebra.elem(delta)
        assert F.eq(el.norm(), F.mul(n, n))
