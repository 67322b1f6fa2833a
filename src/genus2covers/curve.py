"""Genus-2 curves y^2 = f(x), generic divisor classes, and the sixteen
coordinate functions embedding the Jacobian into P^15.

A generic divisor class is an unordered pair of affine non-Weierstrass
points with distinct x-coordinates.  Its image has ten even coordinates
k_{ij} = k_i k_j built from

    k1 = 1,  k2 = x1 + x2,  k3 = x1 x2,
    k4 = (2 f0 + f1 k2 + 2 f2 k3 + f3 k2 k3 + 2 f4 k3^2 + f5 k2 k3^2
          + 2 f6 k3^3 - 2 y1 y2) / (x1 - x2)^2,

and six odd coordinates b_1..b_6, where b_i = (x2^(i-1) y1 - x1^(i-1) y2)
/ (x1 - x2) for i <= 4 and b5, b6 are the corrections with poles only along
the divisor at infinity.  Everything here is symmetric in the two points, so
the class is well defined.

Addition of generic classes goes through the cubic y = c(x) interpolating
the four points; the residual two intersection points, hyperelliptically
flipped, represent the sum.  Only generic configurations are supported; any
coincidence raises NotGeneric and callers resample.
"""

from __future__ import annotations

import random

from .errors import (DegenerateDivisor, ExhaustedAttempts, Genus2Error,
                     NotGeneric)
from .fields import Field, FieldElem
from .poly import Poly, _lift, lagrange_interpolate

COORD_NAMES = ("k11", "k12", "k13", "k14", "k22", "k23", "k24",
               "k33", "k34", "k44", "b1", "b2", "b3", "b4", "b5", "b6")

# index pairs (i, j), 1-based, of the even coordinates in their fixed order
EVEN_PAIRS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
              (3, 3), (3, 4), (4, 4))
EVEN_INDEX = {pair: n for n, pair in enumerate(EVEN_PAIRS)}


def even_slot(i: int, j: int) -> int:
    """Position of k_{ij} among the ten even coordinates; i, j are 1-based."""
    return EVEN_INDEX[(i, j) if i <= j else (j, i)]


class CurveData:
    """The sextic f_0..f_6 with the nondegeneracy certificates.

    Requires f6 != 0, f0 != 0 and gcd(f, f') constant.  ``shift(c)`` moves a
    curve with f(0) = 0 into range by substituting x -> x + c.
    """

    def __init__(self, field: Field, coeffs):
        if len(coeffs) != 7:
            raise Genus2Error("need the 7 coefficients f0..f6")
        self.field = field
        self.coeffs = [field.coerce(c) for c in coeffs]
        self.f = Poly(field, self.coeffs)
        if self.f.degree != 6:
            raise Genus2Error("f6 must be nonzero")
        if field.is_zero(self.coeffs[0]):
            raise Genus2Error(
                "f0 must be nonzero; substitute x -> x + c (CurveData.shift) first")
        if not self.f.is_separable():
            g = self.f.gcd(self.f.derivative())
            raise Genus2Error(f"f is not separable: gcd(f, f') = {g!r}")
        self.inv_4f6 = field.inv(field.mul(field.from_int(4), self.coeffs[6]))

    def shift(self, c) -> "CurveData":
        g = self.f.compose_shift(self.field.coerce(c))
        return CurveData(self.field, [g.coeff(i) for i in range(7)])

    def evaluate(self, x):
        return self.f.evaluate(x)

    def __repr__(self):
        return f"Curve(y^2 = {self.f!r} over {self.field!r})"

    def to_json(self):
        return [self.field.fmt(c) for c in self.coeffs]


class Coords16:
    """A projective 16-vector (k11..k44, b1..b6) over a stated field."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, values):
        if len(values) != 16:
            raise Genus2Error("need 16 coordinates")
        self.v = [field.coerce(x) for x in values]
        if all(field.is_zero(x) for x in self.v):
            raise Genus2Error("the zero vector is not a projective point")
        self.field = field

    @property
    def even(self):
        return self.v[:10]

    @property
    def odd(self):
        return self.v[10:]

    def kval(self, i: int, j: int):
        return self.v[even_slot(i, j)]

    def __getitem__(self, n):
        return self.v[n]

    def __repr__(self):
        return "Coords16(" + ", ".join(self.field.fmt(x) for x in self.v) + ")"

    def proportional(self, other: "Coords16") -> bool:
        """Projective equality: all 2x2 minors of the stacked pair vanish."""
        F = self.field
        for i in range(16):
            for j in range(i + 1, 16):
                m = F.sub(F.mul(self.v[i], other.v[j]), F.mul(self.v[j], other.v[i]))
                if not F.is_zero(m):
                    return False
        return True


class DivisorClass:
    """Generic divisor class: an unordered pair of affine curve points.

    Both points must be non-Weierstrass and have distinct x-coordinates;
    anything else raises DegenerateDivisor at construction.  ``field`` may
    be the ground field or any extension holding the coordinates.
    """

    __slots__ = ("curve", "field", "p1", "p2")

    def __init__(self, curve: CurveData, field: Field, p1, p2):
        x1, y1 = (field.coerce(v) for v in p1)
        x2, y2 = (field.coerce(v) for v in p2)
        fK = curve.f.map_field(field)
        for x, y in ((x1, y1), (x2, y2)):
            if not field.eq(field.mul(y, y), fK.evaluate(x)):
                raise DegenerateDivisor("point is not on the curve")
            if field.is_zero(y):
                raise DegenerateDivisor("Weierstrass point in the support")
        if field.eq(x1, x2):
            raise DegenerateDivisor("x-coordinates coincide")
        # normalize the unordered pair deterministically
        if field.key(x2) < field.key(x1):
            x1, y1, x2, y2 = x2, y2, x1, y1
        self.curve = curve
        self.field = field
        self.p1 = (x1, y1)
        self.p2 = (x2, y2)

    def negate(self) -> "DivisorClass":
        F = self.field
        return DivisorClass(self.curve, F,
                            (self.p1[0], F.neg(self.p1[1])),
                            (self.p2[0], F.neg(self.p2[1])))

    def __repr__(self):
        F = self.field
        return (f"D[({F.fmt(self.p1[0])}, {F.fmt(self.p1[1])}) + "
                f"({F.fmt(self.p2[0])}, {F.fmt(self.p2[1])})]")

    def to_json(self):
        F = self.field
        return [[F.fmt(self.p1[0]), F.fmt(self.p1[1])],
                [F.fmt(self.p2[0]), F.fmt(self.p2[1])]]

    # -- the sixteen coordinates -------------------------------------------

    def coords(self) -> Coords16:
        F = self.field
        el = lambda v: FieldElem(F, v)
        x1, y1 = el(self.p1[0]), el(self.p1[1])
        x2, y2 = el(self.p2[0]), el(self.p2[1])
        f = [el(_lift(self.curve.field, F, c)) for c in self.curve.coeffs]
        f0, f1, f2, f3, f4, f5, f6 = f
        k1 = FieldElem(F, 1)
        k2 = x1 + x2
        k3 = x1 * x2
        r = 1 / (x1 - x2)  # the one inversion per class
        q = FieldElem(F, _lift(self.curve.field, F, self.curve.inv_4f6))  # 1 / (4 f6)
        num = FieldElem(F, k4_numerator(F, [c.v for c in f], k2.v, k3.v))
        k4 = (num - 2 * y1 * y2) * r ** 2
        ks = [k1, k2, k3, k4]
        even = [ks[i - 1] * ks[j - 1] for (i, j) in EVEN_PAIRS]
        b = [(x2 ** (i - 1) * y1 - x1 ** (i - 1) * y2) * r for i in range(1, 5)]
        b5 = (_gcorr(f, x1, x2) * y1 - _gcorr(f, x2, x1) * y2) * r ** 3 * (2 * q)
        b6 = -(f1 * b[0] + 2 * f2 * b[1] + 3 * f3 * b[2] + 4 * f4 * b[3]
               + 4 * f5 * b5 - f5 * k3 * b[2] + f5 * k2 * b[3]
               - 2 * f6 * k3 * b[3] + 2 * f6 * k2 * b5) * q
        odd = b + [b5, b6]
        return Coords16(F, [e.v for e in even] + [o.v for o in odd])


def k4_numerator(F: Field, f, k2, k3):
    """2 f0 + f1 k2 + 2 f2 k3 + f3 k2 k3 + 2 f4 k3^2 + f5 k2 k3^2 + 2 f6 k3^3,
    the numerator of k4 without its -2 y1 y2, from raw values over F."""
    even = F.add(f[0], F.mul(k3, F.add(f[2], F.mul(k3, F.add(f[4], F.mul(k3, f[6]))))))
    odd = F.add(f[1], F.mul(k3, F.add(f[3], F.mul(k3, f[5]))))
    return F.add(F.mul(F.from_int(2), even), F.mul(k2, odd))


def _gcorr(f, r, s):
    """Correction polynomial entering b5: symmetric-pair numerator weight."""
    f0, f1, f2, f3, f4, f5, f6 = f
    return (4 * f0 + f1 * (r + 3 * s) + 2 * f2 * s * (r + s)
            + f3 * s ** 2 * (3 * r + s) + 4 * f4 * r * s ** 3
            + f5 * s ** 4 * (5 * r - s) + 2 * f6 * r * s ** 4 * (r + s))


# ---------------------------------------------------------------------------
# group operations


def add(D1: DivisorClass, D2: DivisorClass) -> DivisorClass:
    """Sum of two generic classes by cubic interpolation.

    Raises NotGeneric whenever the four x-coordinates are not pairwise
    distinct, the intersection degenerates (residual at infinity), the
    residual x-pair does not split over the working field, or the result
    is itself non-generic.  Callers resample on failure.
    """
    if D1.curve is not D2.curve and D1.curve.coeffs != D2.curve.coeffs:
        raise Genus2Error("divisors on different curves")
    F = D1.field
    pts = [D1.p1, D1.p2, D2.p1, D2.p2]
    return _add_points(D1.curve, F, pts)


def _add_points(curve: CurveData, F: Field, pts):
    xs = [F.coerce(p[0]) for p in pts]
    if len({F.key(x) for x in xs}) != 4:
        raise NotGeneric("x-coordinates of the four points collide")
    cubic = lagrange_interpolate(F, [(F.coerce(p[0]), F.coerce(p[1])) for p in pts])
    fK = curve.f.map_field(F)
    diff = cubic * cubic - fK
    if diff.degree != 6:
        raise NotGeneric("residual intersection at infinity")
    rem = diff
    for x in xs:
        q, r = rem.divmod(Poly(F, [F.neg(x), F.one()]))
        if not r.is_zero():
            raise Genus2Error("interpolation failed to pass through a point")
        rem = q
    # rem is the residual quadratic a (x - x5)(x - x6)
    a2, a1, a0 = rem.coeff(2), rem.coeff(1), rem.coeff(0)
    disc = F.sub(F.mul(a1, a1), F.mul(F.from_int(4), F.mul(a2, a0)))
    sq = F.sqrt(disc)
    if sq is None:
        raise NotGeneric("residual x-pair is irrational over the working field")
    inv2a = F.inv(F.mul(F.from_int(2), a2))
    x5 = F.mul(F.sub(sq, a1), inv2a)
    x6 = F.mul(F.sub(F.neg(sq), a1), inv2a)
    y5 = cubic.evaluate(x5)
    y6 = cubic.evaluate(x6)
    # the class of the pair, hyperelliptically flipped
    try:
        return DivisorClass(curve, F, (x5, F.neg(y5)), (x6, F.neg(y6)))
    except DegenerateDivisor as exc:
        raise NotGeneric(str(exc)) from exc


# x-coordinates drawn by random_point before it gives up on the field
SAMPLE_ATTEMPTS = 400


def random_point(curve: CurveData, field: Field, rng: random.Random) -> DivisorClass:
    """Rejection-sample a generic divisor class over a finite field."""
    if not field.is_finite():
        raise Genus2Error("sampling needs a finite field")
    fK = curve.f.map_field(field)
    pts = []
    for _ in range(SAMPLE_ATTEMPTS):
        x = field.rand(rng)
        fx = fK.evaluate(x)
        if field.is_zero(fx):
            continue
        y = field.sqrt(fx)
        if y is None:
            continue
        if rng.randrange(2):
            y = field.neg(y)
        pts.append((x, y))
        if len(pts) == 2:
            if field.eq(pts[0][0], pts[1][0]):
                pts.pop()
                continue
            return DivisorClass(curve, field, pts[0], pts[1])
    raise ExhaustedAttempts("field too small for generic sampling")


def cassels_image(D: DivisorClass):
    """The pair (delta, n): delta = (X - x1)(X - x2), n = y1 y2 / f6.

    N(delta) = f(x1) f(x2) / f6^2 = n^2, so the pair always lands in the
    norm-square subgroup.  delta is returned as raw power-basis coefficients
    over D's field together with n.
    """
    F = D.field
    x1, y1 = D.p1
    x2, y2 = D.p2
    delta = [F.mul(x1, x2), F.neg(F.add(x1, x2)), F.one(),
             F.zero(), F.zero(), F.zero()]
    f6 = _lift(D.curve.field, F, D.curve.coeffs[6])
    n = F.div(F.mul(y1, y2), f6)
    return delta, n
