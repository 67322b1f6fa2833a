"""Univariate polynomials over a Field, the package's only polynomial code,
with the algorithms the rest of it leans on: exact division, gcd,
resultants, distinct-degree factor data over F_p (also the irreducibility
test of extension moduli), and root extraction in a chosen splitting field.

Coefficients are stored constant-term first with no trailing zeros; the zero
polynomial has an empty coefficient list.
"""

from __future__ import annotations

import functools
import math
import random

from .errors import (Genus2Error, NotSeparable, RationalBaseUnsupported,
                     WrongDegree)
from .fields import Field


class Poly:
    """Dense univariate polynomial over a :class:`Field` (raw coefficients)."""

    __slots__ = ("field", "c")

    def __init__(self, field: Field, coeffs):
        self.field = field
        c = [field.coerce(x) for x in coeffs]
        while c and field.is_zero(c[-1]):
            c.pop()
        self.c = c

    # -- basics -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.c

    def lc(self):
        if not self.c:
            return self.field.zero()
        return self.c[-1]

    def coeff(self, i: int):
        return self.c[i] if 0 <= i < len(self.c) else self.field.zero()

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.c == other.c

    def __hash__(self):
        return hash((self.field, tuple(self.c)))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"({self.field.fmt(a)})*x^{i}" for i, a in enumerate(self.c)
                          if not self.field.is_zero(a))

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, [0, 1])

    @staticmethod
    def const(field: Field, v) -> "Poly":
        return Poly(field, [v])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        F = self.field
        n = max(len(self.c), len(other.c))
        return Poly(F, [F.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        F = self.field
        n = max(len(self.c), len(other.c))
        return Poly(F, [F.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [self.field.neg(a) for a in self.c])

    def __mul__(self, other):
        F = self.field
        if isinstance(other, Poly):
            if not self.c or not other.c:
                return Poly(F, [])
            res = [F.zero()] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                if not F.is_zero(a):
                    for j, b in enumerate(other.c):
                        res[i + j] = F.add(res[i + j], F.mul(a, b))
            return Poly(F, res)
        v = F.coerce(other)
        return Poly(F, [F.mul(a, v) for a in self.c])

    __rmul__ = __mul__

    def scale(self, v):
        return self * v

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        a = list(self.c)
        db = other.degree
        lead, one = other.lc(), F.one()
        inv_lead = one if lead == one else F.inv(lead)
        q = [F.zero()] * max(len(a) - db, 0)
        while len(a) - 1 >= db and a:
            cval = F.mul(a[-1], inv_lead)
            shift = len(a) - 1 - db
            q[shift] = cval
            for i, bi in enumerate(other.c):
                a[shift + i] = F.sub(a[shift + i], F.mul(cval, bi))
            while a and F.is_zero(a[-1]):
                a.pop()
        return Poly(F, q), Poly(F, a)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.field.inv(self.lc())

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(F, [F.mul(a, F.from_int(i)) for i, a in enumerate(self.c)][1:])

    def evaluate(self, x):
        """Horner evaluation at a raw value of the coefficient field."""
        F = self.field
        acc = F.zero()
        for a in reversed(self.c):
            acc = F.add(F.mul(acc, x), a)
        return acc

    def compose_shift(self, cval) -> "Poly":
        """f(x + c) by Horner in (x + c)."""
        F = self.field
        shift = Poly(F, [cval, 1])
        acc = Poly(F, [])
        for a in reversed(self.c):
            acc = acc * shift + Poly.const(F, a)
        return acc

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "Poly"):
        """(g, s, t) monic with s*self + t*other = g."""
        F = self.field
        r0, r1 = self, other
        s0, s1 = Poly.const(F, 1), Poly(F, [])
        t0, t1 = Poly(F, []), Poly.const(F, 1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        c = F.inv(r0.lc())
        return r0 * c, s0 * c, t0 * c

    def is_separable(self) -> bool:
        g = self.gcd(self.derivative())
        return g.degree == 0

    def map_field(self, G: Field) -> "Poly":
        """Reinterpret the coefficients in field G (F_p into F_p^d); itself
        when G is its own field."""
        if G == self.field:
            return self
        return Poly(G, [_lift(self.field, G, a) for a in self.c])


def _lift(F: Field, G: Field, a):
    """Lift a raw value of F into G. Supported: F == G, F prime / Q
    constants into an extension or larger context of the same characteristic,
    and F_{p^a} into F_{p^b}, a | b, with t sent to ``_modulus_root(F, G)``."""
    if F == G:
        return a
    if F.kind == "prime" and G.kind == "ext" and F.p == G.p:
        return G.from_int(a)
    if F.kind == "prime" and G.kind == "prime" and F.p == G.p:
        return a
    if F.kind == G.kind == "ext" and F.p == G.p and G.deg % F.deg == 0:
        return Poly(G, [G.from_int(c) for c in a]).evaluate(_modulus_root(F, G))
    raise Genus2Error(f"cannot lift element of {F} into {G}")


@functools.cache
def _modulus_root(F: Field, G: Field):
    """The first root in G of the modulus of F (``roots_in_field``)."""
    return roots_in_field(Poly(Field.prime(F.p), list(F.modulus)), G)[0]


# ---------------------------------------------------------------------------
# resultants


def resultant(g: Poly, h: Poly):
    """Res(g, h) = lc(g)^deg(h) lc(h)^deg(g) prod(alpha_i - beta_j), computed
    by the Euclidean remainder route, exactly and denominator-free over any
    field."""
    F = g.field
    if g.is_zero() or h.is_zero():
        # Res with the zero polynomial vanishes unless the other is a nonzero
        # constant, in which case the empty product convention gives 1.
        other = h if g.is_zero() else g
        return F.one() if other.degree == 0 else F.zero()
    sign = F.one()
    acc = F.one()
    while True:
        if g.degree < h.degree:
            if (g.degree * h.degree) % 2 == 1:
                sign = F.neg(sign)
            g, h = h, g
        if h.degree == 0:
            acc = F.mul(acc, F.pw(h.lc(), g.degree))
            return F.mul(sign, acc)
        r = g % h
        if r.is_zero():
            return F.zero()
        acc = F.mul(acc, F.pw(h.lc(), g.degree - r.degree))
        if (g.degree * h.degree) % 2 == 1:
            sign = F.neg(sign)
        g, h = h, r


# ---------------------------------------------------------------------------
# factor-degree data and root extraction over finite fields


def distinct_degree_profile(f: Poly):
    """Degrees (with multiplicity) of the irreducible factors of a separable
    polynomial over a prime field, via the distinct-degree sieve, sorted."""
    return sorted(factor_degrees(f))


def factor_degrees(f: Poly):
    """The degrees of ``distinct_degree_profile`` in the order the sieve
    finds them, nondecreasing for a separable f.  For any f of degree n the
    first is n exactly when f is irreducible: a reducible f has a factor of
    degree <= n/2, which a gcd splits off before the sieve ends."""
    F = f.field
    if F.kind == "rational":
        raise RationalBaseUnsupported("factor profile needs a finite base field")
    f = f.monic()
    x = Poly.x(F)
    xq = x
    d = 0
    rem = f
    while rem.degree > 0:
        d += 1
        if d > rem.degree:
            break
        xq = _powmod(xq, F.order, rem)
        g = rem.gcd(xq - x)
        if g.degree > 0:
            yield from [d] * (g.degree // d)
            rem = (rem // g).monic()
            xq = xq % rem if rem.degree > 0 else xq
        if 2 * (d + 1) > rem.degree and rem.degree > 0:
            yield rem.degree
            rem = Poly.const(F, 1)


def _powmod(a: Poly, e: int, m: Poly) -> Poly:
    result = Poly.const(a.field, 1)
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def roots_in_field(f: Poly, K: Field, seed: int = 0):
    """All roots of f inside the finite field K = F_{p^d}, assuming f splits
    there; f has coefficients in F_p.

    So does g = f / lc(f), and on K[x]/(g) the map u -> u^(p^k) is
    F_p-linear (von zur Gathen and Shoup): the k-th power of the Frobenius
    of K on each coefficient, then the rows x^(i p^k) mod g, which hold F_p
    values.  x^q mod g, q = p^d, is d steps of the F_p matrix x^(ip) mod g;
    it equals x exactly when g splits into distinct linear factors over K.
    Equal-degree splitting then takes gcd(h, probe - 1) for a factor h of g
    and seeded random shifts a, with the probe (x + a)^((q-1)/2) mod h
    computed as N(x + a)^((p-1)/2): the norm N(u) = u^(1 + p + ... + p^(d-1))
    mod g comes from an Itoh-Tsujii chain of these maps and is reduced mod h
    before the short power.  Returns the roots sorted by the canonical
    element order of K.
    """
    F = f.field
    if F.kind != "prime" or F.p != K.p:
        raise Genus2Error(f"need a polynomial over F_{K.p}, not over {F}")
    p, d = K.p, K.deg
    gp = f.monic()
    n = gp.degree
    pad = lambda v: v + [0] * (n - len(v))
    combine = lambda cols, v: [sum(c * a for c, a in zip(col, v)) % p for col in cols]

    def columns(xe):
        """cols[j][i], the coefficient of x^j in (x^e)^i mod g, from x^e mod g."""
        rows = [Poly.const(F, 1)]
        for _ in range(n - 1):
            rows.append(rows[-1] * xe % gp)
        return [[row.coeff(j) for row in rows] for j in range(n)]

    # x^(p^k) mod g over F_p for k = 0..d, and the F_p matrix of u -> u^p
    x = Poly.x(F)
    cols = {1: columns(_powmod(x, p, gp))}
    xpk = [pad((x % gp).c)]
    for _ in range(d):
        xpk.append(combine(cols[1], xpk[-1]))
    if xpk[d] != xpk[0]:
        raise Genus2Error("polynomial does not split in the given field")

    def frobenius(u, k):
        """u^(p^k) mod g for u a list of raw values of K."""
        if k not in cols:
            cols[k] = columns(Poly(F, xpk[k]))
        if K.kind == "prime":
            return combine(cols[k], u)
        return [K.frobenius(tuple(cj), k) for cj in zip(*(combine(cols[k], c)
                                                           for c in zip(*u)))]

    g = f.map_field(K).monic()

    def norm(u):
        """u^(1 + p + ... + p^(d-1)) mod g, from N_k = u^(1 + ... + p^(k-1)):
        N_2k = N_k Frob^k(N_k) and N_(k+1) = u Frob(N_k)."""
        N, k = u, 1
        for bit in bin(d)[3:]:
            N, k = (Poly(K, N) * Poly(K, frobenius(N, k)) % g).c, 2 * k
            if bit == "1":
                N, k = (Poly(K, u) * Poly(K, frobenius(N, 1)) % g).c, k + 1
        return Poly(K, N)

    rng = random.Random(seed * 0x9E3779B9 + K.p * 1315423911 + K.deg)
    roots = []
    stack = [g]
    one = Poly.const(K, 1)
    while stack:
        h = stack.pop()
        if h.degree == 0:
            continue
        if h.degree == 1:
            # root of x + c is -c
            roots.append(K.neg(K.mul(h.c[0], K.inv(h.c[1]))))
            continue
        for _ in range(128):  # a probe splits h with probability about 1 - 2^(1 - deg h)
            probe = _powmod(norm([K.rand(rng), K.one()]) % h, (p - 1) // 2, h) - one
            dd = h.gcd(probe)
            if 0 < dd.degree < h.degree:
                stack.append(dd)
                stack.append((h // dd).monic())
                break
        else:
            raise Genus2Error("no probe split a factor")
    roots.sort(key=K.key)
    return roots


def splitting_field_and_roots(f: Poly, seed: int = 0):
    """Splitting field of a separable sextic over a prime field, plus its six
    roots in deterministic canonical order."""
    F = f.field
    if F.kind == "rational":
        raise RationalBaseUnsupported(
            "over Q the caller must supply the six roots")
    if F.kind != "prime":
        raise Genus2Error("base field must be prime")
    if f.degree != 6:
        raise WrongDegree(f"need degree 6, got {f.degree}")
    if not f.is_separable():
        raise NotSeparable("gcd(f, f') is not constant")
    degs = distinct_degree_profile(f)
    K = Field.extension(F.p, math.lcm(*degs))
    return K, roots_in_field(f, K, seed=seed)


def lagrange_interpolate(F: Field, points) -> Poly:
    """Unique polynomial of degree < len(points) through (x_i, y_i), raw values."""
    acc = Poly(F, [])
    xs = [x for x, _ in points]
    for i, (xi, yi) in enumerate(points):
        num = Poly.const(F, 1)
        den = F.one()
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * Poly(F, [F.neg(xj), F.one()])
            den = F.mul(den, F.sub(xi, xj))
        acc = acc + num * F.mul(yi, F.inv(den))
    return acc
