import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.errors import (Genus2Error, NotSeparable,
                                 RationalBaseUnsupported, WrongDegree)
from genus2covers.fields import Field, is_irreducible
from genus2covers.poly import (Poly, _lift, distinct_degree_profile, factor_degrees,
                               lagrange_interpolate, resultant,
                               roots_in_field, splitting_field_and_roots)


def test_arithmetic_and_divmod():
    F = Field.prime(13)
    rng = random.Random(1)
    for _ in range(100):
        a = Poly(F, [F.rand(rng) for _ in range(rng.randrange(1, 8))])
        b = Poly(F, [F.rand(rng) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


def test_xgcd_bezout():
    F = Field.prime(101)
    rng = random.Random(2)
    for _ in range(50):
        a = Poly(F, [F.rand(rng) for _ in range(5)])
        b = Poly(F, [F.rand(rng) for _ in range(4)])
        if a.is_zero() or b.is_zero():
            continue
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        assert (a % g).is_zero() and (b % g).is_zero()


def test_resultant_degree_one():
    # Res(g, h) = lc(g)^deg(h) * prod h(alpha) over roots alpha of g, so the
    # degree-1 case is h(a) = a - b
    F = Field.prime(31)
    rng = random.Random(3)
    for _ in range(20):
        a, b = F.rand(rng), F.rand(rng)
        g = Poly(F, [F.neg(a), 1])  # x - a
        h = Poly(F, [F.neg(b), 1])  # x - b
        assert resultant(g, h) == F.sub(a, b)


def test_resultant_frozen_example():
    # Res(x^2-1, x^2-4) = (1-2)(1+2)(-1-2)(-1+2) = 9, frozen from the
    # root-difference product
    F = Field.prime(1009)
    g = Poly(F, [-1, 0, 1])
    h = Poly(F, [-4, 0, 1])
    assert resultant(g, h) == F.from_int(9)


def test_resultant_matches_root_products():
    F = Field.prime(103)
    rng = random.Random(4)
    for _ in range(20):
        aroots = [F.rand(rng) for _ in range(3)]
        broots = [F.rand(rng) for _ in range(2)]
        lg, lh = F.rand(rng), F.rand(rng)
        if F.is_zero(lg) or F.is_zero(lh):
            continue
        g = Poly(F, [lg])
        for r in aroots:
            g = g * Poly(F, [F.neg(r), 1])
        h = Poly(F, [lh])
        for r in broots:
            h = h * Poly(F, [F.neg(r), 1])
        expect = F.mul(F.pw(lg, 2), F.pw(lh, 3))
        for ra in aroots:
            for rb in broots:
                expect = F.mul(expect, F.sub(ra, rb))
        assert resultant(g, h) == expect


def test_splitting_x6_minus_1_over_f7():
    F = Field.prime(7)
    f = Poly(F, [-1, 0, 0, 0, 0, 0, 1])
    K, roots = splitting_field_and_roots(f)
    assert K.order == 7
    assert roots == [1, 2, 3, 4, 5, 6]


def test_splitting_irreducible_sextic():
    F = Field.prime(5)
    # find an irreducible sextic by scanning constants
    for c in range(1, 5):
        f = Poly(F, [c, 1, 0, 0, 0, 0, 1])
        if distinct_degree_profile(f) == [6]:
            break
    else:
        pytest.skip("no irreducible candidate found")
    K, roots = splitting_field_and_roots(f)
    assert K.order == 5 ** 6
    assert len(roots) == 6
    # the six roots form one Frobenius orbit
    orbit = {roots[0]}
    cur = roots[0]
    for _ in range(5):
        cur = K.frobenius(cur)
        orbit.add(cur)
    assert orbit == set(roots)


def test_splitting_random_sextics_lcm_and_evaluation():
    F = Field.prime(101)
    rng = random.Random(5)
    done = 0
    while done < 10:
        f = Poly(F, [F.rand(rng) for _ in range(6)] + [1 + rng.randrange(100)])
        if f.degree != 6 or not f.is_separable():
            continue
        done += 1
        degs = distinct_degree_profile(f)
        assert list(factor_degrees(f)) == degs   # found in order when separable
        K, roots = splitting_field_and_roots(f)
        import math
        expect = 1
        for e in degs:
            expect = expect * e // math.gcd(expect, e)
        assert K.deg == expect
        assert len(roots) == 6 and len(set(roots)) == 6
        fk = f.map_field(K)
        for w in roots:
            assert K.is_zero(fk.evaluate(w))
        # lc(f) * prod (x - w) re-expands to f exactly
        prod = Poly(K, [f.map_field(K).lc()])
        for w in roots:
            prod = prod * Poly(K, [K.neg(w), K.one()])
        assert prod == fk


def test_splitting_rejects_bad_inputs():
    F = Field.prime(11)
    with pytest.raises(WrongDegree):
        splitting_field_and_roots(Poly(F, [1, 1, 1]))
    # (x-1)^2 * quartic is not separable
    sq = Poly(F, [1, 9, 1]) * Poly(F, [1, 0, 0, 0, 1])  # (x-1)^2 would be [1,-2,1]
    f = Poly(F, [1, -2, 1]) * Poly(F, [3, 0, 0, 0, 1])
    with pytest.raises(NotSeparable):
        splitting_field_and_roots(f)
    Q = Field.rationals()
    with pytest.raises(RationalBaseUnsupported):
        splitting_field_and_roots(Poly(Q, [1, 0, 0, 0, 0, 0, 1]))
    del sq


def test_roots_in_given_field_deterministic():
    F = Field.prime(11)
    f = Poly(F, [10, 0, 0, 0, 0, 0, 1])  # x^6 - 1
    K, roots = splitting_field_and_roots(f)
    again = roots_in_field(f, K)
    assert roots == again


def test_lagrange_interpolation():
    F = Field.prime(101)
    rng = random.Random(6)
    pts = [(F.from_int(i), F.rand(rng)) for i in range(5)]
    g = lagrange_interpolate(F, pts)
    assert g.degree <= 4
    for x, y in pts:
        assert g.evaluate(x) == y


def test_compose_shift():
    F = Field.prime(17)
    f = Poly(F, [1, 2, 3, 4])
    g = f.compose_shift(F.from_int(5))
    for x in range(17):
        assert g.evaluate(F.from_int(x)) == f.evaluate(F.from_int(x + 5))


# -- the Frobenius root finder against square-and-multiply ------------------


def _powmod(a, e, m):
    result = Poly.const(a.field, 1)
    base = a % m
    while e:
        if e & 1:
            result = (result * base) % m
        base = (base * base) % m
        e >>= 1
    return result


def plain_roots_in_field(f, K, seed=0):
    """Reference root finder: x^q mod g and every split probe
    (x + a)^((q-1)/2) mod h by square-and-multiply over K, with the same
    seeded shifts a as ``roots_in_field``."""
    g = f.map_field(K).monic()
    x = Poly.x(K)
    g = g.gcd(_powmod(x, K.order, g) - x)
    if g.degree != f.degree:
        raise Genus2Error("polynomial does not split in the given field")
    rng = random.Random(seed * 0x9E3779B9 + K.p * 1315423911 + K.deg)
    roots, stack, one = [], [g], Poly.const(K, 1)
    while stack:
        h = stack.pop()
        if h.degree == 1:
            roots.append(K.neg(K.mul(h.c[0], K.inv(h.c[1]))))
            continue
        while True:
            probe = _powmod(x + Poly.const(K, K.rand(rng)), (K.order - 1) // 2, h) - one
            d = h.gcd(probe)
            if 0 < d.degree < h.degree:
                stack += [d, (h // d).monic()]
                break
    roots.sort(key=K.key)
    return roots


ROOT_PRIMES = [3, 5, 101, 1999, 2 ** 31 - 1]
# factor degrees of f over F_p; their lcm is the splitting degree, 1 to 6
ROOT_PATTERNS = [[1, 1, 1], [1] * 6, [2, 1, 1], [2, 2, 2], [3, 3], [3, 1, 1, 1],
                 [4, 1, 1], [4, 2], [5, 1], [6], [3, 2, 1]]


def random_product(rng, p, pattern):
    """A product of distinct monic irreducibles of the given degrees over F_p,
    times a random nonzero constant."""
    F = Field.prime(p)
    linear = rng.sample(range(p), pattern.count(1))
    factors = [[-a % p, 1] for a in linear]
    for k in pattern:
        while k > 1:
            m = [rng.randrange(p) for _ in range(k)] + [1]
            if m not in factors and is_irreducible(m, p):
                factors.append(m)
                break
    f = Poly(F, [1 + rng.randrange(p - 1)])
    for m in factors:
        f = f * Poly(F, m)
    return f


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(ROOT_PRIMES), pattern=st.sampled_from(ROOT_PATTERNS),
       double=st.booleans(), draw=st.integers(0, 2 ** 32), seed=st.integers(0, 5))
def test_roots_in_field_matches_square_and_multiply(p, pattern, double, draw, seed):
    """The Frobenius root finder returns the roots of square-and-multiply
    over F_{p^d}, d the splitting degree or its double, above and below
    p^2 < 2^63."""
    if pattern.count(1) > p:
        pattern = [1] * p
    d = math.lcm(*pattern) * (2 if double else 1)
    f = random_product(random.Random(draw), p, pattern)
    K = Field.extension(p, d)
    shifts = {}
    for name, finder in (("frobenius", roots_in_field), ("plain", plain_roots_in_field)):
        # the same probes split the same factors, so both draw the same shifts a
        drawn = shifts[name] = []
        K.rand = lambda rng, drawn=drawn: drawn.append(Field.rand(K, rng)) or drawn[-1]
        shifts[name + " roots"] = finder(f, K, seed=seed)
    roots = shifts["frobenius roots"]
    assert roots == shifts["plain roots"]
    assert shifts["frobenius"] == shifts["plain"]
    assert len(set(roots)) == f.degree
    assert all(K.is_zero(f.map_field(K).evaluate(w)) for w in roots)


@pytest.mark.parametrize("p, pattern, d", [(101, [4, 1, 1], 2), (1999, [6], 3),
                                           (2 ** 31 - 1, [2, 2, 2], 1)])
def test_roots_in_field_refuses_a_field_where_f_does_not_split(p, pattern, d):
    f = random_product(random.Random(p), p, pattern)
    K = Field.extension(p, d)
    with pytest.raises(Genus2Error, match="does not split"):
        roots_in_field(f, K)
    with pytest.raises(Genus2Error, match="does not split"):
        plain_roots_in_field(f, K)


def test_roots_in_field_refuses_a_non_separable_polynomial():
    F = Field.prime(101)
    f = Poly(F, [-1, 1]) * Poly(F, [-1, 1]) * Poly(F, [-2, 1])
    with pytest.raises(Genus2Error, match="does not split"):
        roots_in_field(f, F)


@pytest.mark.parametrize("p, a, b", [(3, 2, 4), (7, 3, 6), (101, 2, 8), (2 ** 31 - 1, 2, 4)])
def test_lift_embeds_a_subfield(p, a, b):
    """_lift of F_{p^a} into F_{p^b}, a | b, is a field map: it keeps sums,
    products and the Frobenius, fixes F_p, and lands in the elements fixed
    by the a-th power of the Frobenius."""
    F, G = Field.extension(p, a), Field.extension(p, b)
    rng = random.Random(p)
    lift = lambda x: _lift(F, G, x)
    for _ in range(10):
        x, y = F.rand(rng), F.rand(rng)
        assert lift(F.add(x, y)) == G.add(lift(x), lift(y))
        assert lift(F.mul(x, y)) == G.mul(lift(x), lift(y))
        assert lift(F.frobenius(x)) == G.frobenius(lift(x))
        z = lift(x)
        for _ in range(a):
            z = G.frobenius(z)
        assert z == lift(x)
    assert lift(F.from_int(5)) == G.from_int(5)
    with pytest.raises(Genus2Error, match="cannot lift"):
        _lift(G, F, G.one())

