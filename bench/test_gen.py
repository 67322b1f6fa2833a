"""Checks of the benchmark's own input generator: python3 -m pytest bench/test_gen.py"""

import random

import gen


def factored_curve(p: int, coeffs):
    """A given sextic, split into irreducible factors by trial division by
    every monic of degree <= 3."""
    f = [c % p for c in coeffs]
    rest = f[:]
    factors = []
    for d in (1, 2, 3):
        for g in monics(p, d):
            while len(rest) > 1 and gen.is_irreducible(g, p) and not gen.pmod(rest, g, p):
                factors.append(g)
                rest = gen.pdivexact(rest, g, p)
    if len(rest) > 1:
        inv = pow(rest[-1], -1, p)
        factors.append([x * inv % p for x in rest])
    c = gen.Curve(p, f[-1], factors)
    assert c.f == f, "factorisation does not reproduce the curve"
    return c


def monics(p, d):
    for n in range(p ** d):
        g = []
        for _ in range(d):
            g.append(n % p)
            n //= p
        yield g + [1]


def split_curve(p, roots):
    return gen.Curve(p, 1, [[-r % p, 1] for r in roots])


def test_jacobian_order_split_f11():
    assert gen.jacobian_order(split_curve(11, [1, 2, 3, 4, 5, 7])) == 176


def test_jacobian_order_reference_curve_f11():
    c = factored_curve(11, [5, 1, 2, 1, 1, 3, 1])
    assert c.pattern == [6]
    assert gen.jacobian_order(c) == 175


def test_random_curve_has_the_requested_pattern():
    rng = random.Random(0)
    for p in (7, 101, 2 ** 31 - 1):
        for pattern in ([1] * 6, [2, 2, 2], [4, 1, 1], [3, 2, 1], [6]):
            c = gen.random_curve(rng, p, pattern)
            assert gen.degree_profile(c.f, p) == sorted(pattern)
            assert c.f[0] != 0 and len(c.f) == 7


def test_cassels_datum_is_a_norm_square():
    """N(delta) = n^2: the product of delta over the six roots."""
    rng = random.Random(1)
    c = split_curve(13, [1, 2, 3, 5, 8, 11])
    roots = [-g[0] % 13 for g in c.factors]
    for _ in range(20):
        delta, n = gen.cassels_datum(rng, c)
        norm = 1
        for r in roots:
            norm = norm * gen.peval(delta, r, 13) % 13
        assert norm == n * n % 13


def test_t_vanishes_matches_the_roots_on_split_curves():
    """wedge^3 of multiplication by delta against prod_I delta(w) = -n
    over the 3-subsets I of the roots, where the roots are in F_p."""
    import itertools
    rng = random.Random(2)
    seen = set()
    for p in (11, 13, 17):
        for _ in range(40):
            c = gen.random_curve(rng, p, [1] * 6)
            try:
                delta, n = gen.cassels_datum(rng, c)
            except ValueError:
                continue
            vals = [gen.peval(delta, -g[0] % p, p) for g in c.factors]
            direct = any(vals[a] * vals[b] * vals[d] % p == -n % p
                         for a, b, d in itertools.combinations(range(6), 3))
            assert gen.t_vanishes(c, delta, n) == direct
            seen.add(direct)
    assert seen == {True, False}


def test_trivial_datum_never_vanishes():
    rng = random.Random(3)
    for p, pattern in ((101, [4, 1, 1]), (1999, [6]), (7, [2, 2, 1, 1])):
        c = gen.random_curve(rng, p, pattern)
        assert not gen.t_vanishes(c, [1, 0, 0, 0, 0, 0], 1)
