"""Seeded input generator for the benchmark, in plain-int arithmetic mod p.

Nothing here imports genus2covers: the generator builds curves, twist data
and the reference point counts on its own, so the program under test sees
only the strings and files made from them.

Polynomials are lists of ints mod p, constant term first, without trailing
zeros.
"""

from __future__ import annotations

import itertools
import math
import random


# -- primes ---------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- F_p arithmetic -----------------------------------------------------------


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """Tonelli-Shanks; None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# -- F_p[X] -------------------------------------------------------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def psub(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                 for i in range(n)])


def pmod(a, m, p):
    a = trim(a)
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = trim(a)
    return a


def pgcd(a, b, p):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def ppowmod(base, e, m, p):
    result, base = [1], pmod(base, m, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), m, p)
        base = pmod(pmul(base, base, p), m, p)
        e >>= 1
    return result


def peval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def derivative(a, p):
    return trim([i * a[i] % p for i in range(1, len(a))])


def degree_profile(f, p):
    """Degrees of the irreducible factors of a squarefree f (distinct-degree
    factorization), sorted."""
    f = trim(f)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    degrees = []
    xq = [0, 1]
    k = 0
    while len(f) > 1:
        k += 1
        if 2 * k > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        xq = ppowmod(xq, p, f, p)
        g = pgcd(f, psub(xq, [0, 1], p), p)
        if len(g) > 1:
            degrees.extend([k] * ((len(g) - 1) // k))
            f = pdivexact(f, g, p)
            xq = pmod(xq, f, p)
    return sorted(degrees)


def pdivexact(a, b, p):
    a = trim(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = trim(a)
    return trim(q)


def is_irreducible(g, p) -> bool:
    return degree_profile(g, p) == [len(g) - 1]


def norm_of(delta, g, p):
    """Res(g, delta) = prod of delta(w) over the roots w of the monic g:
    the determinant of multiplication by delta on F_p[X]/(g)."""
    e = len(g) - 1
    rows = [pmod(pmul(delta, [0] * i + [1], p), g, p) for i in range(e)]
    return det_mod([[(r[j] if j < len(r) else 0) for j in range(e)] for r in rows], p)


# -- curves -------------------------------------------------------------------


class Curve:
    """y^2 = f(x) with f = f6 * prod(factors), the factors monic, distinct
    and irreducible of the degrees in `pattern`."""

    def __init__(self, p, f6, factors):
        self.p = p
        self.factors = factors
        f = [f6 % p]
        for g in factors:
            f = pmul(f, g, p)
        self.f = f
        self.pattern = sorted(len(g) - 1 for g in factors)
        self.splitting_degree = math.lcm(*self.pattern)

    @property
    def field(self) -> str:
        return f"F{self.p}"

    def curve_json(self) -> str:
        return "[" + ",".join(f'"{c}"' for c in self.f) + "]"


def random_curve(rng: random.Random, p: int, pattern) -> Curve:
    """A random separable sextic with f0 != 0 whose factor degrees over F_p
    are exactly `pattern` (a partition of 6)."""
    assert sum(pattern) == 6
    while True:
        factors = []
        for d in pattern:
            while True:
                g = [rng.randrange(p) for _ in range(d)] + [1]
                if g[0] and is_irreducible(g, p) and g not in factors:
                    break
            factors.append(g)
        c = Curve(p, rng.randrange(1, p), factors)
        if len(pgcd(c.f, derivative(c.f, p), p)) == 1:
            return c


# -- twist data ---------------------------------------------------------------


def cassels_datum(rng: random.Random, curve: Curve):
    """(delta, n) = ((X - x1)(X - x2), y1 y2 / f6) for two F_p points with
    distinct x and f(x) != 0; y by Tonelli-Shanks with a random sign."""
    p, f = curve.p, curve.f
    if sum(1 for x in range(min(p, 64)) if legendre(peval(f, x, p), p) == 1) < 2:
        raise ValueError("curve has too few affine points with f(x) a nonzero square")
    pts = []
    while len(pts) < 2:
        x = rng.randrange(p)
        fx = peval(f, x, p)
        y = sqrt_mod(fx, p) if fx else None
        if y is None or (pts and pts[0][0] == x):
            continue
        pts.append((x, p - y if rng.randrange(2) else y))
    (x1, y1), (x2, y2) = pts
    delta = [x1 * x2 % p, -(x1 + x2) % p, 1, 0, 0, 0]
    n = y1 * y2 * pow(f[-1], -1, p) % p
    return delta, n


def working_degree(curve: Curve, delta) -> int:
    """Degree of the field the twist is built over: the splitting degree d,
    or 2d when some delta(w) is a non-square in F_{p^d}.  delta(w) for w a
    root of a factor g of degree e lies in F_{p^e}; it is a square in
    F_{p^d} when d/e is even, else exactly when its norm Res(g, delta) is a
    square mod p."""
    d, p = curve.splitting_degree, curve.p
    for g in curve.factors:
        e = len(g) - 1
        if (d // e) % 2 == 1 and legendre(norm_of(trim(delta), g, p), p) == -1:
            return 2 * d
    return d


def t_vanishes(curve: Curve, delta, n) -> bool:
    """Whether some scale factor t_I is zero.  With v_i = delta(w_i) over
    the six roots w_i, t_I^2 = prod_I v + prod_(not I) v + 2n and the two
    products multiply to n^2, so t_I = 0 exactly when prod_I v = -n for a
    3-subset I.  The v_i are the eigenvalues of multiplication by delta on
    F_p[X]/(f), so the products prod_I v are those of its third exterior
    power, a 20x20 matrix over F_p; some t_I vanishes exactly when
    det(wedge^3 M + n) = 0.  No roots are needed, so any factor pattern
    works."""
    p = curve.p
    inv = pow(curve.f[-1], -1, p)
    f = [c * inv % p for c in curve.f]
    d = trim([x % p for x in delta])
    m = [pmod(pmul(d, [0] * i + [1], p), f, p) for i in range(6)]
    m = [[(r[j] if j < len(r) else 0) for j in range(6)] for r in m]
    subsets = list(itertools.combinations(range(6), 3))
    wedge = [[det_mod([[m[i][j] for j in cols] for i in rows], p) for cols in subsets]
             for rows in subsets]
    for k in range(len(subsets)):
        wedge[k][k] = (wedge[k][k] + n) % p
    return det_mod(wedge, p) == 0


def det_mod(mat, p) -> int:
    """Determinant mod p by Gaussian elimination."""
    mat = [[x % p for x in row] for row in mat]
    e, det = len(mat), 1
    for c in range(e):
        piv = next((r for r in range(c, e) if mat[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], -1, p)
        for r in range(c + 1, e):
            k = mat[r][c] * inv % p
            if k:
                mat[r] = [(x - k * y) % p for x, y in zip(mat[r], mat[c])]
    return det % p


# -- point counts ---------------------------------------------------------------


def jacobian_order(curve: Curve) -> int:
    """#J(F_p) = (N1^2 + N2)/2 - p with N_k = #C(F_{p^k}) on the smooth model
    (two points at infinity when f6 is a square)."""
    p, f = curve.p, curve.f
    n1 = sum(1 + legendre(peval(f, x, p), p) for x in range(p))
    n1 += 1 + legendre(f[-1], p)
    # F_{p^2} = F_p(s), s^2 = r a non-residue; u is a square in F_{p^2}
    # exactly when its norm a^2 - r b^2 is a square mod p
    r = next(z for z in range(2, p) if legendre(z, p) == -1)
    n2 = 2  # f6 lies in F_p, hence is a square in F_{p^2}
    for a in range(p):
        for b in range(p):
            va, vb = 0, 0
            for c in reversed(f):
                va, vb = (va * a + vb * b * r + c) % p, (va * b + vb * a) % p
            n2 += 1 + (legendre(va * va - r * vb * vb, p) if (va or vb) else 0)
    return (n1 * n1 + n2) // 2 - p


def quadric_value(mat, vec, p) -> int:
    """v^T M v mod p for a symmetric 6x6 integer matrix."""
    return sum(mat[i][j] * vec[i] * vec[j] for i in range(6) for j in range(6)) % p
