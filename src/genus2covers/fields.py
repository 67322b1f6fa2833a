"""Exact field arithmetic: prime fields F_p, one extension F_p[t]/(m), and Q.

A :class:`Field` owns the arithmetic on *raw* representations:

* prime field   -- ints in ``[0, p)``
* extension     -- tuples of ``deg`` ints (coefficients of t^0, t^1, ...)
* rationals     -- ``fractions.Fraction`` in lowest terms

:class:`FieldElem` wraps a raw value together with its field and overloads
the usual operators; ints coerce automatically.  All values are immutable,
so fields and elements can be shared freely between threads.

The four ring operations ``add``, ``sub``, ``neg`` and ``mul`` are bound
once, when a field is constructed.  For F_p and Q they are plain closures;
for F_p[t]/(m) they are straight-line functions generated from (p, m), with
the rows t^k mod m baked in as integer constants and one reduction mod p per
output coefficient.  Python ints keep them exact for every p.

The module has no polynomial code.  Inverses in F_p[t]/(m) are a^-1 =
r / N(a), with r = a^(p + ... + p^(d-1)) from an Itoh-Tsujii chain of the
cached Frobenius matrices and the norm N(a) = a r in F_p.  The
characteristic is never 2, and extension moduli are verified irreducible at
construction time by their distinct-degree profile in ``poly``.  Elements
carry a canonical total order (residue value for prime fields,
lexicographic coefficient order for extensions, numeric order for Q) used
for deterministic root labelling and square-root signs.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import Genus2Error


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def is_irreducible(m, p: int) -> bool:
    """Whether m (constant term first, leading coefficient nonzero) is
    irreducible over F_p: the first factor degree the distinct-degree sieve
    finds is deg m."""
    from .poly import Poly, factor_degrees   # poly imports this module
    return next(factor_degrees(Poly(Field.prime(p), m)), None) == len(m) - 1


def _has_irreducible_binomial(p: int, d: int) -> bool:
    """Whether some x^d + c is irreducible over F_p: iff every prime l | d
    divides p - 1, and p = 1 (mod 4) when 4 | d (Capelli; Lidl-Niederreiter,
    Finite Fields, Thm 3.75)."""
    return (all((p - 1) % q == 0 for q in range(2, d + 1) if d % q == 0 and is_prime(q))
            and (d % 4 != 0 or p % 4 == 1))


def find_irreducible(p: int, d: int):
    """Smallest monic irreducible of degree d over F_p in lexicographic order.

    Coefficients (c_0, ..., c_{d-1}) of the non-leading part are enumerated
    in lexicographic order with c_{d-1} varying slowest, so the choice is
    deterministic for a given (p, d).  The p binomials x^d + c_0 come first;
    they are skipped when none of them can be irreducible.
    """
    if d == 1:
        return (0, 1)
    # counter encodes the lower coefficients base p, least significant = c_0
    for counter in range(0 if _has_irreducible_binomial(p, d) else p, p ** d):
        coeffs = []
        c = counter
        for _ in range(d):
            coeffs.append(c % p)
            c //= p
        m = coeffs + [1]
        if is_irreducible(m, p):
            return tuple(m)
    raise Genus2Error(f"no irreducible polynomial of degree {d} over F_{p}")  # unreachable


def _ext_source(p, modulus) -> str:
    """Python source of add, sub, neg and mul on F_p[t]/(m), unrolled over
    the d coefficients.  Product coefficient k is h_k = sum a_i b_(k-i); for
    k >= d it is folded back through the row t^k mod m, whose entries are
    constants in (-p/2, p/2], and each output coefficient gets one reduction
    mod p.  Only the int() values of p and m reach the source."""
    p = int(p)
    m = [int(c) % p for c in modulus]
    d = len(m) - 1
    rows, row = [], [-c % p for c in m[:d]]         # row = t^d mod m
    for _ in range(d - 1):
        rows.append([c - p if 2 * c > p else c for c in row])
        row = [((row[i - 1] if i else 0) - row[-1] * m[i]) % p for i in range(d)]
    lin = lambda terms: " + ".join(x if c == 1 else f"{c}*{x}" for c, x in terms if c)
    prod = lambda k: lin((1, f"a{i}*b{k - i}") for i in range(max(0, k - d + 1), min(k, d - 1) + 1))
    each = lambda f: "(" + ", ".join(f"({f(i)}) % {p}" for i in range(d)) + ")"
    fold = lambda j: lin([(1, prod(j))] + [(r[j], f"h{k + d}") for k, r in enumerate(rows)])
    a, b = (", ".join(f"{x}{i}" for i in range(d)) + f" = {x}" for x in "ab")
    return "\n".join([
        f"def add(a, b):\n    {a}\n    {b}\n    return {each(lambda i: f'a{i} + b{i}')}",
        f"def sub(a, b):\n    {a}\n    {b}\n    return {each(lambda i: f'a{i} - b{i}')}",
        f"def neg(a):\n    {a}\n    return {each(lambda i: f'-a{i}')}",
        f"def mul(a, b):\n    {a}\n    {b}",
        *(f"    h{k} = {prod(k)}" for k in range(d, 2 * d - 1)),
        f"    return {each(fold)}\n"])


def _ring_ops(kind, p, modulus):
    """(add, sub, neg, mul) on raw values of one field."""
    if kind == "rational":
        return operator.add, operator.sub, operator.neg, operator.mul
    if kind == "prime":
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a: -a % p, lambda a, b: a * b % p)
    ops = {}
    exec(_ext_source(p, modulus), ops)
    return ops["add"], ops["sub"], ops["neg"], ops["mul"]


# ---------------------------------------------------------------------------


class Field:
    """A concrete exact field: F_p, F_p[t]/(m(t)), or Q.

    Construct through :meth:`prime`, :meth:`extension`, or :meth:`rationals`.
    Instances are immutable and hashable by construction data.  The ring
    operations ``add``, ``sub``, ``neg`` and ``mul`` are attributes bound at
    construction: generated straight-line code over F_p[t]/(m), exact for
    every p.
    """

    def __init__(self, kind, p=0, modulus=None):
        if kind not in ("prime", "ext", "rational"):
            raise ValueError(kind)
        self.kind = kind
        self.p = p
        self.modulus = modulus  # tuple, constant first, monic, for "ext"
        if kind != "rational":
            if not is_prime(p):
                raise Genus2Error(f"{p} is not prime")
            if p == 2:
                raise Genus2Error("characteristic 2 is not supported")
        if kind == "rational":
            self.deg = 1
            self.order = None
        elif kind == "prime":
            self.deg = 1
            self.order = p
        else:
            if modulus is None or len(modulus) < 3 or modulus[-1] != 1:
                raise Genus2Error("extension modulus must be monic of degree >= 2")
            if not is_irreducible(modulus, p):
                raise Genus2Error("extension modulus is reducible")
            self.deg = len(modulus) - 1
            self.order = p ** self.deg
        self.add, self.sub, self.neg, self.mul = _ring_ops(kind, p, modulus)
        self.coerce = self._coercer()
        self._red = None          # cached numpy reduction matrix
        self._frob = {}           # cached Frobenius matrices, by power mod deg
        self._nonres = None       # cached quadratic non-residue

    # -- constructors ------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "Field":
        return Field("prime", p)

    @staticmethod
    def extension(p: int, d: int, modulus=None) -> "Field":
        if d == 1 and modulus is None:
            return Field.prime(p)
        if modulus is None:
            modulus = find_irreducible(p, d)
        return Field("ext", p, tuple(int(c) % p for c in modulus))

    @staticmethod
    def rationals() -> "Field":
        return Field("rational")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.kind == other.kind
                and self.p == other.p and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.p, self.modulus))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"F{self.p}"
        return f"F{self.p}^{self.deg}"

    @property
    def char(self):
        return 0 if self.kind == "rational" else self.p

    def is_finite(self):
        return self.kind != "rational"

    # -- raw arithmetic ----------------------------------------------------

    def zero(self):
        if self.kind == "prime":
            return 0
        if self.kind == "ext":
            return (0,) * self.deg
        return Fraction(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.kind == "prime":
            return n % self.p
        if self.kind == "ext":
            return (n % self.p,) + (0,) * (self.deg - 1)
        return Fraction(n)

    def _coercer(self):
        """The bound ``coerce``: the field's own raw type passes at once (an
        int reduced mod p over F_p, a d-tuple over F_{p^d}, a Fraction over
        Q); anything else goes through :meth:`_coerce`."""
        slow = self._coerce
        if self.kind == "prime":
            p = self.p
            return lambda v: v % p if type(v) is int else slow(v)
        if self.kind == "ext":
            d = self.deg
            return lambda v: v if type(v) is tuple and len(v) == d else slow(v)
        return lambda v: v if type(v) is Fraction else slow(v)

    def _coerce(self, v):
        """Raw value from int, Fraction, FieldElem, or raw representation."""
        if isinstance(v, FieldElem):
            if v.field is not self and v.field != self:
                raise Genus2Error(f"element of {v.field} used in {self}")
            return v.v
        if isinstance(v, bool):
            raise Genus2Error("bool is not a field element")
        if isinstance(v, int):
            return self.from_int(v)
        if self.kind == "rational" and isinstance(v, Fraction):
            return v
        if self.kind == "ext" and isinstance(v, tuple) and len(v) == self.deg:
            return v
        raise Genus2Error(f"cannot coerce {v!r} into {self}")

    def is_zero(self, a):
        if self.kind == "ext":
            return not any(a)
        return a == 0

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError(f"inversion of zero in {self}")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        if self.kind == "rational":
            return 1 / a
        # a^-1 = r / N(a) with r = a^(p + ... + p^(d-1)) = Frob(N_(d-1)), from
        # N_k = a^(1 + p + ... + p^(k-1)): N_2k = N_k Frob^k(N_k) and
        # N_(k+1) = a Frob(N_k) (Itoh-Tsujii); the norm N(a) = a r is in F_p
        N, k = a, 1
        for bit in bin(self.deg - 1)[3:]:
            N, k = self.mul(N, self.frobenius(N, k)), 2 * k
            if bit == "1":
                N, k = self.mul(a, self.frobenius(N, 1)), k + 1
        r = self.frobenius(N, 1)
        p = self.p
        c = pow(self.mul(a, r)[0], p - 2, p)
        return tuple(x * c % p for x in r)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pw(self, a, e: int):
        if e < 0:
            return self.pw(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def eq(self, a, b):
        return a == b

    # -- order, iteration, randomness ---------------------------------------

    def key(self, a):
        """Canonical sort key: residue / coefficient tuple / numeric value."""
        if self.kind == "prime":
            return (a,)
        if self.kind == "ext":
            return a
        return a

    def elements(self):
        """Iterate all elements in canonical order. Finite fields only."""
        if self.kind == "prime":
            yield from range(self.p)
        elif self.kind == "ext":
            p, d = self.p, self.deg
            for counter in range(self.order):
                coeffs = []
                c = counter
                for _ in range(d):
                    coeffs.append(c % p)
                    c //= p
                # counter base-p digits give c_{d-1} fastest when reversed;
                # iterate most-significant last so order is lexicographic
                yield tuple(reversed(coeffs))
        else:
            raise Genus2Error("cannot enumerate Q")

    def rand(self, rng):
        if self.kind == "prime":
            return rng.randrange(self.p)
        if self.kind == "ext":
            return tuple(rng.randrange(self.p) for _ in range(self.deg))
        return Fraction(rng.randrange(-10, 11), rng.randrange(1, 11))

    # -- powers of Frobenius -------------------------------------------------

    def frobenius_matrix(self, times: int = 1):
        """Rows of the F_p-linear map a -> a^(p^times) on coefficient tuples
        of an extension field, as a d x d tuple of ints; built once per
        power mod d.  Column i is the image of t^i, that is (t^(p^times))^i."""
        times %= self.deg
        if times not in self._frob:
            tq = self.pw((0, 1) + (0,) * (self.deg - 2), self.p ** times)
            cols = [self.one()]
            for _ in range(self.deg - 1):
                cols.append(self.mul(cols[-1], tq))
            self._frob[times] = tuple(zip(*cols))
        return self._frob[times]

    def frobenius(self, a, times: int = 1):
        """a^(p^times), by the cached matrix in Python ints; identity on
        prime fields and on Q."""
        if self.kind != "ext":
            return a
        p, mul = self.p, operator.mul
        return tuple([sum(map(mul, row, a)) % p for row in self.frobenius_matrix(times)])

    # -- square roots --------------------------------------------------------

    def is_square(self, a):
        if self.kind == "rational":
            return a >= 0 and _fraction_sqrt(a) is not None
        if self.is_zero(a):
            return True
        return self.eq(self.pw(a, (self.order - 1) // 2), self.one())

    def sqrt(self, a):
        """Canonical square root (smaller of the two under key), or None.

        Tonelli-Shanks over F_q, with the exponentiation shortcut when
        q = 3 (mod 4).  Over Q only perfect squares of the stored fraction
        are recognized.
        """
        if self.kind == "rational":
            return _fraction_sqrt(a)
        if self.is_zero(a):
            return a
        q = self.order
        if not self.eq(self.pw(a, (q - 1) // 2), self.one()):
            return None
        if q % 4 == 3:
            r = self.pw(a, (q + 1) // 4)
        else:
            r = self._tonelli(a)
        r2 = self.neg(r)
        return r if self.key(r) <= self.key(r2) else r2

    def _non_residue(self):
        """Deterministic cached quadratic non-residue.

        Prime-subfield scalars are always squares in even-degree extensions,
        so the scan mixes in the generator first.  The choice never affects
        sqrt output (the canonical root is picked afterwards), only speed.
        """
        if self._nonres is None:
            q = self.order
            candidates = self.elements()
            if self.kind == "ext":
                def gen():
                    for c in range(self.p):
                        yield (c, 1) + (0,) * (self.deg - 2)
                    yield from self.elements()
                candidates = gen()
            for cand in candidates:
                if not self.is_zero(cand) and \
                        not self.eq(self.pw(cand, (q - 1) // 2), self.one()):
                    self._nonres = cand
                    break
        return self._nonres

    def _tonelli(self, a):
        q = self.order
        s, t = 0, q - 1
        while t % 2 == 0:
            t //= 2
            s += 1
        c = self.pw(self._non_residue(), t)
        r = self.pw(a, (t + 1) // 2)
        u = self.pw(a, t)
        m = s
        one = self.one()
        while not self.eq(u, one):
            # find least i with u^(2^i) = 1
            i, v = 0, u
            while not self.eq(v, one):
                v = self.mul(v, v)
                i += 1
            b = self.pw(c, 1 << (m - i - 1))
            r = self.mul(r, b)
            c = self.mul(b, b)
            u = self.mul(u, c)
            m = i
        return r

    # -- serialization --------------------------------------------------------

    def fmt(self, a) -> str:
        """Decimal-string form used in all JSON output."""
        if self.kind == "prime":
            return str(a)
        if self.kind == "rational":
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return ",".join(str(c) for c in a)

    def parse(self, s: str):
        if self.kind == "prime":
            return int(s) % self.p
        if self.kind == "rational":
            return Fraction(s)
        parts = [int(c) % self.p for c in str(s).split(",")]
        parts += [0] * (self.deg - len(parts))
        return tuple(parts[: self.deg])

    def spec_string(self) -> str:
        """Field spec as understood by the CLI: Q, F<p>, or F<p>^<d>."""
        return repr(self)


def _fraction_sqrt(a: Fraction):
    if a < 0:
        return None
    import math
    rn = math.isqrt(a.numerator)
    rd = math.isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


def parse_field_spec(spec: str) -> Field:
    """Parse "Q", "F<p>", or "F<p>^<d>" with d >= 1."""
    spec = spec.strip()
    if spec == "Q":
        return Field.rationals()
    m = re.fullmatch(r"F([0-9]+)(?:\^([0-9]+))?", spec)
    d = int(m[2] or 1) if m else 0
    if d < 1:
        raise Genus2Error(f"bad field spec {spec!r}: expected Q, F<p> or F<p>^<d>")
    return Field.extension(int(m[1]), d)


class FieldElem:
    """A field element: raw value + owning field, with operator sugar."""

    __slots__ = ("field", "v")

    def __init__(self, field: Field, v):
        self.field = field
        self.v = field.coerce(v)

    def _new(self, v):
        """An element of the same field from a raw result of its own
        arithmetic, which needs no coercion."""
        out = object.__new__(FieldElem)
        out.field = self.field
        out.v = v
        return out

    def _rhs(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise Genus2Error("mixed fields")
            return other.v
        return self.field.coerce(other)

    def __add__(self, other):
        return self._new(self.field.add(self.v, self._rhs(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.field.sub(self.v, self._rhs(other)))

    def __rsub__(self, other):
        return self._new(self.field.sub(self._rhs(other), self.v))

    def __mul__(self, other):
        return self._new(self.field.mul(self.v, self._rhs(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._new(self.field.div(self.v, self._rhs(other)))

    def __rtruediv__(self, other):
        return self._new(self.field.div(self._rhs(other), self.v))

    def __pow__(self, e):
        return self._new(self.field.pw(self.v, e))

    def __neg__(self):
        return self._new(self.field.neg(self.v))

    def __eq__(self, other):
        if isinstance(other, (int, FieldElem, Fraction)):
            return self.field.eq(self.v, self._rhs(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.v))

    def __bool__(self):
        return not self.field.is_zero(self.v)

    def __repr__(self):
        return f"{self.field.fmt(self.v)}"

    def key(self):
        return self.field.key(self.v)
