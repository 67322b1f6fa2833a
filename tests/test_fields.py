import functools
import io
import itertools
import random
import tokenize
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.errors import Genus2Error
from genus2covers.fields import (Field, FieldElem, _ext_source, _has_irreducible_binomial,
                                  find_irreducible, is_irreducible, is_prime,
                                  parse_field_spec)
from genus2covers.linalg import frobenius_fixed_values


def test_prime_field_rejects_composite_and_char_two():
    with pytest.raises(Genus2Error):
        Field.prime(91)
    with pytest.raises(Genus2Error):
        Field.prime(2)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for F in (Field.prime(101), Field.extension(7, 3), Field.rationals()):
        for _ in range(1000):
            a, b, c = F.rand(rng), F.rand(rng), F.rand(rng)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one()
            assert F.add(a, F.neg(a)) == F.zero()


def test_extension_modulus_is_verified():
    # x^2 - 1 = (x-1)(x+1) is reducible mod 7
    with pytest.raises(Genus2Error):
        Field("ext", 7, (6, 0, 1))
    K = Field.extension(7, 2)
    assert K.order == 49
    assert len(list(K.elements())) == 49


def test_sqrt_examples():
    F7 = Field.prime(7)
    assert F7.sqrt(0) == 0
    assert F7.sqrt(4) == 2  # canonical pick of {2, 5}
    # 3 is a non-residue mod 7: squares are {0, 1, 2, 4}
    squares = sorted({x * x % 7 for x in range(7)})
    assert 3 not in squares
    assert F7.sqrt(3) is None


def test_sqrt_census_small_fields():
    for F in (Field.prime(13), Field.extension(5, 2), Field.extension(7, 2)):
        with_root = 0
        for a in F.elements():
            r = F.sqrt(a)
            if r is not None:
                assert F.mul(r, r) == a
                # canonical: the returned root is the smaller of the pair
                assert F.key(r) <= F.key(F.neg(r))
                with_root += 1
        # 0 plus (q-1)/2 nonzero squares
        assert with_root == 1 + (F.order - 1) // 2


def test_canonical_order_is_total_and_deterministic():
    K = Field.extension(3, 2)
    elems = list(K.elements())
    keys = [K.key(e) for e in elems]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_frobenius_fixes_prime_subfield():
    K = Field.extension(11, 3)
    for n in range(11):
        assert K.frobenius(K.from_int(n)) == K.from_int(n)
    rng = random.Random(0)
    for _ in range(20):
        a = K.rand(rng)
        assert K.frobenius(a, 3) == a


# At p = 2^31 - 1, d = 2 and d = 4 are past the int64 bound d (p-1)^2 < 2^63
# of the batched check, which then runs on an object array of Python ints.
# The d = 4 modulus t^4 + t + 1 gives a Frobenius matrix that is not
# diagonal, so a value fixed by its square (in F_{p^2}) is mapped to itself
# only after reduction mod p.
_FROB_FIELDS = {(p, d): Field.extension(p, d)
                for p, d in [(101, 2), (2147483647, 2), (101, 6), (101, 8)]}
_FROB_FIELDS[2147483647, 4] = Field.extension(2147483647, 4, modulus=(1, 1, 0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(_FROB_FIELDS)))
def test_frobenius_matrix_matches_powering(data, key):
    """a -> a^(p^k) through the cached matrix equals pw(a, p^k) for every
    k < d, and the batched fixed-point check agrees on moved and fixed
    values (the orbit sum of a under the k-th power is fixed by it)."""
    p, d = key
    K = _FROB_FIELDS[key]
    a = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)))
    for k in range(d):
        image = K.pw(a, p ** k)
        assert K.frobenius(a, k) == image
        orbit_sum, term = K.zero(), a
        for _ in range(d):
            orbit_sum, term = K.add(orbit_sum, term), K.pw(term, p ** k)
        assert frobenius_fixed_values(K, [orbit_sum, K.from_int(p - 1)], k)
        assert frobenius_fixed_values(K, [orbit_sum, a], k) == (image == a)


def test_elem_wrapper_arithmetic():
    F = Field.prime(11)
    a = FieldElem(F, 5)
    assert (a + 7).v == 1
    assert (2 * a).v == 10
    assert (a / a).v == 1
    assert (-a).v == 6
    assert (a ** 3).v == pow(5, 3, 11)
    assert a == 5 and a != 6


@pytest.mark.parametrize("F", [Field.prime(101), Field.extension(7, 3), Field.rationals()],
                         ids=["F101", "F7^3", "Q"])
def test_coerce_fast_path_keeps_the_checks(F):
    """The bound coerce passes a field's own raw type straight through and
    sends everything else to the full checks, with their errors."""
    a = F.rand(random.Random(3))
    assert F.coerce(a) == a
    assert F.coerce(FieldElem(F, a)) == a
    assert F.coerce(-1) == F.neg(F.one())
    assert F.coerce(205) == F.from_int(205)
    other = Field.prime(103)
    for bad in (True, 1.0, [1], (1,) * (F.deg + 1), FieldElem(other, 1)):
        with pytest.raises(Genus2Error):
            F.coerce(bad)
    if F.kind == "rational":
        assert F.coerce(Fraction(1, 3)) == Fraction(1, 3)
    else:
        with pytest.raises(Genus2Error):
            F.coerce(Fraction(1, 3))
    x = FieldElem(F, a) * 3 - 1
    assert type(x) is FieldElem and x.field is F
    assert x.v == F.sub(F.mul(a, F.from_int(3)), F.one())


def test_parse_field_spec_roundtrip():
    for spec in ("Q", "F101", "F7^3"):
        F = parse_field_spec(spec)
        assert F.spec_string() == spec


def test_format_parse_roundtrip():
    rng = random.Random(3)
    for F in (Field.prime(97), Field.extension(5, 4), Field.rationals()):
        for _ in range(50):
            a = F.rand(rng)
            assert F.parse(F.fmt(a)) == a


def test_rational_sqrt():
    Q = Field.rationals()
    assert Q.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert Q.sqrt(Fraction(2)) is None
    assert Q.sqrt(Fraction(-1)) is None


# -- generated ring operations against the schoolbook reference -----------------


def schoolbook_mul(p, m, a, b):
    """Product in F_p[t]/(m): the full product, then the terms of degree
    >= d folded back from the top through t^d = -(m_0 + ... + m_{d-1} t^{d-1})."""
    d = len(m) - 1
    full = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                full[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        c = full[k] % p
        if c:
            full[k] = 0
            for i in range(d):
                full[k - d + i] -= c * m[i]
    return tuple(x % p for x in full[:d])


_OPS_PRIMES = (3, 101, 1999, 2 ** 31 - 1, 4294967311)
_OPS_DEGREES = (2, 3, 4, 6, 8, 12)


@functools.lru_cache(maxsize=None)
def _ops_field(p, d):
    return Field.extension(p, d)


def _check_ops(K, a, b):
    p, m = K.p, K.modulus
    assert K.mul(a, b) == schoolbook_mul(p, m, a, b)
    assert K.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
    assert K.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert K.neg(a) == tuple(-x % p for x in a)


@st.composite
def _ops_case(draw):
    p = draw(st.sampled_from(_OPS_PRIMES))
    d = draw(st.sampled_from(_OPS_DEGREES))
    corners = st.sampled_from([(0,) * d, (1,) + (0,) * (d - 1), (p - 1,) * d])
    element = st.one_of(corners, st.lists(st.integers(0, p - 1), min_size=d,
                                          max_size=d).map(tuple))
    return p, d, draw(element), draw(element)


@settings(max_examples=300, deadline=None)
@given(case=_ops_case())
def test_generated_ext_ops_match_schoolbook(case):
    """mul/add/sub/neg of F_{p^d}, generated per field, against the plain
    schoolbook product and coefficientwise sums, for p from 3 to above 2^32."""
    p, d, a, b = case
    _check_ops(_ops_field(p, d), a, b)


@pytest.mark.parametrize("p", _OPS_PRIMES)
@pytest.mark.parametrize("d", _OPS_DEGREES)
def test_generated_ext_ops_on_corner_operands(p, d):
    """Zero, one and the all-(p-1) element, in every pair."""
    K = _ops_field(p, d)
    corners = [(0,) * d, (1,) + (0,) * (d - 1), (p - 1,) * d]
    for a in corners:
        for b in corners:
            _check_ops(K, a, b)
    assert K.mul(corners[2], corners[1]) == corners[2]
    assert K.add(corners[2], corners[1])[0] == 0


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(_OPS_PRIMES), data=st.data())
def test_prime_field_ops(p, data):
    F = Field.prime(p)
    a, b = (data.draw(st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)) for _ in "ab")
    assert (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b)) == (
        (a + b) % p, (a - b) % p, (p - a) % p, (a * b) % p)


@settings(max_examples=100, deadline=None)
@given(a=st.fractions(), b=st.fractions())
def test_rational_ops(a, b):
    Q = Field.rationals()
    assert (Q.add(a, b), Q.sub(a, b), Q.neg(a), Q.mul(a, b)) == (a + b, a - b, -a, a * b)


class _Loud(int):
    """An int whose text forms are Python code."""

    def __repr__(self):
        return "__import__('os')"

    __str__ = __repr__

    def __format__(self, spec):
        return repr(self)


def test_generated_source_holds_only_int_constants():
    """The source is built from int() of p and of the modulus: an int
    subclass with hostile text forms gives the same source, and every token
    is an operator, a decimal literal, a keyword of the four functions, or
    one of their local names."""
    for p, d in [(101, 4), (4294967311, 8), (3, 12)]:
        m = _ops_field(p, d).modulus
        src = _ext_source(p, m)
        assert _ext_source(_Loud(p), [_Loud(c) for c in m]) == src
        names = set()
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.NAME:
                names.add(tok.string)
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit()
            elif tok.type == tokenize.OP:
                assert tok.string in {"(", ")", ",", ":", "=", "+", "-", "*", "%"}
            else:
                assert tok.type in {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                                    tokenize.DEDENT, tokenize.ENDMARKER}
        local = {f"{x}{i}" for x in "ab" for i in range(d)} | {f"h{k}" for k in range(d, 2 * d)}
        assert names <= {"def", "return", "add", "sub", "neg", "mul", "a", "b"} | local


# -- plain references over F_p: coefficient lists, constant term first ------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def plain_divmod(a, b, p):
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv % p, len(a) - len(b)
        q[shift] = c
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
        _trim(a)
    return _trim(q), a


def plain_mul(a, b, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] = (res[i + j] + x * y) % p
    return _trim(res)


def plain_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def plain_powmod(a, e, m, p):
    result, base = [1], plain_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = plain_divmod(plain_mul(result, base, p), m, p)[1]
        base = plain_divmod(plain_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def plain_is_irreducible(m, p):
    """Rabin's test: x^(p^d) = x mod m, and gcd(x^(p^(d/l)) - x, m) = 1 for
    every prime l | d."""
    d = len(m) - 1
    x = plain_divmod([0, 1], m, p)[1]
    if d < 1 or plain_sub(plain_powmod(x, p ** d, m, p), x, p):
        return False
    for ell in (q for q in range(2, d + 1) if d % q == 0 and is_prime(q)):
        a, b = list(m), plain_sub(plain_powmod(x, p ** (d // ell), m, p), x, p)
        while b:
            a, b = b, plain_divmod(a, b, p)[1]
        if len(a) != 1:
            return False
    return True


def plain_inv(F, a):
    """a^-1 in F_p[t]/(m) by the extended Euclidean algorithm on a and m."""
    p = F.p
    r0, r1, s0, s1 = list(F.modulus), _trim(list(a)), [], [1]
    while len(r1) > 1:
        q, rem = plain_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, plain_sub(s0, plain_mul(q, s1, p), p)
    c = pow(r1[0], p - 2, p)
    return tuple([x * c % p for x in s1] + [0] * (F.deg - len(s1)))


# -- irreducibility and the modulus search -------------------------------------


def test_is_irreducible_matches_rabin_on_every_small_monic():
    """Every monic of degree 2 to 4 over F_3 and F_5, squares of
    irreducibles such as (x^2 + 1)^2 over F_3 among them; the irreducible
    ones number (1/n) sum_(e | n) mu(e) q^(n/e)."""
    counts = {(3, 2): 3, (3, 3): 8, (3, 4): 18, (5, 2): 10, (5, 3): 40, (5, 4): 150}
    for (p, d), count in counts.items():
        found = 0
        for low in itertools.product(range(p), repeat=d):
            m = list(low) + [1]
            assert is_irreducible(m, p) == plain_is_irreducible(m, p), (p, m)
            found += is_irreducible(m, p)
        assert found == count, (p, d)
    assert not is_irreducible([1, 0, 2, 0, 1], 3)      # (x^2 + 1)^2
    assert is_irreducible([1, 0, 1], 3)


@pytest.mark.parametrize("p, d", [(101, 8), (2 ** 31 - 1, 4)])
def test_is_irreducible_matches_rabin_on_random_moduli(p, d):
    """Seeded random monics of degree d, and the squares and products of
    random irreducibles of degree d/2."""
    rng = random.Random(p + d)
    cases = [[rng.randrange(p) for _ in range(d)] + [1] for _ in range(60)]
    halves = [m for m in ([rng.randrange(p) for _ in range(d // 2)] + [1] for _ in range(80))
              if plain_is_irreducible(m, p)]
    assert len(halves) >= 4
    cases += [plain_mul(a, b, p) for a, b in zip(halves, halves[1:] + halves[:1])]
    cases += [plain_mul(a, a, p) for a in halves]
    verdicts = [plain_is_irreducible(m, p) for m in cases]
    assert [is_irreducible(m, p) for m in cases] == verdicts
    assert True in verdicts and False in verdicts


def plain_find_irreducible(p, d):
    """The lexicographic scan with no skip: c_0 fastest, from x^d."""
    for counter in range(p ** d):
        coeffs, c = [], counter
        for _ in range(d):
            coeffs.append(c % p)
            c //= p
        if plain_is_irreducible(coeffs + [1], p):
            return tuple(coeffs + [1])


def test_find_irreducible_matches_plain_scan():
    grid = [(p, d) for p in range(3, 120) if is_prime(p)
            for d in range(2, 9 if p < 40 else 6)]
    for p, d in grid:
        assert find_irreducible(p, d) == plain_find_irreducible(p, d), (p, d)


def test_binomial_criterion_matches_brute_force():
    for p in (q for q in range(3, 30) if is_prime(q)):
        for d in range(2, 7):
            brute = any(is_irreducible([c] + [0] * (d - 1) + [1], p) for c in range(p))
            assert _has_irreducible_binomial(p, d) == brute, (p, d)


@pytest.mark.parametrize("p", [40000003, 2 ** 31 - 1])
def test_degree4_modulus_for_p_3_mod_4_is_found_at_once(p):
    # p = 3 (mod 4): no x^4 + c is irreducible, and the scan starts at x^4 + x
    assert not _has_irreducible_binomial(p, 4)
    assert Field.extension(p, 4).modulus == (1, 1, 0, 0, 1)


# -- inverses --------------------------------------------------------------------


INV_FIELDS = [(p, d) for p in (3, 5, 101, 1999, 2 ** 31 - 1) for d in range(2, 10)] \
    + [(4294967311, 2)]


@pytest.mark.parametrize("p, d", INV_FIELDS)
def test_inverse_matches_extended_euclid(p, d):
    """The norm-chain inverse equals the extended-Euclid one on random
    elements, the generator t and its top power, and the prime subfield;
    zero still has none."""
    F = Field.extension(p, d)
    rng = random.Random(p * d)
    t = (0, 1) + (0,) * (d - 2)
    elems = [F.rand(rng) for _ in range(12)] + [t, F.pw(t, d - 1)]
    elems += [F.from_int(c) for c in (1, 2, p - 1, rng.randrange(1, p))]
    for a in elems:
        if F.is_zero(a):
            continue
        inv = F.inv(a)
        assert inv == plain_inv(F, a), (p, d, a)
        assert F.mul(a, inv) == F.one()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())
