import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers.errors import Genus2Error
from genus2covers.fields import Field, FieldElem, parse_field_spec
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
