"""The algebra L = k[X]/f for a sextic f, its distinguished bases and
matrices, and the combinatorics of root subsets.

Conventions fixed here and used everywhere else:

* Roots are labelled 0..5 in the canonical element order of the splitting
  field; a subset of roots is a 6-bit mask (bit i = root i).
* ``R`` is the matrix of multiplication by X on the power basis
  (1, X, ..., X^5); its characteristic polynomial is f/f6.
* ``T`` is the symmetric Hankel matrix T[i][j] = f_{i+j+1}; its columns are
  the reversal basis g_1, ..., g_6 (g_i = f_i + f_{i+1} X + ... + f_6 X^{6-i})
  written on the power basis.
* ``S`` is the 6x6 Vandermonde matrix S[i][j] = w_j^i over the splitting
  field, and lambda_w = f'(w)/f6 = prod_{t != w} (w - t).

Nonzero two-torsion points of the Jacobian correspond to unordered pairs of
roots; even masks modulo complement represent the full two-torsion group.
The pairing (-1)^(#intersection) on masks computes the Weil pairing.
"""

from __future__ import annotations

from .errors import Genus2Error, MissingRoots, OddMask
from .fields import Field
from .linalg import Mat
from .poly import (Poly, _lift, resultant, roots_in_field,
                   splitting_field_and_roots)

FULL_MASK = 0b111111


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_bits(m: int):
    return [i for i in range(6) if m >> i & 1]


def popcount(m: int) -> int:
    return bin(m & FULL_MASK).count("1")


def weil_pairing(P: "TwoTorsionPoint", Q: "TwoTorsionPoint") -> int:
    """(-1)^(#intersection of the two root pairs); identity pairs trivially."""
    return -1 if popcount(P.mask & Q.mask) % 2 else 1


def character_chi(I: int, m: int) -> int:
    """Value at the even mask m of the character attached to the subset I."""
    if popcount(m) % 2:
        raise OddMask(f"mask {m:06b} has odd cardinality")
    return -1 if popcount(I & m) % 2 else 1


def alpha_sign(m: int) -> int:
    """(-1)^(#m / 2) for an even mask m."""
    n = popcount(m)
    if n % 2:
        raise OddMask(f"mask {m:06b} has odd cardinality")
    return -1 if (n // 2) % 2 else 1


class TwoTorsionPoint:
    """A two-torsion point: mask of cardinality 0 (identity) or 2."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        mask &= FULL_MASK
        if popcount(mask) not in (0, 2):
            raise Genus2Error("two-torsion representative must have 0 or 2 roots")
        self.mask = mask

    @staticmethod
    def identity() -> "TwoTorsionPoint":
        return TwoTorsionPoint(0)

    @staticmethod
    def from_even_mask(m: int) -> "TwoTorsionPoint":
        """Canonical representative of an even mask modulo complement."""
        m &= FULL_MASK
        n = popcount(m)
        if n % 2:
            raise OddMask(f"mask {m:06b} has odd cardinality")
        if n > 2:
            m ^= FULL_MASK
        return TwoTorsionPoint(m)

    def is_identity(self) -> bool:
        return self.mask == 0

    def __add__(self, other: "TwoTorsionPoint") -> "TwoTorsionPoint":
        return TwoTorsionPoint.from_even_mask(self.mask ^ other.mask)

    def __eq__(self, other):
        return isinstance(other, TwoTorsionPoint) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        if self.mask == 0:
            return "O"
        return "P{%s}" % ",".join(str(i + 1) for i in mask_bits(self.mask))

    def root_indices(self):
        return mask_bits(self.mask)


def all_two_torsion():
    """The 15 nonzero two-torsion points in a fixed deterministic order."""
    out = []
    for i in range(6):
        for j in range(i + 1, 6):
            out.append(TwoTorsionPoint(mask_of([i, j])))
    return out


def even_masks(nontrivial_only=False):
    """The 32 even masks (or the 31 other than the empty one)."""
    masks = [m for m in range(64) if popcount(m) % 2 == 0]
    if nontrivial_only:
        masks = [m for m in masks if m != 0]
    return masks


class EtaleAlgebra:
    """L = k[X]/f with cached splitting data and distinguished matrices.

    Immutable after construction; safe to share.  ``field`` is the ground
    field of the curve, ``splitting`` a finite field containing all six
    roots (equal to ``field`` over Q with supplied rational roots).
    """

    def __init__(self, curve, splitting=None, roots=None, seed: int = 0):
        self.curve = curve
        self.field = curve.field
        f = curve.f
        if roots is not None:
            if splitting is None:
                splitting = self.field
            roots = list(roots)
            fk = f.map_field(splitting)
            for w in roots:
                if not splitting.is_zero(fk.evaluate(w)):
                    raise MissingRoots("supplied value is not a root of f")
            if len(roots) != 6 or len(set(roots)) != 6:
                raise MissingRoots("need six distinct roots")
            roots.sort(key=splitting.key)
        elif self.field.kind == "rational":
            raise MissingRoots("over Q the six roots must be supplied")
        elif splitting is not None:
            roots = roots_in_field(f, splitting, seed=seed)
        else:
            splitting, roots = splitting_field_and_roots(f, seed=seed)
        self.splitting = splitting
        self.roots = roots

        k, K = self.field, self.splitting
        f6 = f.coeff(6)
        # R: multiplication by X on the power basis (last column -f_i/f6)
        rows = [[k.zero()] * 6 for _ in range(6)]
        for j in range(5):
            rows[j + 1][j] = k.one()
        inv6 = k.inv(f6)
        for i in range(6):
            rows[i][5] = k.neg(k.mul(f.coeff(i), inv6))
        self.R = Mat(k, rows)
        # T: Hankel matrix of the reversal basis
        self.T = Mat(k, [[f.coeff(i + j + 1) if i + j + 1 <= 6 else k.zero()
                          for j in range(6)] for i in range(6)])
        # S: Vandermonde of the ordered roots, over the splitting field
        self.S = Mat(K, [[K.pw(w, i) for w in roots] for i in range(6)])
        self.S_inv = self.S.inv()
        fK = f.map_field(K)
        dfK = fK.derivative()
        inv6K = K.inv(fK.coeff(6))
        self.lambdas = [K.mul(dfK.evaluate(w), inv6K) for w in roots]
        # Frobenius permutation on root labels (finite fields only)
        if K.is_finite():
            lookup = {K.key(w): i for i, w in enumerate(roots)}
            self.frob_perm = [lookup[K.key(K.frobenius(w))] for w in roots]
        else:
            self.frob_perm = list(range(6))
        # powers R^0..R^7 are used throughout the P^5 models
        self.R_pows = [Mat.identity(k, 6)]
        for _ in range(7):
            self.R_pows.append(self.R_pows[-1] * self.R)

    # -- elements -------------------------------------------------------------

    def elem(self, coeffs, field=None) -> "LVec":
        F = field if field is not None else self.field
        return LVec(self, F, [F.coerce(v) for v in coeffs])

    def one(self, field=None) -> "LVec":
        F = field if field is not None else self.field
        return self.elem([1, 0, 0, 0, 0, 0], F)

    def x(self, field=None) -> "LVec":
        F = field if field is not None else self.field
        return self.elem([0, 1, 0, 0, 0, 0], F)

    def from_poly(self, g: Poly, field=None) -> "LVec":
        F = field if field is not None else g.field
        g = g.map_field(F)
        rem = g % self.curve.f.map_field(F)
        return self.elem([rem.coeff(i) for i in range(6)], F)

    # -- mask action of Frobenius ----------------------------------------------

    def frobenius_mask(self, m: int) -> int:
        out = 0
        for i in mask_bits(m):
            out |= 1 << self.frob_perm[i]
        return out


class LVec:
    """Element of L with an explicit coefficient field (ground or splitting)."""

    __slots__ = ("algebra", "field", "c")

    def __init__(self, algebra: EtaleAlgebra, field: Field, coeffs):
        if len(coeffs) != 6:
            raise Genus2Error("need 6 coefficients")
        self.algebra = algebra
        self.field = field
        self.c = [field.coerce(v) for v in coeffs]

    def _poly(self) -> Poly:
        return Poly(self.field, self.c)

    def _modulus(self) -> Poly:
        return self.algebra.curve.f.map_field(self.field)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, LVec):
            if other.field != F:
                raise Genus2Error("mixed coefficient fields in L")
            rem = (self._poly() * other._poly()) % self._modulus()
            return LVec(self.algebra, F, [rem.coeff(i) for i in range(6)])
        v = F.coerce(other)
        return LVec(self.algebra, F, [F.mul(a, v) for a in self.c])

    __rmul__ = __mul__

    def __add__(self, other):
        F = self.field
        return LVec(self.algebra, F, [F.add(a, b) for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        F = self.field
        return LVec(self.algebra, F, [F.sub(a, b) for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return LVec(self.algebra, self.field, [self.field.neg(a) for a in self.c])

    def __eq__(self, other):
        return (isinstance(other, LVec) and self.field == other.field
                and self.c == other.c)

    def __repr__(self):
        return "L[" + ", ".join(self.field.fmt(v) for v in self.c) + "]"

    def is_zero(self) -> bool:
        return all(self.field.is_zero(v) for v in self.c)

    def norm(self):
        """N(a) = prod_w a(w), computed as Res(f, a)/f6^deg(a) without roots."""
        F = self.field
        a = self._poly()
        if a.is_zero():
            return F.zero()
        f = self._modulus()
        res = resultant(f, a)
        return F.div(res, F.pw(f.coeff(6), a.degree))

    def phi(self, i: int):
        """Evaluation at the i-th root, in the splitting field."""
        K = self.algebra.splitting
        w = self.algebra.roots[i]
        acc = K.zero()
        for coef in reversed(self.c):
            acc = K.add(K.mul(acc, w), _lift(self.field, K, coef))
        return acc

    def inverse(self) -> "LVec":
        g, s, _ = self._poly().xgcd(self._modulus())
        if g.degree != 0:
            raise ZeroDivisionError("element is a zero divisor in L")
        s = s * self.field.inv(g.coeff(0))
        rem = s % self._modulus()
        return LVec(self.algebra, self.field, [rem.coeff(i) for i in range(6)])

    def square(self) -> "LVec":
        return self * self

    def to_strings(self):
        return [self.field.fmt(v) for v in self.c]
