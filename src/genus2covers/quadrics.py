"""Quadratic forms on P^15 and the 72-dimensional space cutting out the
Jacobian.

The generators come in five families, kept in this fixed order:

1. 20 rank conditions k_{ij} k_{rs} = k_{ir} k_{js} (the Veronese image of
   P^3 inside the even coordinates);
2. one extra even quadric obtained from the Kummer quartic;
3. 15 odd quadrics k_j * Q_i, where Q_1..Q_4 are the entries of an explicit
   antisymmetric 4x4 matrix of odd linear forms applied to (k_1..k_4) and
   one product relation k_1 Q_1 + ... + k_4 Q_4 = 0 is discarded;
4. 15 more from the same construction with every b_i replaced by b_{i-1},
   where f_0 b_0 = -(f_1 b_1 + ... + f_6 b_6): the candidates of family 3
   composed with that substitution (``b_shift``), scaled by f_0;
5. 21 forms expressing each product b_i b_j as a quadratic in the k_{uv}:
   seven are hard-coded, the remaining fourteen are read from the kernel of
   the quadrics vanishing at 150 sampled classes (``sampled_kernel``).

The same reduction certifies the model: its kernel has dimension 72, and
the kernel's even-only part dimension 21.

Monomials are ordered (i, j), i <= j, over the 16 coordinates; a form maps
to its length-136 coefficient vector in that order for all linear algebra.
"""

from __future__ import annotations

import random

import numpy as np

from .curve import COORD_NAMES, CurveData, even_slot, random_point
from .errors import Genus2Error, InterpolationFailed
from .fields import Field
from .linalg import (Mat, block_diag, ext_matmul_np, ext_mul_arrays, fp_rref,
                     frobenius_fixed_values, from_np, mod_p, rank_rows,
                     rref_rows, to_np)

MONOMIALS = [(i, j) for i in range(16) for j in range(i, 16)]
MONO_INDEX = {m: n for n, m in enumerate(MONOMIALS)}
EVEN_MONOMIALS = [n for n, (i, j) in enumerate(MONOMIALS) if j < 10]   # 55
MIXED_MONOMIALS = [n for n, (i, j) in enumerate(MONOMIALS) if i < 10 <= j]  # 60
ODD_MONOMIALS = [n for n, (i, j) in enumerate(MONOMIALS) if i >= 10]   # 21


class QuadricForm:
    """Sparse symmetric quadratic form in the 16 projective coordinates.

    Stored as {(i, j): coeff} with i <= j; the value at a point v is
    sum coeff * v_i * v_j (so a symmetric-matrix off-diagonal entry a
    contributes 2a here).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=None):
        self.field = field
        self.coeffs = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                self.add_term(i, j, v)

    def add_term(self, i: int, j: int, v):
        if i > j:
            i, j = j, i
        F = self.field
        cur = self.coeffs.get((i, j), F.zero())
        new = F.add(cur, F.coerce(v))
        if F.is_zero(new):
            self.coeffs.pop((i, j), None)
        else:
            self.coeffs[(i, j)] = new

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, vec):
        F = self.field
        acc = F.zero()
        for (i, j), c in self.coeffs.items():
            acc = F.add(acc, F.mul(c, F.mul(vec[i], vec[j])))
        return acc

    def vector(self):
        """Length-136 coefficient vector in the fixed monomial order."""
        F = self.field
        out = [F.zero()] * len(MONOMIALS)
        for m, c in self.coeffs.items():
            out[MONO_INDEX[m]] = c
        return out

    @staticmethod
    def from_vector(field: Field, vec) -> "QuadricForm":
        q = QuadricForm(field)
        for n, c in enumerate(vec):
            if not field.is_zero(c):
                q.coeffs[MONOMIALS[n]] = c
        return q

    def scaled(self, s) -> "QuadricForm":
        F = self.field
        s = F.coerce(s)
        q = QuadricForm(F)
        for m, c in self.coeffs.items():
            v = F.mul(c, s)
            if not F.is_zero(v):
                q.coeffs[m] = v
        return q

    @staticmethod
    def from_odd_matrix(M: Mat) -> "QuadricForm":
        """The form b^t M b in the odd coordinates b_1..b_6, for a symmetric
        6x6 matrix M."""
        F = M.field
        q = QuadricForm(F)
        for i in range(6):
            for j in range(i, 6):
                c = M.rows[i][j] if i == j else F.mul(F.from_int(2), M.rows[i][j])
                q.add_term(10 + i, 10 + j, c)
        return q

    def map_field(self, G: Field) -> "QuadricForm":
        from .poly import _lift
        q = QuadricForm(G)
        for m, c in self.coeffs.items():
            q.coeffs[m] = _lift(self.field, G, c)
        return q

    def frobenius_fixed(self) -> bool:
        return frobenius_fixed_values(self.field, list(self.coeffs.values()))

    def to_json(self):
        entries = [[i, j, self.field.fmt(c)]
                   for (i, j), c in sorted(self.coeffs.items())]
        return {"vars": list(COORD_NAMES), "entries": entries}

    @staticmethod
    def from_json(field: Field, data) -> "QuadricForm":
        q = QuadricForm(field)
        for i, j, c in data["entries"]:
            i, j = int(i), int(j)
            if not (0 <= i < 16 and 0 <= j < 16):
                raise Genus2Error(f"coordinate index out of range in entry {[i, j, c]}")
            q.add_term(i, j, field.parse(str(c)))
        return q


# ---------------------------------------------------------------------------
# numpy-assisted evaluation helpers


_MONO_I = np.array([i for i, _ in MONOMIALS])
_MONO_J = np.array([j for _, j in MONOMIALS])


def monomial_array(K: Field, vecs, s: int):
    """The values of the 136 monomials at N 16-vectors over K, an (N, 136)
    array, (N, 136, d) over F_{p^d}: one product of columns of the stacked
    vectors (``ext_mul_arrays`` over an extension), in the dtype for a
    kernel that then sums s products (``to_np``)."""
    V = to_np(K, vecs, max(s, 2 * K.deg - 1))
    if K.kind == "ext":
        return ext_mul_arrays(K, V[:, _MONO_I], V[:, _MONO_J])
    return mod_p(K, V[:, _MONO_I] * V[:, _MONO_J])


def forms_vanish_at(forms, points_fields) -> bool:
    """Exact check that every form kills every point.

    ``forms`` share one coefficient field; ``points_fields`` is a list of
    (vec16, field) with a common point field that contains the coefficient
    field's image (F_p inside F_p^d, or equal fields).  The values are one
    product of the coefficient and monomial arrays: sums of 136 products,
    then over an extension the d^2-term ``redfold`` reduction of
    ``ext_matmul_np``.
    """
    if not forms or not points_fields:
        return True
    Fc = forms[0].field
    K = points_fields[0][1]
    s = max(len(MONOMIALS), K.deg ** 2)
    P = monomial_array(K, [vec for vec, _ in points_fields], s)
    C = to_np(Fc, [f.vector() for f in forms], s)
    if Fc.kind == "ext":
        return not np.any(ext_matmul_np(K, C, P.transpose(1, 0, 2)))
    return not np.any(mod_p(K, np.tensordot(C, P, axes=([1], [1]))))


# the monomials by coordinate parity, even.even, even.odd and odd.odd, and
# each monomial's (block, position in block)
_PARITY_BLOCKS = [np.array(b) for b in (EVEN_MONOMIALS, MIXED_MONOMIALS, ODD_MONOMIALS)]
_BLOCK_POS = {MONOMIALS[n]: (k, pos) for k, b in enumerate(_PARITY_BLOCKS)
              for pos, n in enumerate(b)}


def compose_forms(forms, M: Mat):
    """The forms v -> Q(M v) for forms Q over the field of the 16x16 M,
    block-diagonal on the ten even and the six odd coordinates.

    With x = M v, the coefficient of v_a v_b in x_i x_j is
    T[(i,j),(a,b)] = M_ia M_jb + M_ib M_ja for a < b and M_ia M_ja for a = b.
    M keeps each parity block of monomials (even.even, even.odd, odd.odd),
    so T is built only on those three diagonal blocks, 7,066 of its 18,496
    entries; on the even.odd block M_ib M_ja = 0.  A composed form is the
    sum of the rows of T at the form's nonzero coefficients, times those
    coefficients, and keeps the nonzero entries of that sum.  Each entry of
    T is a sum of single products (``ext_mul_arrays`` over F_{p^d}, 2d-1
    terms), so the arrays are int64 while (2d-1) (p-1)^2 < 2**63 and hold
    Python ints above that, or Fractions over Q (``to_np``).
    """
    F = M.field
    d = F.deg
    if F.kind == "ext":
        mul = lambda a, b: ext_mul_arrays(F, a, b)
    else:
        mul = lambda a, b: mod_p(F, a * b)
    # arrays carry a trailing coefficient axis of length d (1 over F_p and Q)
    Mn = to_np(F, M.rows, 2 * d - 1).reshape(16, 16, d)
    if Mn[:10, 10:].any() or Mn[10:, :10].any():
        raise Genus2Error("compose_forms needs M block-diagonal on the even and odd coordinates")
    blocks = []
    for k, b in enumerate(_PARITY_BLOCKS):
        I, J = _MONO_I[b], _MONO_J[b]
        T = mul(Mn[I[:, None], I], Mn[J[:, None], J])
        if k != 1:   # M_ib M_ja = 0 on the even.odd block
            T += mul(Mn[I[:, None], J], Mn[J[:, None], I]) * (I != J)[:, None]
            T = mod_p(F, T)
        blocks.append(T)
    acc = np.zeros((len(MONOMIALS), d), dtype=Mn.dtype)
    rows = acc if F.kind == "ext" else acc[..., 0]   # a view of acc
    out = []
    for q in forms:
        acc[:] = 0
        terms = [([], []) for _ in blocks]
        for m, c in q.coeffs.items():
            k, pos = _BLOCK_POS[m]
            terms[k][0].append(pos)
            terms[k][1].append(c)
        for b, T, (pos, coeffs) in zip(_PARITY_BLOCKS, blocks, terms):
            if pos:
                c = to_np(F, coeffs, 2 * d - 1).reshape(-1, 1, d)
                acc[b] = mod_p(F, mul(c, T[pos]).sum(axis=0))
        nz = np.nonzero(acc.any(axis=-1))[0]
        composed = QuadricForm(F)
        composed.coeffs = dict(zip([MONOMIALS[n] for n in nz], from_np(F, rows[nz][None])[0]))
        out.append(composed)
    return out


def independent_picks(field: Field, vectors):
    """Indices of the vectors a greedy pass in order keeps as independent:
    the pivot columns of one rref with the vectors as columns."""
    return rref_rows(field, [list(col) for col in zip(*vectors)])[1]


def select_independent(field: Field, forms, target: int):
    """First `target` forms, in order, whose vectors are independent."""
    picks = independent_picks(field, [f.vector() for f in forms])
    if len(picks) < target:
        raise Genus2Error(f"only {len(picks)} independent forms, wanted {target}")
    return [forms[i] for i in picks[:target]]


# ---------------------------------------------------------------------------
# the seven hardcoded products b_i b_j in terms of the k_{uv}
# each entry: (b-pair, lhs multiplier, [(k-pair, scale, f-indices), ...])
# where the coefficient is scale * f_{i1} * f_{i2} * ...

_LISTED_BB = [
    ((1, 1), 1, [((1, 1), 1, (2,)), ((1, 2), 1, (3,)), ((1, 4), 1, ()),
                 ((1, 33), 1, (6,)), ((2, 2), 1, (4,)), ((2, 3), -1, (5,)),
                 ((2, 22), 1, (5,)), ((3, 22), -2, (6,)), ((22, 22), 1, (6,))]),
    ((1, 2), 2, [((1, 1), -1, (1,)), ((1, 3), 1, (3,)), ((1, 23), 2, (4,)),
                 ((1, 24), 1, ()), ((1, 33), -1, (5,)), ((2, 33), -2, (6,)),
                 ((3, 22), 2, (5,)), ((22, 23), 2, (6,))]),
    ((2, 2), 1, [((1, 1), 1, (0,)), ((3, 3), 1, (4,)), ((3, 4), 1, ()),
                 ((3, 23), 1, (5,)), ((22, 33), 1, (6,))]),
    ((2, 3), 2, [((1, 2), 2, (0,)), ((1, 3), 1, (1,)), ((3, 3), -1, (3,)),
                 ((3, 24), 1, ()), ((3, 33), 1, (5,)), ((23, 33), 2, (6,))]),
    ((3, 3), 1, [((1, 22), 1, (0,)), ((1, 23), 1, (1,)), ((1, 33), 1, (2,)),
                 ((4, 33), 1, ()), ((33, 33), 1, (6,))]),
    ((3, 4), 2, [((1, 33), -1, (1,)), ((2, 3), -2, (0,)), ((2, 22), 2, (0,)),
                 ((2, 33), 2, (2,)), ((3, 22), 2, (1,)), ((3, 33), 1, (3,)),
                 ((24, 33), 1, ()), ((33, 33), -1, (5,))]),
    ((4, 4), 1, [((1, 33), 1, (0,)), ((3, 22), -2, (0,)), ((3, 23), -1, (1,)),
                 ((22, 22), 1, (0,)), ((22, 23), 1, (1,)), ((23, 23), 1, (2,)),
                 ((23, 33), 1, (3,)), ((33, 33), 1, (4,)), ((33, 34), 1, ())]),
]
# compact even-coordinate codes used in the tables: a single digit d means
# k_{1d} (so 1 is k_11, 4 is k_14), two digits ij mean k_{ij}


def listed_bb_forms(curve: CurveData):
    """The seven hardcoded forms mult * b_i b_j - (k-expression), one per
    row of the table."""
    F = curve.field
    forms = []
    for (bi, bj), mult, terms in _LISTED_BB:
        q = QuadricForm(F)
        q.add_term(9 + bi, 9 + bj, mult)
        for (ca, cb), scale, fidx in terms:
            coeff = F.from_int(scale)
            for t in fidx:
                coeff = F.mul(coeff, curve.coeffs[t])
            q.add_term(_kk_slot(ca), _kk_slot(cb), F.neg(coeff))
        forms.append(q)
    return forms


def _kk_slot(code: int) -> int:
    if code < 10:
        return even_slot(1, code)
    return even_slot(code // 10, code % 10)


LISTED_BB_PAIRS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
ALL_BB_PAIRS = [(i, j) for i in range(1, 7) for j in range(i, 7)]
UNLISTED_BB_PAIRS = [p for p in ALL_BB_PAIRS if p not in LISTED_BB_PAIRS]


class JacobianModel:
    """The 72 quadrics through the Jacobian in P^15, over the ground field.

    Construction reads the fourteen unlisted products b_i b_j and the
    dimensions of the sampled kernel, kept as ``kernel_dimensions`` (72,
    21), from one reduction at classes sampled over a small extension
    (``sampled_kernel``), then certifies the rank, kept as ``rank`` (72).
    Immutable afterwards.
    """

    def __init__(self, curve: CurveData, seed: int = 0):
        if not curve.field.is_finite():
            raise Genus2Error("quadric interpolation needs a finite ground field")
        self.curve = curve
        self.field = curve.field
        self.seed = seed
        self.veronese = veronese_quadrics(curve.field)
        self.kummer_even = kummer_image_quadric(curve)
        odd = odd_quadrics(curve)
        self.odd = select_independent(self.field, odd, 15)
        # the second family, cleared of the denominator f_0
        composed = compose_forms(odd, b_shift(curve))
        self.odd_b_shift = select_independent(
            self.field, [q.scaled(curve.coeffs[0]) for q in composed], 15)
        self.listed_bb = listed_bb_forms(curve)
        self.interpolated_bb, self.kernel_dimensions = sampled_kernel(curve, seed)
        self.forms = (self.veronese + [self.kummer_even] + self.odd
                      + self.odd_b_shift + self.listed_bb + self.interpolated_bb)
        if len(self.forms) != 72:
            raise Genus2Error(f"expected 72 generators, built {len(self.forms)}")
        self.rank = rank_rows(self.field, [f.vector() for f in self.forms])
        if self.rank != 72:
            raise Genus2Error("the 72 generators are not independent")
        self._bb_kk = None

    # -- public surface ---------------------------------------------------------

    def vanish_at(self, divisors) -> bool:
        pts = [(D.coords().v, D.field) for D in divisors]
        return forms_vanish_at(self.forms, pts)

    def bb_in_kk(self):
        """b_i b_j = quadratic(k_{uv}) for all 21 pairs, as even-monomial
        coefficient dicts (one valid representative each)."""
        if self._bb_kk is None:
            F = self.field
            table = {}
            for form in self.listed_bb + self.interpolated_bb:
                bpart = [(m, c) for m, c in form.coeffs.items() if m[0] >= 10]
                if len(bpart) != 1:
                    raise Genus2Error("bb form should carry a single odd monomial")
                (bi, bj), mult = bpart[0]
                inv = F.inv(mult)
                expr = {m: F.neg(F.mul(c, inv)) for m, c in form.coeffs.items()
                        if m[1] < 10}
                table[(bi - 9, bj - 9)] = expr
            self._bb_kk = table
        return self._bb_kk

    def bb_value(self, i: int, j: int, kvec4, K: Field = None):
        """b_i b_j evaluated at a P^3 point through the k-expressions.

        kvec4 holds raw values of (k_1..k_4) over K (default: ground field).
        """
        from .curve import EVEN_PAIRS
        from .poly import _lift
        if K is None:
            K = self.field
        expr = self.bb_in_kk()[(i, j) if i <= j else (j, i)]
        even_vals = [K.mul(kvec4[a - 1], kvec4[b - 1]) for (a, b) in EVEN_PAIRS]
        acc = K.zero()
        for (u, v), c in expr.items():
            term = K.mul(even_vals[u], even_vals[v])
            acc = K.add(acc, K.mul(_lift(self.field, K, c), term))
        return acc


def veronese_quadrics(field: Field):
    """Deterministic basis of the 20 rank conditions among the k_{ij}."""
    cands = []
    for i in range(1, 5):
        for j in range(1, 5):
            for r in range(1, 5):
                for s in range(1, 5):
                    q = QuadricForm(field)
                    q.add_term(even_slot(i, j), even_slot(r, s), 1)
                    q.add_term(even_slot(i, r), even_slot(j, s), -1)
                    if not q.is_zero():
                        cands.append(q)
    return select_independent(field, cands, 20)


def kummer_image_quadric(curve: CurveData) -> QuadricForm:
    """The even quadric induced by the Kummer quartic."""
    F = curve.field
    f = curve.coeffs
    q = QuadricForm(F)
    for (a, b), scale, fidx in _KUMMER_EVEN_TERMS:
        c = F.from_int(scale)
        for t in fidx:
            c = F.mul(c, f[t])
        q.add_term(_kk_slot(a), _kk_slot(b), c)
    return q


# terms of the extra even quadric: (k-code pair, integer scale, f indices)
_KUMMER_EVEN_TERMS = [
    ((11, 11), -4, (0, 2)), ((11, 11), 1, (1, 1)),
    ((11, 12), -4, (0, 3)),
    ((11, 13), -2, (1, 3)),
    ((11, 14), -4, (0,)),
    ((12, 12), -4, (0, 4)),
    ((12, 13), 4, (0, 5)), ((12, 13), -4, (1, 4)),
    ((11, 24), -2, (1,)),
    ((13, 13), -4, (0, 6)), ((13, 13), 2, (1, 5)), ((13, 13), -4, (2, 4)), ((13, 13), 1, (3, 3)),
    ((11, 34), -4, (2,)),
    ((12, 22), -4, (0, 5)),
    ((13, 22), 8, (0, 6)), ((13, 22), -4, (1, 5)),
    ((13, 23), 4, (1, 6)), ((13, 23), -4, (2, 5)),
    ((13, 24), -2, (3,)),
    ((13, 33), -2, (3, 5)),
    ((13, 34), -4, (4,)),
    ((14, 34), -4, ()),
    ((22, 22), -4, (0, 6)),
    ((22, 23), -4, (1, 6)),
    ((23, 23), -4, (2, 6)),
    ((24, 24), 1, ()),
    ((23, 33), -4, (3, 6)),
    ((23, 34), -2, (5,)),
    ((33, 33), -4, (4, 6)), ((33, 33), 1, (5, 5)),
    ((33, 34), -4, (6,)),
]


def odd_quadrics(curve: CurveData):
    """The 16 products k_j * Q_i; the product relation leaves 15 independent."""
    F = curve.field
    f = curve.coeffs
    two = F.from_int(2)

    # b-linear forms as {index of b: coeff}
    e1 = {1: F.mul(two, f[0]), 2: f[1]}
    e2 = {3: f[3], 4: F.mul(two, f[4]), 5: F.mul(two, f[5]), 6: F.mul(two, f[6])}
    e3 = {4: f[5], 5: F.mul(two, f[6])}
    b2, b3, b4 = ({i: F.one()} for i in (2, 3, 4))

    def neg(d):
        return {i: F.neg(c) for i, c in d.items()}

    # rows of the antisymmetric matrix applied to (k_1..k_4)
    q_rows = [
        {2: e1, 3: neg(e2), 4: neg(b4)},
        {1: neg(e1), 3: neg(e3), 4: b3},
        {1: e2, 2: e3, 4: neg(b2)},
        {1: b4, 2: neg(b3), 3: b2},
    ]
    cands = []
    for j in range(1, 5):
        for i in range(4):
            q = QuadricForm(F)
            for kidx, blin in q_rows[i].items():
                for bidx, c in blin.items():
                    q.add_term(even_slot(j, kidx), 9 + bidx, c)
            cands.append(q)
    return cands


def b_shift(curve: CurveData) -> Mat:
    """The 16x16 substitution b_i -> b_{i-1}: the identity on the even
    coordinates, b_1 -> b_0 = -(f_1 b_1 + ... + f_6 b_6) / f_0 and
    b_i -> b_{i-1} for i > 1."""
    F = curve.field
    inv0 = F.inv(curve.coeffs[0])
    odd = [[F.neg(F.mul(c, inv0)) for c in curve.coeffs[1:]]]
    odd += [[F.one() if c == r else F.zero() for c in range(6)] for r in range(5)]
    return block_diag(F, [Mat.identity(F, 10), Mat(F, odd)])


# ---------------------------------------------------------------------------
# the sampled kernel: the fourteen unlisted b_i b_j products and the
# dimension certificates


def sampling_field(field: Field) -> Field:
    """Smallest extension of the prime field with at least 10,000 elements."""
    e = 1
    while field.p ** e < 10_000:
        e += 1
    return Field.extension(field.p, e) if e > 1 else field


def sampled_kernel(curve: CurveData, seed: int = 0, pairs=UNLISTED_BB_PAIRS):
    """(forms b_i b_j - k-quadratic for `pairs`, (full, even-only) kernel
    dimensions), read from one reduction of the 136 monomials' values at 150
    sampled classes, each value split into its coefficients over F_p.

    The columns are the 55 even monomials, the 21 odd and the 60 mixed
    ones.  The kernel is the degree-2 part of the ideal (72) and the even
    monomials' pivots leave its even slice (21).  Each b_i b_j is a
    k-quadratic on J, so its column is free, and its kernel vector is b_i
    b_j minus the k-quadratic that is zero at the free even columns.  The
    forms are checked at 50 more classes of the same stream; a wrong
    even-only dimension, a pivot b_i b_j column or a failed check raises
    InterpolationFailed.
    """
    F = curve.field
    K = sampling_field(F)
    rng = random.Random(seed * 104729 + 3)
    order = EVEN_MONOMIALS + ODD_MONOMIALS + MIXED_MONOMIALS
    A = monomial_array(K, [random_point(curve, K, rng).coords().v
                           for _ in range(150)], 2)[:, order]
    if K.kind == "ext":
        A = A.transpose(0, 2, 1).reshape(-1, len(order))
    R, piv = fp_rref(F, A)
    even = len(EVEN_MONOMIALS)
    dims = (len(order) - len(piv), even - sum(c < even for c in piv))
    if dims[1] != 21:
        raise InterpolationFailed(
            f"even vanishing space has dimension {dims[1]}, expected 21")
    forms = []
    for bi, bj in pairs:
        c = even + ODD_MONOMIALS.index(MONO_INDEX[(9 + bi, 9 + bj)])
        if c in piv:
            raise InterpolationFailed(f"b{bi} b{bj} is not a k-quadratic at the sampled classes")
        q = QuadricForm(F)
        q.add_term(9 + bi, 9 + bj, 1)
        for r, n in enumerate(piv):
            if R[r, c]:
                q.add_term(*MONOMIALS[order[n]], F.neg(int(R[r, c])))
        forms.append(q)
    fresh = [(random_point(curve, K, rng).coords().v, K) for _ in range(50)]
    if not forms_vanish_at(forms, fresh):
        raise InterpolationFailed("interpolated form fails at fresh points")
    return forms, dims


def interpolate_bb_quadrics(curve: CurveData, seed: int = 0, targets=None):
    """The forms of ``sampled_kernel`` for `targets`, by default the fourteen
    products without a hardcoded expression."""
    return sampled_kernel(curve, seed, UNLISTED_BB_PAIRS if targets is None else targets)[0]


def vanishing_kernel_dimensions(curve: CurveData, seed: int = 0):
    """The (full, even-only) dimensions of ``sampled_kernel``: 72 and 21."""
    return sampled_kernel(curve, seed, [])[1]
