"""Two-coverings of the Jacobian from twist data (delta, n) with
N(delta) = n^2: square-root data, twisted quadrics, descent to the
ground field, the covering map, and point searches.

Pipeline: choose epsilon_w with epsilon_w^2 = delta(w_w) and prod = n (over
the splitting field, or its quadratic extension when some delta_w is a
non-square, in which case the root/torsion context is built there instead:
``TorsionContexts`` builds only the context of the working field).
In the c-basis the covering map g is diagonal, t_I = prod_{w in I} eps_w
+ prod_{w not in I} eps_w on c_I and eps_w on c_w, so g = C^-1 diag(t_I,
eps_w) C.  The twisted ideal is the Jacobian's pulled back by g: the 72
c-basis generators of ``TorsionActionCtx.c_generators`` composed with
diag(t_I, eps_w) C into one coefficient array, the state that the one
reduction below reads, each generator of the pair (w1, w2)
divided by eps_{w1} eps_{w2}.  That division leaves the coefficients in
the splitting field's image, and the paper writes them there as weights
in delta_w and n:

    odd piece at the pair (w1, w2):  delta_t + n / (delta_{w1} delta_{w2})
    even piece:  delta_{t1} delta_{t2} + delta_{p1} delta_{p2}
                 + n (1/delta_{w1} + 1/delta_{w2})
    identity piece:  delta_w on c_w^2 and t_I^2 on c_I^2,
                     t_I^2 = prod_{w in I} delta_w + prod_{w not in I} delta_w + 2n

One reduction of the twisted forms by [-1]-parity block
(``quadrics.parity_rref``) certifies the rank 72 and gives the odd block,
the rows with pivots on the odd.odd monomials, which come last, and the
descent to the ground field k: the twisted span is defined over k exactly
when its reduced basis has entries in k, and that basis is then the 72
descended forms.

The point searches share one numpy block scan (``_vanishing_rows``): of
P^5(F_p) mod p, and of the primitive integer tuples of a height box exactly
over Q.  The twist search over F_p reads the descended forms and the scale
factors t_I only, so it runs from an ``EpsilonChoice`` without the twisted
model: one reduction of the descended forms by parity block gives the odd
block to scan and the mixed forms, then one numpy pass lifts every
survivor through the linear mixed forms and the scale c.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .curve import CurveData, DivisorClass, even_slot
from .errors import (GammaViolation, Genus2Error, NonUnitDelta, RankLoss,
                     TIVanishes)
from .etale import EtaleAlgebra, LVec, character_chi, mask_bits, popcount
from .fields import Field
from .kummer import VDeltaModel
from .linalg import (Mat, fp_rref, from_np, frobenius_fixed_values, int64_exact,
                     kernel_from_rref, matmul_arrays, to_np)
from .poly import _lift
from .quadrics import (_MONO_I, _MONO_J, EVEN_MONOMIALS, MIXED_MONOMIALS,
                       MONOMIALS, ODD_MONOMIALS, compose_forms,
                       forms_from_array, forms_vanish_at, independent_picks,
                       monomial_array, parity_rref)
from .torsion import TorsionActionCtx, _all_pairs


class TwistDatum:
    """(delta, n) with N(delta) = n^2 and delta a unit, over the ground field."""

    def __init__(self, algebra: EtaleAlgebra, delta_coeffs, n):
        self.algebra = algebra
        F = algebra.field
        self.delta = algebra.elem([F.coerce(c) for c in delta_coeffs], F)
        self.n = F.coerce(n)
        norm = self.delta.norm()
        if F.is_zero(norm):
            raise NonUnitDelta("N(delta) = 0")
        if not F.eq(norm, F.mul(self.n, self.n)):
            raise GammaViolation(
                f"N(delta) = {F.fmt(norm)} != n^2 = {F.fmt(F.mul(self.n, self.n))}")

    @staticmethod
    def from_cassels(algebra: EtaleAlgebra, D: DivisorClass) -> "TwistDatum":
        from .curve import cassels_image
        if D.field != algebra.field:
            raise Genus2Error("divisor must live over the ground field")
        delta, n = cassels_image(D)
        return TwistDatum(algebra, delta, n)

    @staticmethod
    def trivial(algebra: EtaleAlgebra) -> "TwistDatum":
        return TwistDatum(algebra, [1, 0, 0, 0, 0, 0], 1)

    def rescale(self, xi: LVec) -> "TwistDatum":
        """The equivalent datum (delta xi^2, n N(xi)) for xi in L*."""
        F = self.algebra.field
        nxi = xi.norm()
        if F.is_zero(nxi):
            raise NonUnitDelta("xi is not a unit")
        d2 = self.delta * xi * xi
        return TwistDatum(self.algebra, d2.c, F.mul(self.n, nxi))


class TorsionContexts:
    """The torsion contexts of one curve, each built on first use: over the
    splitting field k(Omega) of the algebra, and over its quadratic
    extension, the working field of a datum with some delta_w a non-square
    in k(Omega)."""

    def __init__(self, algebra: EtaleAlgebra, base: TorsionActionCtx = None):
        self.algebra = algebra
        self._built = {} if base is None else {(False, None): base}

    def over(self, quadratic: bool, seed: int = 0) -> TorsionActionCtx:
        """The context over k(Omega), or over its quadratic extension with
        the roots found from `seed`."""
        key = (quadratic, seed if quadratic else None)
        if key not in self._built:
            alg = self.algebra
            if quadratic:
                K = alg.splitting
                alg = EtaleAlgebra(alg.curve, splitting=Field.extension(K.p, 2 * K.deg),
                                   seed=seed)
            self._built[key] = TorsionActionCtx(alg)
        return self._built[key]


class EpsilonChoice:
    """epsilon_w per root with prod epsilon_w = n, plus the t_I scale data.

    Owns the working torsion context: the one over the splitting field when
    every delta_w is a square there, otherwise the one over its quadratic
    extension.  `contexts` is a :class:`TorsionContexts`, or the context over
    the splitting field; only the working context is built.
    """

    def __init__(self, contexts, datum: TwistDatum, seed: int = 0):
        if isinstance(contexts, TorsionActionCtx):
            contexts = TorsionContexts(contexts.algebra, base=contexts)
        self.datum = datum
        K = contexts.algebra.splitting
        deltas = [datum.delta.phi(i) for i in range(6)]
        quadratic = any(K.sqrt(dw) is None for dw in deltas)
        self.ctx = contexts.over(quadratic, seed)
        W = self.ctx.K
        alg = self.ctx.algebra
        self.delta_w = LVec(alg, W, [_lift(datum.algebra.field, W, c)
                                     for c in datum.delta.c])
        self.deltas = [self.delta_w.phi(i) for i in range(6)]
        eps = []
        for dw in self.deltas:
            r = W.sqrt(dw)
            if r is None:
                raise Genus2Error("delta_w not a square in the working field")
            eps.append(r)
        n_w = _lift(datum.algebra.field, W, datum.n)
        prod = functools.reduce(W.mul, eps, W.one())
        if not W.eq(prod, n_w):
            if not W.eq(prod, W.neg(n_w)):
                raise Genus2Error("product of square roots is not +-n")
            eps[0] = W.neg(eps[0])
        self.eps = eps
        self.n = n_w
        # scale factors for every subset of size 3 (and singletons = eps)
        self.t3 = {}
        vanish = []
        for m in range(64):
            if popcount(m) != 3:
                continue
            prods = [W.one(), W.one()]   # over the roots outside m, inside m
            for i, e in enumerate(eps):
                prods[m >> i & 1] = W.mul(prods[m >> i & 1], e)
            self.t3[m] = W.add(*prods)
            if W.is_zero(self.t3[m]) and m in self.ctx.reps:
                vanish.append(sorted(i + 1 for i in mask_bits(m)))
        if vanish:
            raise TIVanishes(vanish)
        # g in the c-basis is diag(t_I, eps_w)
        self.c_scale = [self.t3[rep] for rep in self.ctx.reps] + eps

    @property
    def field(self) -> Field:
        return self.ctx.K

    def covering_matrix(self) -> Mat:
        """16x16 block matrix of g = C^-1 diag(t_I, eps_w) C: twist
        coordinates -> Jacobian coordinates."""
        return self.ctx.C_inv * Mat.diagonal(self.field, self.c_scale) * self.ctx.C

    def covering_inverse(self) -> Mat:
        """g^{-1} = C^-1 diag(1/t_I, 1/eps_w) C: Jacobian coordinates -> twist
        coordinates."""
        W = self.field
        return self.ctx.C_inv * Mat.diagonal(W, [W.inv(s) for s in self.c_scale]) * self.ctx.C

    def t_squared_triple(self, mask3: int):
        return self.ctx.K.mul(self.t3[mask3], self.t3[mask3])

    def cocycle_mask(self) -> int:
        """Root mask of sigma(epsilon)/epsilon for the Frobenius generator."""
        W = self.ctx.K
        perm = self.ctx.algebra.frob_perm
        mask = 0
        for j in range(6):
            i = perm[j]
            val = W.frobenius(self.eps[j])
            if W.eq(val, W.neg(self.eps[i])):
                mask |= 1 << i
            elif not W.eq(val, self.eps[i]):
                raise Genus2Error("epsilon is not Galois-coherent")
        return mask

    def galois_t_equivariance(self) -> bool:
        """sigma-compatibility of every t_I against the cocycle character."""
        W = self.ctx.K
        m = self.cocycle_mask()
        alg = self.ctx.algebra
        # eps_w is the scale factor of the singleton {w}
        scale = {1 << i: e for i, e in enumerate(self.eps)} | self.t3
        for mask, v in scale.items():
            sI = alg.frobenius_mask(mask)
            rhs = W.frobenius(v)
            if character_chi(sI, m) < 0:
                rhs = W.neg(rhs)
            if not W.eq(scale[sI], rhs):
                return False
        return True


class TwistModel:
    """The two-covering attached to (delta, n): 72 twisted quadrics in the
    16 coordinates over the working field, the block-linear map down to the
    Jacobian, and descent data: the forms of the c-basis generators ``labels``
    as one (72, 136[, d]) array ``coeffs``, of certified ``rank`` 72."""

    def __init__(self, contexts, datum: TwistDatum, seed: int = 0):
        """`contexts` as for :class:`EpsilonChoice`."""
        self.datum = datum
        self.eps = EpsilonChoice(contexts, datum, seed=seed)
        self.ctx = self.eps.ctx
        W = self.ctx.K
        # the Jacobian's c-basis generators pulled back by g; those of the
        # pair (i, j), divided by eps_i eps_j, have coefficients in k(Omega)
        e = self.eps.eps
        self.labels, forms = zip(*self.ctx.c_generators())
        forms = [q if lab[0] == "O" else q.scaled(W.inv(W.mul(e[lab[0][0]], e[lab[0][1]])))
                 for lab, q in zip(self.labels, forms)]
        self.coeffs = compose_forms(forms, Mat.diagonal(W, self.eps.c_scale) * self.ctx.C)
        R, piv = parity_rref(W, self.coeffs)
        self.rank = len(piv)
        if self.rank != 72:
            raise Genus2Error("twisted model is rank-deficient")
        self._odd_block = from_np(W, R[sum(c < ODD_MONOMIALS[0] for c in piv):72])
        # the span is defined over F_p exactly when its reduced basis is; a
        # copy, so that the whole (72, 136, d) reduction is not kept alive
        self._ground = None if W.deg == 1 or R[:72, :, 1:].any() else R[:72, :, 0].copy()
        # every coefficient lies in the splitting field of f, even when the
        # working field is the quadratic extension
        base_deg = datum.algebra.splitting.deg
        if W.deg != base_deg and not frobenius_fixed_values(W, self.coeffs, base_deg):
            raise Genus2Error("twisted coefficient outside k(Omega)")

    @functools.cached_property
    def forms(self):
        return forms_from_array(self.field, self.coeffs)

    @property
    def field(self) -> Field:
        return self.ctx.K

    # -- covering map -----------------------------------------------------------

    def covering_matrix(self) -> Mat:
        return self.eps.covering_matrix()

    def covering_blocks(self):
        g = self.covering_matrix()
        even = Mat(g.field, [row[:10] for row in g.rows[:10]])
        odd = Mat(g.field, [row[10:] for row in g.rows[10:]])
        return even, odd

    def vanish_at_pullbacks(self, divisors) -> bool:
        """Every twisted form vanishes at g^{-1} of each divisor's point; the
        divisors lie over one field, a subfield of the working field W or an
        extension E of it that g^{-1} and the forms are lifted into, and
        their points are pulled back as the columns of one 16 x N matrix."""
        W = self.ctx.K
        E = divisors[0].field if divisors and divisors[0].field.deg > W.deg else W
        ginv = Mat(E, [[_lift(W, E, v) for v in row] for row in self.eps.covering_inverse().rows])
        X = Mat(E, [[_lift(D.field, E, v) for v in D.coords().v] for D in divisors]).transpose()
        pulled = (ginv * X).transpose().rows
        return forms_vanish_at([q.map_field(E) for q in self.forms], [(vec, E) for vec in pulled])

    def cocycle_matches_action(self) -> bool:
        """sigma(g) g^{-1} is projectively the mask action of sigma(eps)/eps."""
        W = self.ctx.K
        sg = self.covering_matrix().map_entries(W.frobenius)
        A = sg * self.eps.covering_inverse()
        R = self.ctx.rho_matrix(self.eps.cocycle_mask())
        nonzero = [(a, r) for ra, rr in zip(A.rows, R.rows) for a, r in zip(ra, rr)
                   if not W.is_zero(r)]
        return bool(nonzero) and A.rows == R.scale(W.div(*nonzero[0])).rows

    # -- descent ------------------------------------------------------------------

    def descend_to_ground(self):
        """72 forms with ground-field coefficients spanning the twisted ideal.
        A subspace of W^136 is defined over the ground field k exactly when
        its reduced row echelon basis has entries in k, and then that basis
        is its unique reduced basis over k: the rows read from the reduction
        that certified ``rank``, with no further reduction.  Over the ground
        field the twisted forms, already of rank 72, are the descended forms."""
        if self.ctx.K.deg == 1:
            return self.forms
        if self._ground is None:
            raise RankLoss("the twisted span is not defined over the ground field")
        return forms_from_array(self.datum.algebra.field, self._ground)

    # -- the P^5 sub-block ---------------------------------------------------------

    def odd_block(self):
        """Basis of the forms in the twisted ideal supported on b-monomials,
        read from the reduction that certified ``rank``."""
        return self._odd_block

    def matches_vdelta(self) -> bool:
        """The 3-dimensional odd block equals the span of the V_delta forms:
        in one reduction, the three V_delta forms are independent and the
        block adds nothing to them."""
        blk = self.odd_block()
        vd = VDeltaModel(self.ctx.algebra, self.eps.delta_w)
        vrows = [q.vector() for q in vd.forms]
        return len(blk) == 3 and independent_picks(self.field, vrows + blk) == [0, 1, 2]

    def to_json(self, descended=None):
        W = self.field
        even, odd = self.covering_blocks()
        data = {
            "field": W.spec_string(),
            "delta": self.datum.delta.to_strings(),
            "n": self.datum.algebra.field.fmt(self.datum.n),
            "quadrics_splitting": [q.to_json() for q in self.forms],
            "covering_map": {
                "even": [[W.fmt(v) for v in row] for row in even.rows],
                "odd": [[W.fmt(v) for v in row] for row in odd.rows],
            },
            "t_squared": {
                "-".join(str(i + 1) for i in mask_bits(rep)):
                    W.fmt(self.eps.t_squared_triple(rep))
                for rep in self.ctx.reps
            },
        }
        if descended is not None:
            data["quadrics_ground"] = [q.to_json() for q in descended]
        return data


# ---------------------------------------------------------------------------
# point search and counting


def count_jacobian_points(curve: CurveData) -> int:
    """#J(F_p) by enumerating rational effective divisors of degree two.

    Unordered pairs of curve points over F_p plus conjugate pairs over
    F_{p^2} give (N1^2 + N2)/2 rational effective divisors; the canonical
    pencil (one divisor per x in P^1) is the only linear system among them,
    so the class count is that total minus p.
    """
    F = curve.field
    if F.kind != "prime":
        raise Genus2Error("point counting is implemented over prime fields")
    p = F.p
    n1 = _curve_point_count(curve, F)
    n2 = _curve_point_count(curve, Field.extension(p, 2))
    return (n1 * n1 + n2) // 2 - p


def _curve_point_count(curve: CurveData, K: Field) -> int:
    fK = curve.f.map_field(K)
    count = 0
    for x in K.elements():
        fx = fK.evaluate(x)
        if K.is_zero(fx):
            count += 1
        elif K.is_square(fx):
            count += 2
    if K.is_square(_lift(curve.field, K, curve.coeffs[6])):
        count += 2
    return count


_SCAN_BLOCK = 4096
# The most points of P^5(F_p), (p^6 - 1)/(p - 1), that ``search`` scans:
# p <= 31.  The scan takes about 150 ns a point (2-core x86-64 host,
# CPython 3.11), so 4.6 s at p = 31; p = 37 would take 8 s and p = 1009 years.
P5_SCAN_BUDGET = 30_000_000
# The most integer 6-tuples, (2B + 1)^6, that ``search`` over Q walks for a
# height bound B: B <= 5.  The block scan takes about 0.1 us a tuple (same
# host), so 0.16-0.19 s at B = 5 on three forms.  A larger bound needs a
# limit on the output: forms that vanish on a large set find most tuples.
Q_SEARCH_BUDGET = 2_000_000


def _digit_blocks(base: int, width: int, start: int = 0, lead: int = 0):
    """The integers from `start` to base^width - 1 as int64 blocks of
    _SCAN_BLOCK rows: `lead` zero columns, then the `width` base-`base`
    digits, most significant first (``itertools.product`` order)."""
    total = base ** width
    for lo in range(start, total, _SCAN_BLOCK):
        idx = np.arange(lo, min(lo + _SCAN_BLOCK, total))
        D = np.zeros((len(idx), lead + width), dtype=np.int64)
        for c in range(lead + width - 1, lead - 1, -1):
            idx, D[:, c] = np.divmod(idx, base)
        yield D


def _projective_blocks(p: int, dim: int):
    """P^{dim-1}(F_p) as int64 blocks, each point with first nonzero entry
    1: by the position of that entry, then lexicographically after it."""
    for lead in range(dim):
        for X in _digit_blocks(p, dim - 1 - lead, lead=lead + 1):
            X[:, lead] = 1
            yield X


def _box_blocks(bound: int):
    """The primitive integer 6-tuples with |x_i| <= bound and first nonzero
    entry positive, in int64 blocks in ``itertools.product`` order: negation
    reverses that order, so these are the tuples of gcd 1 past the zero tuple."""
    for D in _digit_blocks(2 * bound + 1, 6, (2 * bound + 1) ** 6 // 2 + 1):
        X = D - bound
        yield X[np.gcd.reduce(X, axis=1) == 1]


def _vanishing_rows(blocks, mats, p=None):
    """The rows x of the int blocks with x^T M x = 0 for every M in `mats`,
    mod p, or exactly when p is None; as tuples of ints, in block order."""
    found = []
    for X in blocks:
        for M in mats:   # one form after another, on the rows left
            values = (X @ M % p * X).sum(axis=1) % p if p else (X @ M * X).sum(axis=1)
            X = X[values == 0]
        found.extend(map(tuple, X.tolist()))
    return found


def p5_zeros(F: Field, mats):
    """Points of P^5(F) on every quadric x^T M x = 0, as tuples of ints
    with first nonzero entry 1, ordered by the position of that entry, then
    lexicographically after it; F is a prime field, each M 6x6 ints.

    All (p^6 - 1)/(p - 1) points are scanned in int64 blocks.  Entries of
    X @ M reach 6 (p-1)^2 before reduction, which must stay below 2^63.
    """
    p = F.p
    if not int64_exact(F, 6):
        raise Genus2Error(f"P^5 scan would overflow int64 at p={p}")
    return _vanishing_rows(_projective_blocks(p, 6),
                           [np.array(M, dtype=np.int64) % p for M in mats], p)


def search_vdelta_points(vd: VDeltaModel):
    """All P^5(F_p) points on the three V_delta quadrics, exact, in the
    order of ``p5_zeros``.  Prime fields only; see ``p5_zeros``."""
    W = vd.delta.field
    if W.kind != "prime":
        raise Genus2Error("V_delta search is implemented over prime fields")
    return p5_zeros(W, [M.rows for M in vd.matrices])


def search_vdelta_rational(matrices, bound: int):
    """Primitive integer 6-tuples with |x_i| <= bound and first nonzero
    entry positive on which every rational form vanishes (denominators
    cleared), in ``itertools.product`` order, by the block scan of
    ``_box_blocks``.  x^T M x reaches 36 bound^2 max|M|: the products stay
    int64 below 2^63 (bound at least 1, so that M fits), else Python ints."""
    ints = []
    for M in matrices:
        den = math.lcm(*(v.denominator for row in M.rows for v in row))
        ints.append([[int(v * den) for v in row] for row in M.rows])
    top = max((abs(v) for M in ints for row in M for v in row), default=0)
    dtype = np.int64 if 36 * max(bound, 1) ** 2 * top < 1 << 63 else object
    return _vanishing_rows(_box_blocks(bound), [np.array(M, dtype=dtype) for M in ints])


def search_twist_points(model, descended=None):
    """All F_p points of the descended twist, exact and sorted.

    ``model`` is a TwistModel, or just its EpsilonChoice when ``descended``
    is given: the search reads only the datum, the working field and the
    scale factors t_I.  One ``parity_rref`` of the forms, which raises
    MixedParity for a form of both parities and RankLoss below rank 72,
    gives the three odd-block quadrics, its rows with odd.odd pivots, and
    the 30 mixed forms, its rows with mixed pivots, each a 10 x 6 block.
    Their zeros b in P^5(F_p) (``p5_zeros``) are lifted together: one
    einsum builds every b's linear system in the even block from the mixed
    forms, whose kernel points u0 give the lines (c u0 : b), and
    ``_scale_points`` keeps the c in F_p^* on which all 72 forms vanish.
    The sixteen points with vanishing odd part, the pullbacks of the Kummer
    nodes under the covering map (``_node_pullbacks``), are added.  Prime
    fields only; the longest int64 sum is the 136 products of a form at a
    node, so p must pass ``int64_exact(field, 136)``.
    """
    k = model.datum.algebra.field
    if k.kind != "prime":
        raise Genus2Error("twist search is implemented over prime fields")
    p = k.p
    if not int64_exact(k, len(MONOMIALS)):
        raise Genus2Error(f"twist search would overflow int64 at p={p}")
    if descended is None and not isinstance(model, TwistModel):
        raise Genus2Error("searching from an EpsilonChoice needs the descended forms")
    forms = descended if descended is not None else model.descend_to_ground()
    R, piv = parity_rref(k, [q.vector() for q in forms])
    if len(piv) != 72:
        raise RankLoss(f"the descended forms have rank {len(piv)}, not 72")
    piv = np.array(piv)
    rows = R[piv >= ODD_MONOMIALS[0]][:, ODD_MONOMIALS]
    odd = np.zeros((len(rows), 6, 6), dtype=np.int64)   # upper triangular
    odd[:, _MONO_I[ODD_MONOMIALS] - 10, _MONO_J[ODD_MONOMIALS] - 10] = rows
    mixed = R[np.isin(piv, MIXED_MONOMIALS)][:, MIXED_MONOMIALS].reshape(-1, 10, 6)
    found = set(_node_pullbacks(model.eps if isinstance(model, TwistModel) else model, R))
    b = np.array(p5_zeros(k, odd), dtype=np.int64).reshape(-1, 6)
    # row i of survivor r's system: sum_j mixed[:, i, j] b_j (6 products)
    systems = np.einsum("mij,rj->rmi", mixed, b) % p
    U, B = _kernel_pairs(k, systems, b)
    found.update(_scale_points(k, R, U, B))
    return sorted(found)


def _scale_points(k: Field, R, U, B):
    """The points (c u0 : b), normalized, where every form of the (N, 136)
    coefficient array R over F_p vanishes, over c in F_p^* and the pairs
    (u0, b) in the rows of U and B (u0 normalized); a pair on which every
    form is zero is skipped.  A form is c^2 A + B there, with A and B its
    even.even and odd.odd parts at (u0 : b), each one product with those
    monomials' values (sums of at most 55 products).  Its mixed part is
    zero: a pure form has no mixed monomials, and a mixed form is linear in
    u0 at b, where u0 spans the kernel of b's mixed system."""
    p = k.p
    X = monomial_array(k, np.concatenate([U, B], axis=1), 55)
    cA, cB = (X[:, m] @ R[:, m].T % p for m in (EVEN_MONOMIALS, ODD_MONOMIALS))
    live = (cA | cB).any(axis=1)
    found = []
    for c in range(1, p):
        hit = live & ~((c * c % p * cA + cB) % p).any(axis=1)
        # (c u0 : b) with u0 normalized is (u0 : b / c)
        pts = np.concatenate([U[hit], B[hit] * pow(c, p - 2, p) % p], axis=1)
        found.extend(map(tuple, pts.tolist()))
    return found


def _kernel_pairs(k: Field, systems, b):
    """Pairs (u0, b): every kernel point u0 (first nonzero entry 1) of each
    survivor's (m, 10) system, with its survivor b; an empty system has none.
    Each system, a row view of `systems`, is row-reduced in place."""
    p, us, bs = k.p, [], []
    for system, bvec in zip(systems, b):
        if not len(system):
            continue
        basis = kernel_from_rref(k, *fp_rref(k, system), 10)
        if not len(basis):
            continue
        if len(basis) > 1:   # every projective kernel point: sums of <= 10 products
            basis = np.concatenate(list(_projective_blocks(p, len(basis)))) @ basis % p
        lead = basis[np.arange(len(basis)), (basis != 0).argmax(axis=1)]
        inv = np.array([pow(int(a), p - 2, p) for a in lead], dtype=np.int64)
        us.append(basis * inv[:, None] % p)
        bs.append(np.broadcast_to(bvec, (len(basis), 6)))
    if not us:
        return np.zeros((0, 10), dtype=np.int64), np.zeros((0, 6), dtype=np.int64)
    return np.concatenate(us), np.concatenate(bs)


def _node_pullbacks(eps: EpsilonChoice, vecs):
    """F_p-rational points of the twist with zero odd part, where the forms
    of coefficient vectors `vecs` all vanish: the pullbacks of the sixteen
    Kummer nodes, read off the c-basis.  The node (0:0:0:1) is G[I, k44]
    there, the node of the pair (i, j) is (chi_I(m) G[I, k44])_I with m
    its mask, and g^-1 divides c_I by t_I before G^-1 maps it back."""
    ctx, W = eps.ctx, eps.field
    k = eps.datum.algebra.field
    k44 = even_slot(4, 4)
    node = [W.div(row[k44], eps.t3[rep]) for row, rep in zip(ctx.G.rows, ctx.reps)]
    rational = []
    for m in [0] + [1 << i | 1 << j for i, j in _all_pairs()]:
        pulled = ctx.G_inv_kappa.matvec([v if character_chi(rep, m) > 0 else W.neg(v)
                                         for v, rep in zip(node, ctx.reps)]) + [W.zero()] * 6
        inv = W.inv(next(v for v in pulled if not W.is_zero(v)))
        norm = [W.mul(v, inv) for v in pulled]
        if all(W.eq(W.frobenius(v), v) for v in norm):
            rational.append(tuple(v[0] if W.kind == "ext" else v for v in norm))
    # every form at every rational node at once: sums of 136 products
    X = monomial_array(k, np.array(rational, dtype=np.int64).reshape(-1, 16), len(MONOMIALS))
    values = matmul_arrays(k, to_np(k, vecs, len(MONOMIALS)).reshape(-1, len(MONOMIALS)), X.T)
    return [pt for pt, col in zip(rational, values.T) if not col.any()]
