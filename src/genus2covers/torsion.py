"""The linear translation action of the two-torsion subgroup on every model,
and the coordinate system that diagonalizes it.

For a nonzero two-torsion point P given by a root pair, write
g = (x - w1)(x - w2) = x^2 + g1 x + g0 and h = f/g.  Translation by P acts
on the P^3 model through an explicit 4x4 matrix M_P with M_P^2 =
Res(g, h) * Id and det M_P = Res(g, h)^2; its normalized symmetric square
T10_P acts on the ten even coordinates, and the group of even root masks
acts on the six odd coordinates by conjugated sign matrices
S diag(+-1) S^{-1}.  Together they give a genuine linear representation of
the rank-5 group of even masks on the 16 coordinates, satisfying
T10_P T10_Q = e_W(P, Q) T10_{P+Q}.

The c-basis (one coordinate per partition of the six roots into two odd
parts: ten 3|3 partitions and six 1|5 partitions) diagonalizes all of these
matrices simultaneously, with eigenvalue (-1)^(#(I cap m)) on the
coordinate labelled by I at the mask m.  The even block G of the change of
basis is the paper's lambda table; its inverse is one inversion of G (the
paper's closed-form kappa table is the tests' reference for it).  The
72-dimensional vanishing ideal splits along this grading into a
12-dimensional piece at the identity and 2+2 dimensions for each nonzero
P.  ``c_generators`` builds explicit generators of the pieces in the
c-variables once per context, with no twist data.  Composed with C they
generate the ideal of the Jacobian (``invariant_generators``); a
two-covering composes them with diag(t_I, eps_w) C (``twist.TwistModel``).
"""

from __future__ import annotations

from .curve import EVEN_PAIRS, even_slot
from .errors import Genus2Error, IdentityPoint, NotDiagonal, OddMask
from .etale import (EtaleAlgebra, TwoTorsionPoint, alpha_sign, character_chi,
                    mask_bits, mask_of, popcount)
from .fields import Field, FieldElem
from .linalg import Mat, block_diag, kernel_rows
from .poly import Poly, _lift, resultant
from .quadrics import (QuadricForm, compose_forms, independent_picks,
                       kummer_image_quadric, listed_bb_forms, veronese_quadrics)


def partition_reps():
    """The ten canonical 3-subset masks, one per 3|3 partition.

    The representative of a partition is its lexicographically least
    3-subset under the root order, which is exactly the subset containing
    root 0; listed in lexicographic order of the index triples.
    """
    reps = []
    for b in range(1, 6):
        for c in range(b + 1, 6):
            reps.append(mask_of([0, b, c]))
    return reps


def partition_rep_and_sign(mask3: int, reps):
    """(index into reps, +1/-1) for a 3-subset mask; complement flips sign."""
    if mask3 in reps:
        return reps.index(mask3), 1
    comp = mask3 ^ 0b111111
    return reps.index(comp), -1


class DiagonalCoords:
    """Coordinates in the diagonalizing basis: c_I per canonical 3-subset
    (sign convention c_I = -c_{complement}) and c_w per root."""

    __slots__ = ("ctx", "even", "odd")

    def __init__(self, ctx: "TorsionActionCtx", even, odd):
        self.ctx = ctx
        self.even = list(even)  # ten values, order of partition_reps()
        self.odd = list(odd)    # six values, root order

    def full(self):
        """16-vector in the internal even-then-odd order."""
        return self.even + self.odd


class TorsionActionCtx:
    """All translation matrices and the diagonalizing change of basis.

    Everything is cached against the splitting field K of the curve, at
    construction or on first use (the M_P, the c-basis generators), and is
    shared and immutable afterwards.  ``G`` (c_I from the k_{ij}) is built
    from the lambda table and ``G_inv_kappa`` is ``G.inv()``.
    """

    def __init__(self, algebra: EtaleAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.K = algebra.splitting
        self.reps = partition_reps()
        self._mp = {}
        self._res = {}
        self._t10 = {}
        self._rho6 = {}
        K = self.K
        self._sigma_tau = {}
        for mask in [m for m in range(64) if popcount(m) == 3]:
            roots = [algebra.roots[i] for i in mask_bits(mask)]
            self._sigma_tau[mask] = _elementary_sym(K, roots)
        self.G = self._build_G()
        self.G_inv_kappa = self.G.inv()
        self.C = block_diag(K, [self.G, algebra.S_inv])
        self.C_inv = block_diag(K, [self.G_inv_kappa, algebra.S])
        self._c_generators = None

    # -- tables ---------------------------------------------------------------

    def _lambda_row(self, mask3: int):
        """Coefficients of 4 prod(psi - w) c_I on the k_{ij}, slot order."""
        K = self.K
        el = lambda v: FieldElem(K, v)
        f6 = el(_lift(self.field, K, self.algebra.curve.coeffs[6]))
        s1, s2, s3 = (el(v) for v in self._sigma_tau[mask3])
        t1, t2, t3 = (el(v) for v in self._sigma_tau[mask3 ^ 0b111111])
        lam = {
            (1, 1): (s2*s3*t1*t2 + (4*s1*s3 - s2**2)*t1*t3 - s1*s3*t2**2
                     + (s1*s2 - s3)*t2*t3 + s3**2*t2 + s2*t3**2 - s2*s3*t3),
            (1, 2): (-4*s3*t1*t3 + 2*s3*t2**2 - 2*s2*t2*t3 - 2*s2*s3*t2
                     + (-4*s1*s3 + 2*s2**2)*t3),
            (1, 3): (2*s2*t1*t3 + 2*s2*s3*t1 + 2*s1*t2*t3 + 2*s1*s3*t2
                     - 2*t3**2 + 4*s3*t3 - 2*s3**2),
            (1, 4): 2*(s3*t1 + s1*t3)/f6,
            (2, 2): (-s3*t1*t2 + s2*t1*t3 + s1*s3*t2 + (-s1*s2 + 4*s3)*t3),
            (2, 3): (2*s3*t1**2 - 2*s1*t1*t3 - 2*s1*s3*t1 - 4*s3*t2
                     + (2*s1**2 - 4*s2)*t3),
            (2, 4): -2*(t3 + s3)/f6,
            (3, 3): (-s2*t1**2 + s1*t1*t2 + t1*t3 + (s1*s2 - s3)*t1
                     + (-s1**2 + 4*s2)*t2 - s1*t3 + s1*s3),
            (3, 4): 2*(t2 + s2)/f6,
            (4, 4): 1/f6**2,
        }
        return [lam[p].v for p in EVEN_PAIRS]

    def _normalizer(self, mask3: int):
        """4 * prod_{w in I} prod_{psi not in I} (psi - w)."""
        K = self.K
        acc = K.from_int(4)
        inside = mask_bits(mask3)
        outside = mask_bits(mask3 ^ 0b111111)
        roots = self.algebra.roots
        for wi in inside:
            for pj in outside:
                acc = K.mul(acc, K.sub(roots[pj], roots[wi]))
        return acc

    def _build_G(self) -> Mat:
        rows = []
        for rep in self.reps:
            inv = self.K.inv(self._normalizer(rep))
            rows.append([self.K.mul(inv, v) for v in self._lambda_row(rep)])
        return Mat(self.K, rows)

    # -- translation matrices -----------------------------------------------

    def mp_matrix(self, P: TwoTorsionPoint) -> Mat:
        """4x4 action on (k_1..k_4) column vectors, over the splitting field."""
        if P.is_identity():
            raise IdentityPoint("no matrix is attached to the identity")
        if P.mask not in self._mp:
            K = self.K
            i, j = P.root_indices()
            w1, w2 = self.algebra.roots[i], self.algebra.roots[j]
            g = Poly(K, [K.mul(w1, w2), K.neg(K.add(w1, w2)), K.one()])
            fK = self.algebra.curve.f.map_field(K)
            h, rem = fK.divmod(g)
            if not rem.is_zero():
                raise Genus2Error("g does not divide f")
            el = lambda v: FieldElem(K, v)
            g0, g1 = el(g.coeff(0)), el(g.coeff(1))
            h0, h1, h2, h3, h4 = (el(h.coeff(t)) for t in range(5))
            one = el(1)
            rows = [
                [h0 + g0*h2 - g0**2*h4,
                 g0*h3 - g0*g1*h4,
                 g1*h3 - g1**2*h4 + 2*g0*h4,
                 one],
                [-g0*h1 - g0*g1*h2 + g0**2*h3,
                 h0 - g0*h2 + g0**2*h4,
                 h1 - g1*h2 - g0*h3,
                 -g1],
                [-g1**2*h0 + 2*g0*h0 + g0*g1*h1,
                 -g1*h0 + g0*h1,
                 -h0 + g0*h2 + g0**2*h4,
                 g0],
                [(-g1*h0*h1 + g1**2*h0*h2 + g0*h1**2 - 4*g0*h0*h2
                  - g0*g1*h1*h2 + g0*g1*h0*h3 - g0**2*h1*h3),
                 (g1**2*h0*h3 - g1**3*h0*h4 - 2*g0*h0*h3 - g0*g1*h1*h3
                  + 4*g0*g1*h0*h4 + g0*g1**2*h1*h4 - 2*g0**2*h1*h4),
                 (-g0*h1*h3 - g0*g1*h2*h3 + g0*g1*h1*h4 + g0*g1**2*h2*h4
                  + g0**2*h3**2 - 4*g0**2*h2*h4 - g0**2*g1*h3*h4),
                 -h0 - g0*h2 - g0**2*h4],
            ]
            self._mp[P.mask] = Mat(K, [[e.v for e in row] for row in rows])
            self._res[P.mask] = resultant(g, h)
        return self._mp[P.mask]

    def res_gh(self, P: TwoTorsionPoint):
        self.mp_matrix(P)
        return self._res[P.mask]

    def t10_matrix(self, P: TwoTorsionPoint) -> Mat:
        """Normalized symmetric square acting on the even coordinates."""
        if P.is_identity():
            return Mat.identity(self.K, 10)
        if P.mask not in self._t10:
            K = self.K
            M = self.mp_matrix(P)
            inv_res = K.inv(self._res[P.mask])
            rows = []
            for (i, j) in EVEN_PAIRS:
                row = [K.zero()] * 10
                for (u, v) in EVEN_PAIRS:
                    c = K.mul(M.rows[i - 1][u - 1], M.rows[j - 1][v - 1])
                    if u != v:
                        c = K.add(c, K.mul(M.rows[i - 1][v - 1], M.rows[j - 1][u - 1]))
                    row[even_slot(u, v)] = K.mul(c, inv_res)
                rows.append(row)
            self._t10[P.mask] = Mat(K, rows)
        return self._t10[P.mask]

    def rho6_matrix(self, m: int) -> Mat:
        """Sign conjugate S diag(-1 on m) S^{-1} on the odd coordinates."""
        if popcount(m) % 2:
            raise OddMask(f"mask {m:06b} has odd cardinality")
        if m not in self._rho6:
            K = self.K
            signs = [K.from_int(-1 if m >> i & 1 else 1) for i in range(6)]
            D = Mat.diagonal(K, signs)
            self._rho6[m] = self.algebra.S * D * self.algebra.S_inv
        return self._rho6[m]

    def rho10_matrix(self, m: int) -> Mat:
        if popcount(m) % 2:
            raise OddMask(f"mask {m:06b} has odd cardinality")
        T = self.t10_matrix(TwoTorsionPoint.from_even_mask(m))
        return T if alpha_sign(m) == 1 else -T

    def rho_matrix(self, m: int) -> Mat:
        """Block action on Coords16 column vectors (even block, odd block)."""
        return block_diag(self.K, [self.rho10_matrix(m), self.rho6_matrix(m)])

    # -- diagonal coordinates -------------------------------------------------

    def c_coords(self, coords) -> DiagonalCoords:
        """c_I = G . (k_{ij}) and c_w = S^{-1} . (b) for a Coords16 point."""
        K = self.K
        vec = [_lift(coords.field, K, v) for v in coords.v]
        even = self.G.matvec(vec[:10])
        odd = self.algebra.S_inv.matvec(vec[10:])
        return DiagonalCoords(self, even, odd)

    def coords_from_c(self, dc: DiagonalCoords):
        even = self.G_inv_kappa.matvec(dc.even)
        odd = self.algebra.S.matvec(dc.odd)
        return even + odd

    def verify_diagonal(self, m: int):
        """Conjugate the mask action into the c-basis and read the diagonal.

        Returns the 16 diagonal signs in the internal even-then-odd order
        and checks them against the characters (-1)^(#(I cap m)); raises
        NotDiagonal on any off-diagonal entry.
        """
        K = self.K
        conj = self.C * self.rho_matrix(m) * self.C_inv
        diag = []
        for i in range(16):
            for j in range(16):
                if i != j and not K.is_zero(conj.rows[i][j]):
                    raise NotDiagonal(f"entry ({i},{j}) nonzero for mask {m:06b}")
            diag.append(conj.rows[i][i])
        expected = [K.from_int(character_chi(rep, m)) for rep in self.reps]
        expected += [K.from_int(character_chi(1 << i, m)) for i in range(6)]
        if diag != expected:
            raise NotDiagonal(f"diagonal does not match characters for {m:06b}")
        return diag

    # -- generators of the graded pieces of the ideal -------------------------

    def o_plus_candidates(self):
        """The sixteen candidate forms spanning the 12-dimensional identity
        piece, as quadrics in the c-variables (internal order).  Each is
        diagonal."""
        K = self.K
        zero = K.zero()
        roots = self.algebra.roots
        # the k-values at c = e_I, one row per partition rep; a form's k-part
        # at them gives its c_I^2 coefficients
        mu = [row + [zero] * 6 for row in self.G_inv_kappa.transpose().rows]

        def diagonal(odd, even):
            return QuadricForm(K, {(r, r): v for r, v in enumerate(even + odd)})

        # three diagonal forms sum w^j lambda_w c_w^2
        forms = [diagonal([K.mul(K.pw(w, j), lam)
                           for w, lam in zip(roots, self.algebra.lambdas)], [zero] * 10)
                 for j in range(3)]
        # five minors of the even-only quadrics, then the Kummer quadric
        minors = [((1, 2), (1, 2), (1, 1), (2, 2)), ((1, 2), (1, 3), (1, 1), (2, 3)),
                  ((1, 3), (1, 3), (1, 1), (3, 3)), ((1, 3), (2, 3), (1, 2), (3, 3)),
                  ((2, 3), (2, 3), (2, 2), (3, 3))]
        even = [QuadricForm(K, {(even_slot(*a), even_slot(*b)): 1,
                                (even_slot(*c), even_slot(*d)): -1})
                for a, b, c, d in minors]
        even.append(kummer_image_quadric(self.algebra.curve).map_field(K))
        forms += [diagonal([zero] * 6, [q.evaluate(m) for m in mu]) for q in even]
        # seven mixed forms sum w^r c_w^2 - sum nu_r(pi) c_pi^2, from the
        # listed forms mult * (b_i b_j - nu_r(k))
        for r, q in enumerate(listed_bb_forms(self.algebra.curve)):
            q = q.map_field(K)
            mult = next(c for (i, _), c in q.coeffs.items() if i >= 10)
            forms.append(diagonal([K.pw(w, r) for w in roots],
                                  [K.div(q.evaluate(m), mult) for m in mu]))
        return forms

    def even_diagonal_forms(self):
        """The forms sum a_I c_I^2 in the span of the 21 even quadrics
        composed with block_diag(G^-1, I): the combinations whose 45
        off-diagonal coefficients vanish, one kernel over K.  In
        characteristic 3 they complete the identity piece."""
        K = self.K
        curve = self.algebra.curve
        even = [q.map_field(K) for q in veronese_quadrics(curve.field)
                + [kummer_image_quadric(curve)]]
        even = compose_forms(even, block_diag(K, [self.G_inv_kappa, Mat.identity(K, 6)]))
        at = lambda monos: Mat(K, [[q.coeffs.get(m, K.zero()) for q in even] for m in monos])
        squares = [(r, r) for r in range(10)]
        diag = at(squares)
        off = at([(a, b) for a in range(10) for b in range(a + 1, 10)])
        return [QuadricForm(K, dict(zip(squares, diag.matvec(x))))
                for x in kernel_rows(K, off.rows)]

    def pair_generators(self, pair):
        """The four c-variable forms attached to one root pair (i, j): two
        odd (l = 0, 1) and two even."""
        K = self.K
        i, j = pair
        roots = self.algebra.roots
        comp = [t for t in range(6) if t not in (i, j)]
        partitions = [((comp[0], comp[1]), (comp[2], comp[3])),
                      ((comp[0], comp[2]), (comp[1], comp[3])),
                      ((comp[0], comp[3]), (comp[1], comp[2]))]
        out = []
        for l in (0, 1):
            q = QuadricForm(K)
            for theta in comp:
                coef = K.pw(roots[theta], l)
                for psi in comp:
                    if psi != theta:
                        coef = K.mul(coef, K.sub(roots[theta], roots[psi]))
                rep, sign = partition_rep_and_sign(mask_of([i, j, theta]), self.reps)
                q.add_term(rep, 10 + theta, coef if sign > 0 else K.neg(coef))
            out.append(q)
        q1, q2 = QuadricForm(K), QuadricForm(K)
        q2.add_term(10 + i, 10 + j, K.one())
        f6 = _lift(self.field, K, self.algebra.curve.coeffs[6])
        for (t1, t2), (p1, p2) in partitions:
            r1, s1 = partition_rep_and_sign(mask_of([t1, t2, i]), self.reps)
            r2, s2 = partition_rep_and_sign(mask_of([t1, t2, j]), self.reps)
            coef = K.one() if s1 * s2 > 0 else K.neg(K.one())
            for a in (t1, t2):
                for b in (p1, p2):
                    coef = K.mul(coef, K.sub(roots[a], roots[b]))
            q1.add_term(r1, r2, coef)
            extra = K.mul(f6, K.mul(K.add(roots[t1], roots[t2]),
                                    K.add(roots[p1], roots[p2])))
            q2.add_term(r1, r2, K.mul(coef, extra))
        return out + [q1, q2]

    def c_generators(self):
        """72 labelled generators of the vanishing ideal in the c-variables,
        built once: (label, form) with labels ("O", n) for the identity
        piece and ((i, j), kind, l) with kind "odd"/"even" for the pair
        pieces.  The identity piece is the first twelve independent
        candidates, taken from ``even_diagonal_forms`` as well when the
        sixteen of ``o_plus_candidates`` span less (characteristic 3)."""
        if self._c_generators is None:
            cands = self.o_plus_candidates()
            picked = independent_picks(self.K, [q.vector() for q in cands])
            if len(picked) < 12:
                cands += self.even_diagonal_forms()
                picked = independent_picks(self.K, [q.vector() for q in cands])
            if len(picked) < 12:
                raise Genus2Error("identity piece has rank < 12")
            labelled = [(("O", k), cands[idx]) for k, idx in enumerate(picked[:12])]
            for P in _all_pairs():
                labelled += zip([(P, "odd", 0), (P, "odd", 1), (P, "even", 1), (P, "even", 2)],
                                self.pair_generators(P))
            self._c_generators = labelled
        return self._c_generators

    def invariant_generators(self):
        """The 72 ``c_generators`` composed with C, v -> Q(C v) in one
        batched product: (label, form) over the splitting field in Coords16,
        generators of the vanishing ideal of the Jacobian."""
        labels, forms = zip(*self.c_generators())
        return list(zip(labels, compose_forms(forms, self.C)))

    # -- field-of-definition tags ---------------------------------------------

    def mask_is_stable(self, m: int) -> bool:
        return self.algebra.frobenius_mask(m) == m

    def definition_field_tag(self, M: Mat) -> str:
        return "ground" if M.frobenius_fixed() else "splitting"


def _all_pairs():
    return [(i, j) for i in range(6) for j in range(i + 1, 6)]


def _elementary_sym(K: Field, roots):
    e1 = K.add(K.add(roots[0], roots[1]), roots[2])
    e2 = K.add(K.add(K.mul(roots[0], roots[1]), K.mul(roots[0], roots[2])),
               K.mul(roots[1], roots[2]))
    e3 = K.mul(K.mul(roots[0], roots[1]), roots[2])
    return (e1, e2, e3)
