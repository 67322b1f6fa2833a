"""The Kummer surface in P^3, the desingularized model in P^5, its twisted
forms V_delta, and the explicit maps between the two surfaces.

In P^5 the surface is cut out by the three quadratic forms with symmetric
matrices T, RT, R^2T; replacing T by the weighted sums sum_i d_i R^{i+j} T
for j = 0, 1, 2 gives the twist V_delta attached to delta = sum d_i X^i.
Conjugating by the root Vandermonde diagonalizes all of these:
S^t (sum_i d_i R^{i+j} T) S = f6 * diag(w^j lambda_w delta(w)).

The map from P^5 down to P^3 is quadratic and only uses b_1..b_4; its image
factors through the Weddle quartic surface.  The inverse direction evaluates
the products b_r b_i written as quadratics in the k_{ij}.
"""

from __future__ import annotations

import operator

from .curve import DivisorClass, EVEN_PAIRS
from .errors import BadGauge, BasePoint, Genus2Error, NonUnitDelta
from .etale import EtaleAlgebra, LVec
from .fields import Field, FieldElem
from .linalg import Mat
from .poly import Poly, _lift


class MultiPoly:
    """Tiny dict-based multivariate polynomial: {exponent tuple: raw coeff}."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                self.add_term(e, c)

    def add_term(self, expts, c):
        self._add(tuple(expts), self.field.coerce(c))

    def _add(self, e, c):
        """Add the raw coefficient c at the exponent tuple e."""
        F = self.field
        cur = self.terms.get(e)
        new = c if cur is None else F.add(cur, c)
        if F.is_zero(new):
            self.terms.pop(e, None)
        else:
            self.terms[e] = new

    def _copy(self):
        out = MultiPoly(self.field, self.nvars)
        out.terms = dict(self.terms)
        return out

    def __add__(self, other):
        out = self._copy()
        for e, c in other.terms.items():
            out._add(e, c)
        return out

    def __sub__(self, other):
        out = self._copy()
        F = self.field
        for e, c in other.terms.items():
            out._add(e, F.neg(c))
        return out

    def __mul__(self, other):
        F = self.field
        out = MultiPoly(F, self.nvars)
        if isinstance(other, MultiPoly):
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    out._add(tuple(map(operator.add, e1, e2)), F.mul(c1, c2))
            return out
        v = F.coerce(other)
        for e, c in self.terms.items():
            out._add(e, F.mul(c, v))
        return out

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int):
        return max((e[var] for e in self.terms), default=0)

    def evaluate(self, vec, K: Field = None):
        F = self.field
        K = K or F
        acc = K.zero()
        for e, c in self.terms.items():
            term = _lift(F, K, c)
            for var, power in enumerate(e):
                for _ in range(power):
                    term = K.mul(term, vec[var])
            acc = K.add(acc, term)
        return acc

    def compose_linear(self, M: Mat) -> "MultiPoly":
        """Substitute variables v_i -> L_i = sum_j M[i][j] v_j, by Horner's
        rule in v_0, then v_1, ...: sum_a L_0^a q_a(L_1, ...) where
        q = sum_a v_0^a q_a.  Each power of an L_i is expanded once."""
        F = M.field
        n = self.nvars
        const = (0,) * n
        powers = []  # powers[i][k] = L_i^k
        for i in range(n):
            one, lin = MultiPoly(F, n), MultiPoly(F, n)
            one._add(const, F.one())
            for j in range(n):
                lin._add(const[:j] + (1,) + const[j + 1:], M.rows[i][j])
            powers.append([one, lin])

        def power(i, k):
            while len(powers[i]) <= k:
                powers[i].append(powers[i][-1] * powers[i][1])
            return powers[i][k]

        def compose(terms, i):
            # the terms share their exponents of v_0 .. v_(i-1)
            groups = {}
            for e, c in terms:
                groups.setdefault(e[i], []).append((e, c))
            out = MultiPoly(F, n)
            for k, group in groups.items():
                if i == n - 1:
                    part = power(i, k) * group[0][1]
                else:
                    part = compose(group, i + 1)
                    if k:
                        part = part * power(i, k)
                for e, c in part.terms.items():
                    out._add(e, c)
            return out

        terms = [(e, _lift(self.field, F, c)) for e, c in self.terms.items()]
        return compose(terms, 0) if terms else MultiPoly(F, n)

    def scaled(self, s):
        return self * s

    def map_field(self, G: Field) -> "MultiPoly":
        """The same polynomial over G; itself when G is its own field."""
        if G == self.field:
            return self
        out = MultiPoly(G, self.nvars)
        for e, c in self.terms.items():
            out.terms[e] = _lift(self.field, G, c)
        return out

    def to_json(self):
        return [[list(e), self.field.fmt(c)] for e, c in sorted(self.terms.items())]


def form_values(mats, vec6, K: Field):
    """x^t M x for each 6x6 matrix M, at a 6-vector x over K (a field that
    holds the entries of every M)."""
    out = []
    for M in mats:
        acc = K.zero()
        for i in range(6):
            for j in range(6):
                acc = K.add(acc, K.mul(_lift(M.field, K, M.rows[i][j]),
                                       K.mul(vec6[i], vec6[j])))
        out.append(acc)
    return out


def _mono(n, *pairs):
    e = [0] * n
    for var, power in pairs:
        e[var] += power
    return tuple(e)


class VDeltaModel:
    """Three symmetric 6x6 matrices cutting out V_delta in P^5.

    The coordinate system is dual to the reversal basis g_1..g_6, so a
    point of L is plugged in through its g-basis coordinate vector; on the
    image of the Jacobian those coordinates are exactly (b_1, ..., b_6).
    """

    def __init__(self, algebra: EtaleAlgebra, delta: LVec):
        if delta.field.is_zero(delta.norm()):
            raise NonUnitDelta("delta has norm 0")
        self.algebra = algebra
        self.delta = delta
        F = delta.field
        k = algebra.field
        R_pows = algebra.R_pows
        T = algebra.T
        mats = []
        for j in range(3):
            acc = Mat.zeros(F, 6, 6)
            for i in range(6):
                di = delta.c[i]
                if F.is_zero(di):
                    continue
                RT = R_pows[i + j] * T
                block = Mat(F, [[F.mul(di, _lift(k, F, v)) for v in row]
                                for row in RT.rows])
                acc = acc + block
            if not acc.is_symmetric():
                raise Genus2Error("V_delta matrix failed symmetry")
            mats.append(acc)
        self.matrices = mats

    def is_solution(self, vec6, K: Field = None) -> bool:
        K = K or self.delta.field
        return all(K.is_zero(v) for v in form_values(self.matrices, vec6, K))

    def to_json(self):
        F = self.delta.field
        return [[[F.fmt(v) for v in row] for row in M.rows] for M in self.matrices]


class KummerModels:
    """Cached models of the Kummer tower for one curve."""

    def __init__(self, algebra: EtaleAlgebra):
        self.algebra = algebra
        self.curve = algebra.curve
        self.field = algebra.field
        self._quartic = None
        self._weddle = None

    # -- P^3 ---------------------------------------------------------------

    def kummer_quartic(self) -> MultiPoly:
        """The quartic in (k_1..k_4) cutting out the Kummer surface."""
        if self._quartic is None:
            from .quadrics import kummer_image_quadric
            q = kummer_image_quadric(self.curve)
            F = self.field
            out = MultiPoly(F, 4)
            for (a, b), c in q.coeffs.items():
                pa, pb = EVEN_PAIRS[a], EVEN_PAIRS[b]
                e = _mono(4, (pa[0] - 1, 1), (pa[1] - 1, 1),
                          (pb[0] - 1, 1), (pb[1] - 1, 1))
                out.add_term(e, c)
            self._quartic = out
        return self._quartic

    # -- P^5 ---------------------------------------------------------------

    def y_matrices(self):
        """T, RT, R^2T: the three quadratic forms of the P^5 model, which
        are V_delta at delta = 1."""
        return self.v_delta(self.algebra.one()).matrices

    def y_quadrics(self):
        """The same three forms as QuadricForms in the odd coordinates."""
        from .quadrics import QuadricForm
        return [QuadricForm.from_odd_matrix(M) for M in self.y_matrices()]

    def v_delta(self, delta: LVec) -> VDeltaModel:
        return VDeltaModel(self.algebra, delta)

    # -- the section J -> P^5 as an element of L -----------------------------

    def rho_J(self, D: DivisorClass) -> LVec:
        """sum b_i(D) g_i, an element of L over D's field."""
        F = D.field
        b = D.coords().odd
        coeffs = [F.zero()] * 6
        k = self.field
        f = self.curve.coeffs
        # g_i = f_i + f_{i+1} X + ... + f_6 X^{6-i}
        for i in range(1, 7):
            bi = b[i - 1]
            if F.is_zero(bi):
                continue
            for t in range(0, 7 - i):
                coeffs[t] = F.add(coeffs[t], F.mul(bi, _lift(k, F, f[i + t])))
        return self.algebra.elem(coeffs, F)

    def interpolating_cubic(self, D: DivisorClass) -> Poly:
        """The cubic tangent to the curve at both points of D."""
        F = D.field
        x1, y1 = D.p1
        x2, y2 = D.p2
        fK = self.curve.f.map_field(F)
        dfK = fK.derivative()
        el = lambda v: FieldElem(F, v)

        def g_cd(c, d):
            # (c-d)^-2 (X-c)^2 (X-d)
            X = Poly(F, [F.zero(), F.one()])
            num = (X - Poly(F, [c])) * (X - Poly(F, [c])) * (X - Poly(F, [d]))
            return num * F.inv(F.mul(F.sub(c, d), F.sub(c, d)))

        def h_cd(c, d):
            # (c-d)^-3 (X-c)^2 (2X + c - 3d)
            X = Poly(F, [F.zero(), F.one()])
            num = (X - Poly(F, [c])) * (X - Poly(F, [c])) \
                * (Poly(F, [F.sub(c, F.mul(F.from_int(3), d)), F.from_int(2)]))
            dd = F.sub(c, d)
            return num * F.inv(F.mul(F.mul(dd, dd), dd))

        t1 = g_cd(x1, x2) * (el(dfK.evaluate(x2)) / (2 * el(y2))).v
        t2 = g_cd(x2, x1) * (el(dfK.evaluate(x1)) / (2 * el(y1))).v
        t3 = h_cd(x1, x2) * y2
        t4 = h_cd(x2, x1) * y1
        return t1 + t2 + t3 + t4

    def cassels_section(self, D: DivisorClass) -> LVec:
        """M(X) / ((X - x1)(X - x2)) as an element of L over D's field."""
        F = D.field
        M = self.interpolating_cubic(D)
        x1, _ = D.p1
        x2, _ = D.p2
        denom = self.algebra.elem(
            [F.mul(x1, x2), F.neg(F.add(x1, x2)), F.one(),
             F.zero(), F.zero(), F.zero()], F)
        num = self.algebra.from_poly(M, F)
        return num * denom.inverse()

    # -- maps between the P^3 and P^5 models ---------------------------------

    def map_Y_to_X(self, b, K: Field = None):
        """[b1:..:b6] -> [k1:k2:k3:k4]; only b1..b4 are used."""
        K = K or self.field
        f = [_lift(self.field, K, c) for c in self.curve.coeffs]
        b1, b2, b3, b4 = b[0], b[1], b[2], b[3]
        m = K.mul
        k1 = K.sub(m(b1, b3), m(b2, b2))
        k2 = K.sub(m(b1, b4), m(b2, b3))
        k3 = K.sub(m(b2, b4), m(b3, b3))
        k4 = K.zero()
        for c, (u, v) in zip(f, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]):
            k4 = K.add(k4, m(c, m(b[u], b[v])))
        out = [k1, k2, k3, k4]
        if all(K.is_zero(v) for v in out):
            raise BasePoint("all four image coordinates vanish")
        return out

    def map_X_to_Y(self, jm, kvec4, r: int, K: Field = None):
        """(b_r b_1 : ... : b_r b_6) at a P^3 point, using the model ``jm``.

        Raises BadGauge when b_r vanishes there (then every output entry is
        zero); if that happens for every r the point is a node image.
        """
        K = K or self.field
        out = [jm.bb_value(r, i, kvec4, K) for i in range(1, 7)]
        if all(K.is_zero(v) for v in out):
            raise BadGauge(f"b_{r} vanishes at this point")
        return out

    # -- Weddle surface -------------------------------------------------------

    def weddle_quartic(self) -> MultiPoly:
        """The quartic in (b_1..b_4) cutting out the Weddle surface."""
        if self._weddle is None:
            F = self.field
            f = self.curve.coeffs
            out = MultiPoly(F, 4)
            for (scale, fidx, expts) in _WEDDLE_TERMS:
                c = F.from_int(scale)
                c = F.mul(c, f[fidx])
                out.add_term(expts, c)
            self._weddle = out
        return self._weddle


# Weddle quartic terms: (integer scale, f index, exponents of b1..b4)
_WEDDLE_TERMS = [
    (1, 0, (3, 0, 0, 1)), (-3, 0, (2, 1, 1, 0)), (1, 1, (2, 1, 0, 1)),
    (-1, 1, (2, 0, 2, 0)), (2, 0, (1, 3, 0, 0)), (-1, 1, (1, 2, 1, 0)),
    (1, 2, (1, 2, 0, 1)), (-2, 2, (1, 1, 2, 0)), (-1, 3, (1, 0, 3, 0)),
    (-1, 4, (1, 0, 2, 1)), (-1, 5, (1, 0, 1, 2)), (-1, 6, (1, 0, 0, 3)),
    (1, 1, (0, 4, 0, 0)), (1, 2, (0, 3, 1, 0)), (1, 3, (0, 3, 0, 1)),
    (2, 4, (0, 2, 1, 1)), (1, 5, (0, 2, 0, 2)), (-1, 4, (0, 1, 3, 0)),
    (1, 5, (0, 1, 2, 1)), (3, 6, (0, 1, 1, 2)), (-1, 5, (0, 0, 4, 0)),
    (-2, 6, (0, 0, 3, 1)),
]
