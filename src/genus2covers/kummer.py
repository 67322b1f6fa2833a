"""The Kummer surface in P^3, the desingularized model in P^5, its twisted
forms V_delta, and the explicit maps between the two surfaces.

In P^5 the surface is cut out by the three quadratic forms with symmetric
matrices T, RT, R^2T; replacing T by the weighted sums sum_i d_i R^{i+j} T
for j = 0, 1, 2 gives the twist V_delta attached to delta = sum d_i X^i.
Conjugating by the root Vandermonde diagonalizes all of these:
S^t (sum_i d_i R^{i+j} T) S = f6 * diag(w^j lambda_w delta(w)).

The Kummer quartic in P^3 is the Kummer quadric Q of P^9 (the 21st even
generator of the Jacobian) on the Veronese image v(k) = (k_i k_j):
K(k) = Q(v(k)) (``veronese_quartic``).  Translation by a two-torsion point P
sends v(k) to Res(g, h) T10_P v(k), so K(M_P k) = Res^2 K(k) exactly when
Q(T10_P v) and Q(v) give the same quartic.

The map from P^5 down to P^3 is quadratic and only uses b_1..b_4; its image
factors through the Weddle quartic surface.  The inverse direction evaluates
the products b_r b_i written as quadratics in the k_{ij}.
"""

from __future__ import annotations

from .curve import DivisorClass, EVEN_PAIRS
from .errors import BadGauge, BasePoint, Genus2Error, NonUnitDelta
from .etale import EtaleAlgebra, LVec
from .fields import Field
from .linalg import Mat, solve_linear
from .poly import Poly, _lift
from .quadrics import QuadricForm, forms_vanish_at, kummer_image_quadric


class MultiPoly:
    """Tiny dict-based multivariate polynomial: {exponent tuple: raw coeff}."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int):
        self.field = field
        self.nvars = nvars
        self.terms = {}

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

    def to_json(self):
        return [[list(e), self.field.fmt(c)] for e, c in sorted(self.terms.items())]


def even_matrix(q: QuadricForm, K: Field) -> Mat:
    """The upper-triangular 10x10 matrix A over K of an even-only quadric q
    (a field that holds its coefficients), so that q(v) = v^T A v."""
    rows = [[K.zero()] * 10 for _ in range(10)]
    for (a, b), c in q.coeffs.items():
        rows[a][b] = _lift(q.field, K, c)
    return Mat(K, rows)


def veronese_quartic(B: Mat) -> MultiPoly:
    """The quartic v(k)^T B v(k) in k_1..k_4 of a 10x10 matrix B on the even
    coordinates, v(k) = (k_i k_j) in slot order: B[a][b] adds to the
    monomial k_i k_j k_u k_v, where slot a = (i, j) and slot b = (u, v)."""
    out = MultiPoly(B.field, 4)
    for (i, j), row in zip(EVEN_PAIRS, B.rows):
        for (u, v), c in zip(EVEN_PAIRS, row):
            e = [0] * 4
            for t in (i, j, u, v):
                e[t - 1] += 1
            out._add(tuple(e), c)
    return out


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
        self.forms = [QuadricForm.from_odd_matrix(M) for M in mats]

    def is_solution(self, vec6, K: Field = None) -> bool:
        """All three forms vanish at the odd coordinates vec6 over K (a field
        that holds delta's coefficients)."""
        K = K or self.delta.field
        return forms_vanish_at(self.forms, [([K.zero()] * 10 + list(vec6), K)])

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
        """The quartic in (k_1..k_4) cutting out the Kummer surface: the
        Kummer quadric of P^9 on the Veronese image."""
        if self._quartic is None:
            q = kummer_image_quadric(self.curve)
            self._quartic = veronese_quartic(even_matrix(q, self.field))
        return self._quartic

    # -- P^5 ---------------------------------------------------------------

    def y_matrices(self):
        """T, RT, R^2T: the three quadratic forms of the P^5 model, which
        are V_delta at delta = 1."""
        return self.v_delta(self.algebra.one()).matrices

    def y_quadrics(self):
        """The same three forms as QuadricForms in the odd coordinates."""
        return self.v_delta(self.algebra.one()).forms

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
        """The cubic M tangent to the curve at both points of D: the Hermite
        solve M(x_i) = y_i, M'(x_i) = f'(x_i) / (2 y_i)."""
        F = D.field
        df = self.curve.f.map_field(F).derivative()
        rows, rhs = [], []
        for x, y in (D.p1, D.p2):
            xx = F.mul(x, x)
            rows += [[F.one(), x, xx, F.mul(xx, x)],
                     [F.zero(), F.one(), F.add(x, x), F.mul(F.from_int(3), xx)]]
            rhs += [y, F.div(df.evaluate(x), F.mul(F.from_int(2), y))]
        X, _ = solve_linear(Mat(F, rows), Mat(F, [[v] for v in rhs]))
        return Poly(F, X.col(0))

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
