"""The rationals path: everything except root finding, quadric
interpolation, and square-root data works over Q once the six (rational)
roots are supplied.  The test curve y^2 = (x-1)(x+1)(x-2)(x+2)(x-3)(x-12)
has the generic rational class {(0, 12), (-3, 60)}.
"""

from fractions import Fraction

import pytest

from genus2covers.curve import CurveData, DivisorClass, cassels_image
from genus2covers.errors import MissingRoots
from genus2covers.etale import EtaleAlgebra, all_two_torsion, even_masks
from genus2covers.fields import Field
from genus2covers.kummer import KummerModels
from genus2covers.poly import Poly
from genus2covers.torsion import TorsionActionCtx
from genus2covers.twist import TwistDatum
from test_kummer import closed_form_cubic

ROOTS = [1, -1, 2, -2, 3, 12]


@pytest.fixture(scope="module")
def q_setup():
    Q = Field.rationals()
    f = Poly(Q, [1])
    for a in ROOTS:
        f = f * Poly(Q, [Q.from_int(-a), Q.one()])
    curve = CurveData(Q, [f.coeff(i) for i in range(7)])
    alg = EtaleAlgebra(curve, roots=[Q.from_int(a) for a in ROOTS])
    D = DivisorClass(curve, Q, (Fraction(0), Fraction(12)),
                     (Fraction(-3), Fraction(60)))
    return Q, curve, alg, D


def test_roots_must_be_supplied(q_setup):
    Q, curve, _, _ = q_setup
    with pytest.raises(MissingRoots):
        EtaleAlgebra(curve)


def test_rational_divisor_coordinates(q_setup):
    Q, curve, alg, D = q_setup
    c = D.coords()
    assert c.v[0] == Fraction(1)
    b = c.odd
    assert Q.sub(Q.mul(b[0], b[2]), Q.mul(b[1], b[1])) == Fraction(-720)  # -y1 y2


def test_kummer_tower_over_q(q_setup):
    Q, curve, alg, D = q_setup
    km = KummerModels(alg)
    c = D.coords()
    kv = [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]
    assert Q.is_zero(km.kummer_quartic().evaluate(kv, Q))
    assert Q.is_zero(km.weddle_quartic().evaluate(c.odd[:4], Q))
    v1 = km.v_delta(alg.one())
    assert v1.is_solution(c.odd, Q)
    z = km.rho_J(D)
    xi = km.cassels_section(D)
    assert (xi * Fraction(720)).c == z.c  # y1 y2 = 720
    assert km.interpolating_cubic(D) == closed_form_cubic(curve, D)


def test_torsion_over_q(q_setup):
    Q, curve, alg, D = q_setup
    ctx = TorsionActionCtx(alg)
    for P in all_two_torsion()[:5]:
        M = ctx.mp_matrix(P)
        res = ctx.res_gh(P)
        sq = M * M
        for i in range(4):
            for j in range(4):
                assert Q.eq(sq.rows[i][j], res if i == j else Q.zero())
    for m in even_masks(nontrivial_only=True)[:8]:
        ctx.verify_diagonal(m)
    # the graded generators vanish at the rational class
    gens = ctx.invariant_generators()
    vec = D.coords().v
    for _, q in gens:
        assert Q.is_zero(q.evaluate(vec))


def test_cassels_and_datum_over_q(q_setup):
    Q, curve, alg, D = q_setup
    delta, n = cassels_image(D)
    td = TwistDatum(alg, delta, n)
    assert Q.eq(td.delta.norm(), Q.mul(n, n))


def export_action_matrix(ctx, M):
    """JSON form of an action matrix, tagged with its field of definition."""
    K = ctx.K
    return {
        "field_of_definition": ctx.definition_field_tag(M),
        "field": K.spec_string(),
        "entries": [[K.fmt(v) for v in row] for row in M.rows],
    }


def test_export_action_matrix_tags(ref_torsion):
    stable = next(m for m in even_masks() if m and ref_torsion.mask_is_stable(m))
    data = export_action_matrix(ref_torsion, ref_torsion.rho6_matrix(stable))
    assert data["field_of_definition"] == "ground"
    unstable = next(m for m in even_masks(nontrivial_only=True)
                    if not ref_torsion.mask_is_stable(m))
    data2 = export_action_matrix(ref_torsion, ref_torsion.rho6_matrix(unstable))
    assert data2["field_of_definition"] == "splitting"
    assert len(data2["entries"]) == 6
