import random
import sys

import numpy as np
import pytest
from hypothesis import settings

from genus2covers.curve import CurveData, _add_points
from genus2covers.errors import Genus2Error, MissingRoots
from genus2covers.etale import EtaleAlgebra
from genus2covers.fields import Field
from genus2covers.linalg import Mat, rank_rows
from genus2covers.poly import Poly, _lift
from genus2covers.quadrics import JacobianModel
from genus2covers.torsion import TorsionActionCtx


# Tier-1 draws the same examples on every run; `--hypothesis-profile=random`
# draws fresh ones, as CI's second run does.  Each test keeps its own
# max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")

# One field of each kind on both sides of the int64 bounds of the array
# kernels: F_101, F_{101^8} and F_{2^31-1} (int64 for single products),
# F_{(2^31-1)^3} and F_{2^32+15} (object arrays of Python ints) and Q (object
# arrays of Fractions).
ARRAY_FIELDS = [Field.prime(101), Field.extension(101, 8), Field.prime(2147483647),
                Field.extension(2147483647, 3), Field.prime(4294967311),
                Field.rationals()]

REFERENCE_COEFFS = [5, 1, 2, 1, 1, 3, 1]  # y^2 = x^6 + 3x^5 + x^4 + x^3 + 2x^2 + x + 5


@pytest.fixture(scope="session")
def ref_field():
    return Field.prime(101)


@pytest.fixture(scope="session")
def ref_curve(ref_field):
    return CurveData(ref_field, REFERENCE_COEFFS)


@pytest.fixture(scope="session")
def ref_algebra(ref_curve):
    return EtaleAlgebra(ref_curve)


@pytest.fixture(scope="session")
def ref_torsion(ref_algebra):
    return TorsionActionCtx(ref_algebra)


@pytest.fixture(scope="session")
def ref_jacobian(ref_curve):
    return JacobianModel(ref_curve, seed=0)


@pytest.fixture(scope="session")
def split_curve_f31():
    """A curve with all six roots rational: y^2 = prod (x - a), a = 1..6."""
    F = Field.prime(31)
    f = Poly(F, [1])
    for a in range(1, 7):
        f = f * Poly(F, [F.neg(F.from_int(a)), F.one()])
    return CurveData(F, [f.coeff(i) for i in range(7)])


@pytest.fixture(scope="session")
def split_curve_f11():
    F = Field.prime(11)
    f = Poly(F, [1])
    for a in (1, 2, 3, 4, 5, 7):
        f = f * Poly(F, [F.neg(F.from_int(a)), F.one()])
    return CurveData(F, [f.coeff(i) for i in range(7)])


def rand_divisor(curve, field, rng):
    from genus2covers.curve import random_point
    return random_point(curve, field, rng)


# -- reference helpers shared by several test modules ---------------------------


def add_two_torsion(D, root_pair):
    """Translation oracle D + P for P the class of a Weierstrass root pair.

    root_pair holds the two root values (in D's field).  This runs the same
    four-point cubic interpolation with the two order-two points (w, 0); it
    is an independent check of the linear translation action.
    """
    F = D.field
    pts = [D.p1, D.p2, (root_pair[0], F.zero()), (root_pair[1], F.zero())]
    return _add_points(D.curve, F, pts)


def rand_elem(alg, rng, field=None):
    """A uniformly random element of L over `field` (the ground field by
    default)."""
    F = field if field is not None else alg.field
    return alg.elem([F.rand(rng) for _ in range(6)], F)


def in_row_span(field, basis_rows, queries):
    """True when every query vector lies in the row span of basis_rows."""
    base = rank_rows(field, basis_rows)
    joint = [list(r) for r in basis_rows] + [list(q) for q in queries]
    return rank_rows(field, joint) == base


def basis_change(alg, vec, frm, to, field=None):
    """Exact linear change between the bases used on L.

    Basis ids: "power" (1, X, ..., X^5), "g" (reversal basis g_1..g_6),
    "root-values" (a(w) per root), "root-dual" (lambda_w^{-1} a(w)).
    Root bases live over the splitting field; ground-basis conversions
    default to the ground field but accept any compatible ``field``.
    """
    known = {"power", "g", "root-values", "root-dual"}
    if frm not in known or to not in known:
        raise Genus2Error(f"unknown basis in {frm!r} -> {to!r}")
    if frm == to:
        return list(vec)
    root_based = {"root-values", "root-dual"}
    if field is None:
        field = alg.splitting if (frm in root_based or to in root_based) else alg.field
    if (frm in root_based or to in root_based) and field != alg.splitting:
        raise MissingRoots("root bases require the splitting field")
    Tm = _map_mat(alg.T, field)
    Ti = _map_mat(alg.T.inv(), field)
    # to power coordinates first
    if frm == "power":
        power = list(vec)
    elif frm == "g":
        power = Tm.matvec(vec)
    else:
        values = list(vec)
        if frm == "root-dual":
            values = [field.mul(v, lam) for v, lam in zip(values, alg.lambdas)]
        power = alg.S.transpose().inv().matvec(values)
    if to == "power":
        return power
    if to == "g":
        return Ti.matvec(power)
    values = alg.S.transpose().matvec(power)
    if to == "root-values":
        return values
    return [field.mul(v, field.inv(lam)) for v, lam in zip(values, alg.lambdas)]


def _map_mat(M, F):
    """M with its entries lifted into F (M itself when F is its field)."""
    if M.field == F:
        return M
    return Mat(F, [[_lift(M.field, F, v) for v in row] for row in M.rows])


@pytest.fixture()
def rng():
    return random.Random(20260809)


@pytest.fixture()
def rref_calls(monkeypatch):
    """A list that grows by the shape of the array on every ``fp_rref`` or
    ``fq_rref`` call, from whichever package module makes it."""
    from genus2covers import linalg
    calls = []
    for name in ("fp_rref", "fq_rref"):
        kernel = getattr(linalg, name)
        counted = lambda F, A, kernel=kernel: calls.append(np.shape(A)) or kernel(F, A)
        for module in list(sys.modules.values()):
            if (module.__name__.split(".")[0] == "genus2covers"
                    and getattr(module, name, None) is kernel):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def sampled_classes(monkeypatch):
    """A list that grows by one on every ``random_point`` call, from
    whichever package module makes it."""
    from genus2covers import curve
    calls = []
    sample = curve.random_point
    counted = lambda *args, **kw: calls.append(1) or sample(*args, **kw)
    for module in list(sys.modules.values()):
        if (module.__name__.split(".")[0] == "genus2covers"
                and getattr(module, "random_point", None) is sample):
            monkeypatch.setattr(module, "random_point", counted)
    return calls
