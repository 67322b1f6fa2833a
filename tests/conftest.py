import random
import sys

import pytest

from genus2covers.curve import CurveData
from genus2covers.etale import EtaleAlgebra
from genus2covers.fields import Field
from genus2covers.poly import Poly
from genus2covers.quadrics import JacobianModel
from genus2covers.torsion import TorsionActionCtx


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


@pytest.fixture()
def rng():
    return random.Random(20260809)


@pytest.fixture()
def rref_calls(monkeypatch):
    """A list that grows by one on every ``fp_rref`` or ``fq_rref`` call,
    from whichever package module makes it."""
    from genus2covers import linalg
    calls = []
    for name in ("fp_rref", "fq_rref"):
        kernel = getattr(linalg, name)
        counted = lambda F, A, kernel=kernel: calls.append(1) or kernel(F, A)
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
