"""Exact projective models of genus-2 Jacobians and their two-coverings.

Given y^2 = f(x) with f a separable sextic (f_0, f_6 nonzero), the package
builds the Jacobian as an intersection of 72 quadrics in P^15, the Kummer
surface in P^3 and P^9, the desingularized Kummer surface in P^5 and its
twists V_delta, the linear translation action of the two-torsion subgroup on
all of these models, a simultaneously diagonalizing coordinate system, and,
from twist data (delta, n) with N(delta) = n^2, explicit equations of the
corresponding two-covering together with its covering map and a point search.

All arithmetic is exact: prime fields, one extension F_{p^d}, or Q.
"""

from .fields import Field, FieldElem, parse_field_spec
from .poly import Poly, resultant, splitting_field_and_roots
from .linalg import Mat, solve_linear
from .etale import EtaleAlgebra, TwoTorsionPoint
from .curve import CurveData, DivisorClass, Coords16
from .quadrics import QuadricForm, JacobianModel
from .kummer import KummerModels, VDeltaModel
from .torsion import TorsionActionCtx, DiagonalCoords
from .twist import (TwistDatum, EpsilonChoice, TorsionContexts, TwistModel,
                    count_jacobian_points, search_twist_points,
                    search_vdelta_points, search_vdelta_rational)

__all__ = [
    "Field", "FieldElem", "parse_field_spec",
    "Poly", "resultant", "splitting_field_and_roots",
    "Mat", "solve_linear",
    "EtaleAlgebra", "TwoTorsionPoint",
    "CurveData", "DivisorClass", "Coords16",
    "QuadricForm", "JacobianModel",
    "KummerModels", "VDeltaModel",
    "TorsionActionCtx", "DiagonalCoords",
    "TwistDatum", "EpsilonChoice", "TorsionContexts", "TwistModel",
    "count_jacobian_points", "search_twist_points",
    "search_vdelta_points", "search_vdelta_rational",
]

__version__ = "0.1.0"
