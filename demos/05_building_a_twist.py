"""Build the two-covering attached to a twist datum (delta, n).

The datum comes from the norm-square map of a rational divisor class
(delta = (X - x1)(X - x2), n = y1 y2 / f6, so N(delta) = n^2 always).
Square roots epsilon_w of the root values delta(w) with product n give the
scale factors t_I; substituting t_I c_I for c_I in the graded generators
produces 72 twisted quadrics whose coefficients need only delta and n.  Their
span is defined over F_p, so its reduced row echelon basis, the one that
certifies rank 72, has entries in F_p: those rows are ground-field
equations of the covering.
"""

import random

from genus2covers import (CurveData, EtaleAlgebra, Field, TorsionActionCtx,
                          TwistDatum, TwistModel)
from genus2covers.curve import random_point
from genus2covers.linalg import rank_rows

F = Field.prime(101)
curve = CurveData(F, [5, 1, 2, 1, 1, 3, 1])
alg = EtaleAlgebra(curve)
ctx = TorsionActionCtx(alg)

rng = random.Random(11)
D = random_point(curve, F, rng)
datum = TwistDatum.from_cassels(alg, D)
print("divisor class:", D)
print("delta =", datum.delta, "  n =", F.fmt(datum.n))
print("N(delta) = n^2:", F.eq(datum.delta.norm(), F.mul(datum.n, datum.n)))

tm = TwistModel(ctx, datum)
W = tm.field
print("\nworking field:", W)
print("epsilon =", [W.fmt(e) for e in tm.eps.eps])
print("Galois coherence of the scale factors:", tm.eps.galois_t_equivariance())

print("\n72 twisted quadrics, rank:",
      rank_rows(W, [q.vector() for q in tm.forms]))
divs = [random_point(curve, W, rng) for _ in range(25)]
print("vanish at covering-map pullbacks of 25 points:",
      tm.vanish_at_pullbacks(divs))
print("twisting cocycle matches the mask action:", tm.cocycle_matches_action())
print("odd block spans the V_delta forms:", tm.matches_vdelta())

des = tm.descend_to_ground()
print("\ndescent: 72 ground-field forms, Frobenius-fixed:",
      all(q.frobenius_fixed() for q in des),
      " rank:", rank_rows(F, [q.vector() for q in des]))
