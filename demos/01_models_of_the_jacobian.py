"""Build the 72 quadrics through a genus-2 Jacobian in P^15 and certify them.

The sixteen coordinates are the ten products k_{ij} = k_i k_j of the
Kummer-surface coordinates and the six odd functions b_1..b_6.  The ideal
is generated by five families of quadrics; this script builds them for one
curve over F_101, prints the family sizes, and runs the exactness
certificates: vanishing at sampled points and the kernel-dimension count.
"""

import random

from genus2covers import CurveData, Field, JacobianModel
from genus2covers.curve import random_point
from genus2covers.linalg import rank_rows
from genus2covers.quadrics import sampling_field, vanishing_kernel_dimensions

F = Field.prime(101)
curve = CurveData(F, [5, 1, 2, 1, 1, 3, 1])
print("curve: y^2 =", curve.f)

jm = JacobianModel(curve, seed=0)
print("\nfamilies:")
print("  rank conditions (Veronese):", len(jm.veronese))
print("  Kummer-quartic quadric:    1")
print("  odd quadrics:              ", len(jm.odd))
print("  shifted odd quadrics:      ", len(jm.odd_b_shift))
print("  hardcoded b_i b_j:         ", len(jm.listed_bb))
print("  interpolated b_i b_j:      ", len(jm.interpolated_bb))
print("  total:", len(jm.forms))

print("\nrank of the 72 coefficient vectors:",
      rank_rows(F, [q.vector() for q in jm.forms]))

K = sampling_field(F)
rng = random.Random(1)
pts = [random_point(curve, K, rng) for _ in range(200)]
print("vanish at 200 random points over", K, "->", jm.vanish_at(pts))

full, even = vanishing_kernel_dimensions(curve, seed=1)
print("kernel dimension from 150 sampled points:", full)
print("even-only kernel dimension:", even)

print("\none generator, as stored (sparse symmetric table):")
print(jm.forms[20].to_json())
