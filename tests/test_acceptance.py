"""Acceptance suite: every top-level criterion, exact arithmetic throughout
(tolerance is identically zero), property-based over finite fields.

Criteria 1-6 run over a family of >= 20 random separable sextics with
nonzero f0 f6 over random primes in [50, 2000]; criterion 7 runs the twist
pipeline (>= 10 twist data each, including the trivial pair and >= 3 Cassels
images) on a 3-curve subset plus a dedicated p <= 13 curve for the
exhaustive point count; criteria 8 and 9 ride along on the same data.
One PASS line is printed per criterion.
"""

import json
import random
import time

import pytest

from genus2covers.cli import main as cli_main
from genus2covers.curve import CurveData, random_point
from genus2covers.errors import Genus2Error, NotGeneric, TIVanishes
from genus2covers.etale import (EtaleAlgebra, all_two_torsion, even_masks,
                                weil_pairing)
from genus2covers.fields import Field, is_prime
from genus2covers.kummer import KummerModels
from genus2covers.linalg import Mat, rank_rows
from genus2covers.poly import Poly, _lift
from genus2covers.quadrics import (JacobianModel, sampling_field,
                                   vanishing_kernel_dimensions)
from genus2covers.torsion import TorsionActionCtx
from genus2covers.twist import (TwistDatum, TwistModel, count_jacobian_points,
                                search_twist_points)
from conftest import rand_elem
from test_kummer import plain_compose_linear, scaled_terms

N_CURVES = 20
SEED = 1009


def _random_prime(rng):
    while True:
        p = rng.randrange(50, 2001)
        if is_prime(p):
            return p


def _random_curve(rng):
    p = _random_prime(rng)
    F = Field.prime(p)
    while True:
        coeffs = [F.rand(rng) for _ in range(7)]
        if F.is_zero(coeffs[0]) or F.is_zero(coeffs[6]):
            continue
        f = Poly(F, coeffs)
        if f.is_separable():
            return CurveData(F, coeffs)


class CurveContext:
    def __init__(self, curve, seed):
        self.curve = curve
        self.seed = seed
        self.field = curve.field
        self._algebra = None
        self._torsion = None
        self._jm = None
        self.jm_seconds = None

    @property
    def algebra(self):
        if self._algebra is None:
            self._algebra = EtaleAlgebra(self.curve, seed=self.seed)
        return self._algebra

    @property
    def torsion(self):
        if self._torsion is None:
            self._torsion = TorsionActionCtx(self.algebra)
        return self._torsion

    @property
    def jm(self):
        if self._jm is None:
            start = time.monotonic()
            self._jm = JacobianModel(self.curve, seed=self.seed)
            self.jm_seconds = time.monotonic() - start
        return self._jm


@pytest.fixture(scope="module")
def family():
    rng = random.Random(SEED)
    return [CurveContext(_random_curve(rng), seed=SEED + i)
            for i in range(N_CURVES)]


@pytest.fixture(scope="module")
def small_curve():
    F = Field.prime(11)
    f = Poly(F, [1])
    for a in (1, 2, 3, 4, 5, 7):
        f = f * Poly(F, [F.neg(F.from_int(a)), F.one()])
    return CurveData(F, [f.coeff(i) for i in range(7)])


def _report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} ({name}) failed {detail}"


def test_criterion_1_quadrics(family):
    """72 quadrics vanish at 200 points; kernel certificate 72; even part 21;
    under 30 s per curve."""
    worst = 0.0
    for ctx in family:
        start = time.monotonic()
        jm = ctx.jm
        K = sampling_field(ctx.field)
        rng = random.Random(ctx.seed * 13 + 1)
        pts = [random_point(ctx.curve, K, rng) for _ in range(200)]
        assert jm.vanish_at(pts), f"p={ctx.field.p} vanishing failed"
        assert rank_rows(ctx.field, [q.vector() for q in jm.forms]) == 72
        kdim, edim = vanishing_kernel_dimensions(ctx.curve, seed=ctx.seed)
        assert kdim == 72 and edim == 21
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert elapsed < 30.0, f"p={ctx.field.p} took {elapsed:.1f}s"
    _report(1, "quadric correctness and count", True,
            f"{len(family)} curves, worst {worst:.1f}s")


def test_criterion_2_translation_matrices(family):
    """M_P^2 = Res(g,h) Id, det M_P = Res^2, quartic invariance, all 15 P."""
    for ctx in family:
        tor = ctx.torsion
        K = tor.K
        km = KummerModels(ctx.algebra)
        quartic = km.kummer_quartic()
        for P in all_two_torsion():
            M = tor.mp_matrix(P)
            res = tor.res_gh(P)
            sq = M * M
            for i in range(4):
                for j in range(4):
                    assert K.eq(sq.rows[i][j], res if i == j else K.zero())
            assert K.eq(M.det(), K.mul(res, res))
            assert plain_compose_linear(quartic, M).terms == \
                scaled_terms(quartic, K.mul(res, res), K)
    _report(2, "translation matrices", True, f"{len(family)} curves x 15 points")


def test_criterion_3_group_law(family):
    """T10(P)T10(Q) = e_W(P,Q) T10(P+Q), 225 ordered pairs; charpoly."""
    for ctx in family:
        tor = ctx.torsion
        K = tor.K
        pts = all_two_torsion()
        expect = Poly(K, [1])
        for _ in range(6):
            expect = expect * Poly(K, [K.from_int(-1), K.one()])
        for _ in range(4):
            expect = expect * Poly(K, [K.one(), K.one()])
        for P in pts:
            assert tor.t10_matrix(P).charpoly() == expect
        for P in pts:
            TP = tor.t10_matrix(P)
            for Q in pts:
                e = weil_pairing(P, Q)
                lhs = TP * tor.t10_matrix(Q)
                rhs = tor.t10_matrix(P + Q).scale(K.from_int(e))
                assert lhs.rows == rhs.rows
    _report(3, "group law on the even coordinates", True,
            f"{len(family)} curves x 225 pairs")


def test_criterion_4_diagonalization(family):
    """G G^{-1} = Id from the closed-form tables; all 31 masks diagonal with
    character entries; census = 6 + 10 odd-partition characters."""
    for ctx in family:
        tor = ctx.torsion  # ctor asserts G * G_inv == Id
        K = tor.K
        masks = even_masks(nontrivial_only=True)
        observed = [[] for _ in range(16)]
        for m in masks:
            diag = tor.verify_diagonal(m)  # raises unless diagonal + characters
            for slot in range(16):
                observed[slot].append(1 if K.eq(diag[slot], K.one()) else -1)
        expected = {}
        for rep in tor.reps:
            key = tuple(1 if bin(rep & m).count("1") % 2 == 0 else -1
                        for m in masks)
            expected[key] = 0
        for i in range(6):
            key = tuple(1 if bin((1 << i) & m).count("1") % 2 == 0 else -1
                        for m in masks)
            expected[key] = 0
        assert len(expected) == 16
        for row in observed:
            assert tuple(row) in expected
            expected[tuple(row)] += 1
        assert all(v == 1 for v in expected.values())
    _report(4, "diagonalization", True, f"{len(family)} curves x 31 masks")


def test_criterion_5_kummer_tower(family):
    """P^5 model vanishing (100 pts), section identity (50), X<->Y roundtrip
    (50), Weddle (100), multiplication equivariance (10 xi)."""
    for ctx in family:
        F = ctx.field
        alg = ctx.algebra
        km = KummerModels(alg)
        K = sampling_field(F)
        rng = random.Random(ctx.seed * 29 + 2)
        mats = km.y_matrices()
        weddle = km.weddle_quartic()
        pts = [random_point(ctx.curve, K, rng) for _ in range(100)]
        for D in pts:
            b = D.coords().odd
            for M in mats:
                acc = K.zero()
                for i in range(6):
                    for j in range(6):
                        acc = K.add(acc, K.mul(_lift(F, K, M.rows[i][j]),
                                               K.mul(b[i], b[j])))
                assert K.is_zero(acc)
            assert K.is_zero(weddle.evaluate(b[:4], K))
        for D in pts[:50]:
            z = km.rho_J(D)
            xi = km.cassels_section(D)
            y1y2 = K.mul(D.p1[1], D.p2[1])
            assert (xi * y1y2).c == z.c
        jm = ctx.jm
        done = 0
        for D in pts:
            if done == 50:
                break
            c = D.coords()
            kv = [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]
            r = next((i for i in range(1, 7) if not K.is_zero(c.odd[i - 1])), None)
            if r is None:
                continue
            bb = km.map_X_to_Y(jm, kv, r, K)
            for i in range(6):
                for j in range(i + 1, 6):
                    assert K.is_zero(K.sub(K.mul(bb[i], c.odd[j]),
                                           K.mul(bb[j], c.odd[i])))
            out = km.map_Y_to_X(c.odd, K)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert K.is_zero(K.sub(K.mul(out[i], kv[j]),
                                           K.mul(out[j], kv[i])))
            done += 1
        assert done == 50
        # multiplication equivariance at the matrix level for 10 random xi
        T, T_inv = alg.T, alg.T.inv()
        done = 0
        while done < 10:
            eta = rand_elem(alg, rng)
            xi = rand_elem(alg, rng)
            if F.is_zero(eta.norm()) or F.is_zero(xi.norm()):
                continue
            delta = eta * eta
            vd = km.v_delta(delta)
            vdx = km.v_delta(delta * xi * xi)
            xiR = Mat.zeros(F, 6, 6)
            for i, cc in enumerate(xi.c):
                if not F.is_zero(cc):
                    xiR = xiR + alg.R_pows[i].scale(cc)
            W = T_inv * xiR * T
            for Mj, Mjx in zip(vd.matrices, vdx.matrices):
                assert (W.transpose() * Mj * W).rows == Mjx.rows
            done += 1
    _report(5, "desingularized Kummer tower", True, f"{len(family)} curves")


def test_criterion_6_ideal_decomposition(family):
    """Generator counts 12 + 15*(2+2) with the stated parities; joint rank
    with the direct 72 equals 72."""
    for ctx in family:
        tor = ctx.torsion
        K = tor.K
        gens = tor.invariant_generators()
        assert len(gens) == 72
        o_part = [q for l, q in gens if l[0] == "O"]
        assert len(o_part) == 12
        for l, q in gens:
            if l[0] == "O":
                continue
            # parity: odd pieces live on mixed monomials, even pieces on
            # even-even and odd-odd monomials
            mixed = any(i < 10 <= j for (i, j) in q.coeffs)
            if l[1] == "odd":
                assert mixed and all(i < 10 <= j for (i, j) in q.coeffs)
            else:
                assert all(not (i < 10 <= j) for (i, j) in q.coeffs)
        vecs = [q.vector() for _, q in gens]
        jvecs = [[_lift(ctx.field, K, v) for v in q.vector()]
                 for q in ctx.jm.forms]
        assert rank_rows(K, vecs) == 72
        assert rank_rows(K, vecs + jvecs) == 72
    _report(6, "ideal decomposition", True, f"{len(family)} curves")


def _gamma_pairs(alg, rng, count):
    """Twist data: the trivial pair, >= 3 Cassels images, and random
    norm-square pairs."""
    F = alg.field
    out = [TwistDatum.trivial(alg)]
    while len(out) < 4:
        try:
            D = random_point(alg.curve, F, rng)
            out.append(TwistDatum.from_cassels(alg, D))
        except Genus2Error:
            continue
    while len(out) < count:
        xi = rand_elem(alg, rng)
        if F.is_zero(xi.norm()):
            continue
        c = F.rand(rng)
        if F.is_zero(c):
            continue
        delta = (xi * xi) * c
        n2 = F.mul(F.pw(c, 6), F.pw(xi.norm(), 2))
        n = F.sqrt(n2)
        if n is None:
            continue
        try:
            out.append(TwistDatum(alg, delta.c, n))
        except Genus2Error:
            continue
    return out


def test_criterion_7_twist_pipeline(family, small_curve):
    """>= 10 twist data per curve on a 3-curve subset: construction or t_I
    report; vanishing at 100 pullbacks; Frobenius-fixed descent of rank 72;
    Galois equivariance of t; exhaustive count on the trivial twist at p=11."""
    subset = family[:3]
    total_built = total_reported = 0
    for ctx in subset:
        F = ctx.field
        rng = random.Random(ctx.seed * 53 + 3)
        tor = ctx.torsion
        for datum in _gamma_pairs(ctx.algebra, rng, 10):
            try:
                tm = TwistModel(tor, datum, seed=ctx.seed)
            except TIVanishes as exc:
                assert exc.partitions
                total_reported += 1
                continue
            total_built += 1
            divs = []
            while len(divs) < 100:
                try:
                    divs.append(random_point(ctx.curve, F, rng))
                except NotGeneric:
                    continue
            assert tm.vanish_at_pullbacks(divs)
            assert tm.eps.galois_t_equivariance()
            des = tm.descend_to_ground()
            assert all(q.frobenius_fixed() for q in des)
            assert rank_rows(F, [q.vector() for q in des]) == 72
    # exhaustive count against the divisor-class enumeration oracle
    alg11 = EtaleAlgebra(small_curve)
    tor11 = TorsionActionCtx(alg11)
    tm11 = TwistModel(tor11, TwistDatum.trivial(alg11))
    got = len(search_twist_points(tm11))
    expect = count_jacobian_points(small_curve)
    assert got == expect, f"{got} != {expect}"
    _report(7, "twist pipeline", True,
            f"{total_built} built + {total_reported} reported; "
            f"#A(F_11) = {got} = #J(F_11)")


def test_criterion_8_vdelta_consistency(family):
    """The odd block of each twisted model spans exactly the three V_delta
    forms."""
    subset = family[:3]
    checked = 0
    for ctx in subset:
        rng = random.Random(ctx.seed * 67 + 4)
        for datum in _gamma_pairs(ctx.algebra, rng, 5):
            try:
                tm = TwistModel(ctx.torsion, datum, seed=ctx.seed)
            except TIVanishes:
                continue
            assert tm.matches_vdelta()
            checked += 1
    assert checked >= 9
    _report(8, "V_delta consistency", True, f"{checked} twists")


REFERENCE = "[5,1,2,1,1,3,1]"


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical reruns; `verify all` on the pinned reference curve
    passes in under five minutes."""
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code = cli_main(["model", "--field", "F101", "--curve", REFERENCE,
                         "--which", "jacobian", "--seed", "5",
                         "--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    start = time.monotonic()
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--field", "F101", "--curve", REFERENCE,
                     "--suite", "all", "--out", str(out)])
    elapsed = time.monotonic() - start
    data = json.loads(out.read_text())
    assert code == 0 and data["ok"] is True
    assert elapsed < 300.0
    _report(9, "CLI determinism and pinned verify", True, f"{elapsed:.0f}s")
