import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus2covers import twist
from genus2covers.curve import EVEN_PAIRS, CurveData, k4_numerator, random_point
from genus2covers.errors import (GammaViolation, Genus2Error, NonUnitDelta,
                                 RankLoss, TIVanishes)
from genus2covers.etale import EtaleAlgebra, LVec
from genus2covers.fields import Field
from genus2covers.kummer import KummerModels, VDeltaModel
from genus2covers.linalg import (Mat, ext_mul_arrays, kernel_rows, rank_rows,
                                 rref_rows, to_np)
from genus2covers.poly import Poly, _lift
from genus2covers.quadrics import (MIXED_MONOMIALS, MONOMIALS, ODD_MONOMIALS,
                                   QuadricForm, compose_forms)
from genus2covers.torsion import TorsionActionCtx
from genus2covers.twist import (EpsilonChoice, TwistDatum, TwistModel,
                                count_jacobian_points, p5_zeros,
                                search_twist_points, search_vdelta_points,
                                search_vdelta_rational, span_supported,
                                trace_stack, _coefficient_stack, _kernel_pairs,
                                _node_pullbacks, _projective_blocks, _scale_points)
from conftest import rand_elem


@pytest.fixture(scope="module")
def trivial_model(ref_torsion, ref_algebra):
    return TwistModel(ref_torsion, TwistDatum.trivial(ref_algebra))


def test_datum_validation(ref_algebra):
    F = ref_algebra.field
    with pytest.raises(GammaViolation):
        TwistDatum(ref_algebra, [3, 0, 0, 0, 0, 0], 5)
    with pytest.raises(NonUnitDelta):
        TwistDatum(ref_algebra, [0, 0, 0, 0, 0, 0], 0)
    # constant delta = c needs n^2 = c^6
    TwistDatum(ref_algebra, [3, 0, 0, 0, 0, 0], F.pw(F.from_int(3), 3))


def test_cassels_pairs_always_valid(ref_algebra, ref_curve, rng):
    for _ in range(10):
        D = random_point(ref_curve, ref_curve.field, rng)
        TwistDatum.from_cassels(ref_algebra, D)


def test_rescale_stays_valid(ref_algebra, rng):
    F = ref_algebra.field
    td = TwistDatum.trivial(ref_algebra)
    for _ in range(5):
        xi = rand_elem(ref_algebra, rng)
        if F.is_zero(xi.norm()):
            continue
        td2 = td.rescale(xi)
        assert F.eq(td2.delta.norm(), F.mul(td2.n, td2.n))


def test_trivial_epsilon(trivial_model):
    W = trivial_model.field
    eps = trivial_model.eps
    assert all(W.eq(e, W.one()) for e in eps.eps)
    for rep in trivial_model.ctx.reps:
        assert W.eq(eps.t3[rep], W.from_int(2))
        assert W.eq(eps.t_squared_triple(rep), W.from_int(4))


def test_epsilon_sign_flip(ref_torsion, ref_algebra, ref_curve, rng):
    """delta = 1, n = -1 forces exactly one flipped square root -- and then
    every scale factor t_I vanishes, whatever the sign choices: this pair has
    no usable representative, so the model constructor must report all ten
    partitions.  Where the t_I do not vanish, (delta, -n) flips the first
    square root of (delta, n)."""
    td = TwistDatum(ref_algebra, [1, 0, 0, 0, 0, 0], -1)
    with pytest.raises(TIVanishes) as info:
        EpsilonChoice(ref_torsion, td)
    assert len(info.value.partitions) == 10
    F = ref_curve.field
    flipped = 0
    while flipped < 3:
        td = TwistDatum.from_cassels(ref_algebra, random_point(ref_curve, F, rng))
        try:
            ec = EpsilonChoice(ref_torsion, td)
            neg = EpsilonChoice(ref_torsion, TwistDatum(ref_algebra, td.delta.c, F.neg(td.n)))
        except TIVanishes:
            continue
        W = ec.field
        assert W.eq(neg.eps[0], W.neg(ec.eps[0])) and neg.eps[1:] == ec.eps[1:]
        flipped += 1


def test_epsilon_cassels_product(ref_torsion, ref_algebra, ref_curve, rng):
    F = ref_curve.field
    for _ in range(5):
        D = random_point(ref_curve, F, rng)
        td = TwistDatum.from_cassels(ref_algebra, D)
        ec = EpsilonChoice(ref_torsion, td)
        W = ec.field
        prod = W.one()
        for e in ec.eps:
            prod = W.mul(prod, e)
        from genus2covers.poly import _lift
        assert W.eq(prod, _lift(F, W, td.n))


def test_t_product_identities(ref_torsion, ref_algebra, ref_curve, rng):
    """The products of scale factors reduce to ground expressions in delta."""
    F = ref_curve.field
    D = random_point(ref_curve, F, rng)
    td = TwistDatum.from_cassels(ref_algebra, D)
    ec = EpsilonChoice(ref_torsion, td)
    W = ec.field
    eps, deltas, n = ec.eps, ec.deltas, ec.n
    # t_w1 t_w2 = eps_w1 eps_w2 (trivial) and t_w^2 = delta_w
    for i in range(6):
        assert W.eq(W.mul(eps[i], eps[i]), deltas[i])
    # t_theta * t_{theta,w1,w2} = eps_w1 eps_w2 (delta_theta + n/(d_w1 d_w2))
    import itertools
    for (i, j, t) in itertools.combinations(range(6), 3):
        pass
    for t in range(2, 6):
        i, j = 0, 1
        mask = (1 << i) | (1 << j) | (1 << t)
        lhs = W.mul(eps[t], ec.t3[mask])
        rhs = W.mul(W.mul(eps[i], eps[j]),
                    W.add(deltas[t], W.div(n, W.mul(deltas[i], deltas[j]))))
        assert W.eq(lhs, rhs)
    # t_I^2 agrees with the delta-only expression
    for rep in ref_torsion.reps:
        assert W.eq(paper_t_squared(W, deltas, n, rep), ec.t_squared_triple(rep))


def test_galois_t_equivariance(trivial_model, ref_torsion, ref_algebra, ref_curve, rng):
    assert trivial_model.eps.galois_t_equivariance()
    for _ in range(3):
        D = random_point(ref_curve, ref_curve.field, rng)
        tm = TwistModel(ref_torsion, TwistDatum.from_cassels(ref_algebra, D))
        assert tm.eps.galois_t_equivariance()


def test_twisted_rank_and_vanishing(trivial_model, ref_curve, rng):
    W = trivial_model.field
    assert rank_rows(W, [q.vector() for q in trivial_model.forms]) == 72
    divs = [random_point(ref_curve, W, rng) for _ in range(30)]
    assert trivial_model.vanish_at_pullbacks(divs)


def test_trivial_identity_piece_matches_untwisted(trivial_model, ref_torsion):
    """With delta = 1 the three diagonal generators are the untwisted ones."""
    W = trivial_model.field
    untw = dict(ref_torsion.invariant_generators())
    tw = dict(trivial_model.labelled)
    for n in range(3):  # the first three identity-piece picks are diagonal
        assert tw[("O", n)].coeffs == untw[("O", n)].coeffs


def test_cocycle_matches_action(trivial_model, ref_torsion, ref_algebra,
                                ref_curve, rng):
    assert trivial_model.cocycle_matches_action()
    D = random_point(ref_curve, ref_curve.field, rng)
    tm = TwistModel(ref_torsion, TwistDatum.from_cassels(ref_algebra, D))
    assert tm.cocycle_matches_action()


def pull_back(model, coords):
    """g^{-1} of a point of the Jacobian, as a 16-vector over the model's field."""
    return model.eps.covering_inverse().matvec([_lift(coords.field, model.field, v)
                                            for v in coords.v])


def test_covering_roundtrip(trivial_model, ref_torsion, ref_algebra, ref_curve, rng):
    """g^{-1}, composed from diag(1/t_I, 1/eps_w), is the inverse of g, on
    the trivial twist and on a Cassels twist."""
    W = trivial_model.field
    g = trivial_model.covering_matrix()
    gi = g.inv()
    assert (g * gi).rows == Mat.identity(W, 16).rows
    D = random_point(ref_curve, W, rng)
    pulled = pull_back(trivial_model, D.coords())
    back = g.matvec(pulled)
    assert back == D.coords().v
    tm = TwistModel(ref_torsion, TwistDatum.from_cassels(
        ref_algebra, random_point(ref_curve, ref_curve.field, rng)))
    assert tm.eps.covering_inverse() == tm.covering_matrix().inv()


# Reference for the trace descent: an independently assembled descent that
# sums the pair generators against Galois-equivariant weight functions h_r.


def assembled_descent(model):
    """72 ground-field forms: the identity piece as is, and for each of the
    four pair kinds the 15 sums sum_pair h_r(pair) delta_i delta_j q_pair."""
    W = model.ctx.K
    k = model.datum.algebra.field
    deltas = model.eps.deltas
    _, hfuncs = equivariant_weights(model.ctx)
    by_label = dict(model.labelled)
    out = [q for label, q in model.labelled if label[0] == "O"]
    pairs = [lbl[0] for lbl, _ in model.labelled
             if lbl[0] != "O" and lbl[1] == "odd" and lbl[2] == 0]
    for kind in (("odd", 0), ("odd", 1), ("even", 1), ("even", 2)):
        for r in range(15):
            acc = QuadricForm(W)
            for pair in pairs:
                i, j = pair
                scale = W.mul(hfuncs[r](pair), W.mul(deltas[i], deltas[j]))
                for mono, c in by_label[(pair, kind[0], kind[1])].coeffs.items():
                    acc.add_term(*mono, W.mul(c, scale))
            out.append(acc)
    ground = []
    for q in out:
        if any(not W.eq(W.frobenius(c), c) for c in q.coeffs.values()):
            raise RankLoss("assembled form is not Galois invariant")
        vec = [(v[0] if W.kind == "ext" else v) for v in q.vector()]
        ground.append(QuadricForm.from_vector(k, vec))
    return ground


def equivariant_weights(ctx):
    """15 Galois-equivariant functions on root pairs with invertible value
    matrix: symmetric monomials (w1 + w2)^a (w1 w2)^b, widened and then
    randomized if a special configuration makes the canonical grid singular."""
    W = ctx.K
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    roots = ctx.algebra.roots

    def monomial(a, b):
        def h(pair):
            i, j = pair
            s = W.add(roots[i], roots[j])
            m = W.mul(roots[i], roots[j])
            return W.mul(W.pw(s, a), W.pw(m, b))
        return h

    grid = [monomial(a, b) for a in range(5) for b in range(3)]
    mat = Mat(W, [[h(p) for p in pairs] for h in grid])
    if not W.is_zero(mat.det()):
        return mat, grid
    wide = [monomial(a, b) for a in range(8) for b in range(6)]
    rng = random.Random(1729)
    for _ in range(64):
        combo = []
        for _ in range(15):
            coeffs = [W.from_int(rng.randrange(W.p)) for _ in wide]
            combo.append(lambda pair, cs=coeffs: lin_comb(W, cs, wide, pair))
        mat = Mat(W, [[h(p) for p in pairs] for h in combo])
        if not W.is_zero(mat.det()):
            return mat, combo
    raise Genus2Error("no invertible equivariant weight matrix found")


def lin_comb(W, coeffs, funcs, pair):
    acc = W.zero()
    for c, h in zip(coeffs, funcs):
        acc = W.add(acc, W.mul(c, h(pair)))
    return acc


def test_descents_agree(trivial_model, ref_curve):
    F = ref_curve.field
    a = trivial_model.descend_to_ground()
    b = assembled_descent(trivial_model)
    trivial_model._check_descent(*rref_rows(F, [q.vector() for q in b]))
    assert all(q.frobenius_fixed() for q in a + b)
    assert rank_rows(F, [q.vector() for q in a]) == 72
    assert rank_rows(F, [q.vector() for q in a] + [q.vector() for q in b]) == 72


def test_check_descent_refuses_a_smaller_or_a_different_span(trivial_model, ref_curve):
    F = ref_curve.field
    vecs = [q.vector() for q in trivial_model.descend_to_ground()]
    with pytest.raises(RankLoss, match="rank < 72"):
        trivial_model._check_descent(*rref_rows(F, vecs[:71] + vecs[:1]))
    rng = random.Random(5)
    v = next(v for v in ([F.rand(rng) for _ in MONOMIALS] for _ in range(10))
             if rank_rows(F, vecs + [v]) == 73)
    with pytest.raises(RankLoss, match="differs"):
        trivial_model._check_descent(*rref_rows(F, vecs[1:] + [v]))


def test_odd_block_and_descent_reduce_once(trivial_model, rref_calls):
    """The odd block is read from the reduction that certified rank 72, and
    the descent reduces the trace stack once, which also certifies its span."""
    assert len(trivial_model.odd_block()) == 3 and not rref_calls
    assert len(trivial_model.descend_to_ground()) == 72 and len(rref_calls) == 1


def test_descended_forms_vanish_on_twist_points(trivial_model, ref_curve, rng):
    W = trivial_model.field
    des = trivial_model.descend_to_ground()
    from genus2covers.poly import _lift
    for _ in range(10):
        D = random_point(ref_curve, W, rng)
        x = pull_back(trivial_model, D.coords())
        for q in des:
            qc = q.map_field(W)
            assert W.is_zero(qc.evaluate(x))


def cubic_pair_curve(p):
    """y^2 = (x^3 - a)(x^3 - b), a and b the two smallest non-cubes mod p
    (p = 1 mod 3): a [3,3] curve with splitting degree 3."""
    a, b = itertools.islice((c for c in range(2, p) if pow(c, (p - 1) // 3, p) != 1), 2)
    return CurveData(Field.prime(p), [a * b % p, 0, 0, -(a + b) % p, 0, 0, 1])


@pytest.mark.parametrize("p", [103, 2147483647])
def test_trace_descent_on_both_sides_of_the_int64_bound(p, monkeypatch):
    """The trace descent at working degree 3 sums 3 products of residues:
    in int64 at p = 103, on Python ints at p = 2^31 - 1, where
    3 (p-1)^2 > 2^63.  Below the bound an object array gives the same forms
    as int64; above it the object dtype is taken and the result is
    certified."""
    import genus2covers.twist as twist
    from genus2covers.linalg import to_np
    alg = EtaleAlgebra(cubic_pair_curve(p))
    tm = TwistModel(TorsionActionCtx(alg), TwistDatum.trivial(alg))
    assert tm.field.deg == 3
    dtypes = []

    def recorded(field, rows, s):
        arr = to_np(field, rows, s)
        dtypes.append(arr.dtype)
        return arr

    monkeypatch.setattr(twist, "to_np", recorded)
    forms = tm.descend_to_ground()
    assert set(dtypes) == {np.dtype(np.int64 if p == 103 else object)}
    if p == 103:
        monkeypatch.setattr(twist, "to_np", lambda field, rows, s: np.array(rows, dtype=object))
        assert [q.vector() for q in tm.descend_to_ground()] == [q.vector() for q in forms]


def plain_trace_stack(W, rows):
    """Reference trace descent: t^i c through ``ext_mul_arrays``, then the
    Frobenius sum of its e conjugates, one Frobenius-matrix product each;
    every trace must land in the prime field."""
    p, e = W.p, W.deg
    frob = to_np(W, W.frobenius_matrix(), e)
    vecs = to_np(W, rows, e)
    traces = []
    for i in range(e):
        term = ext_mul_arrays(W, vecs, tuple(int(j == i) for j in range(e)))
        trace = np.zeros_like(term)
        for _ in range(e):
            trace = (trace + term) % p
            term = term @ frob.T % p
        assert not np.any(trace[..., 1:])
        traces.append(trace[..., 0])
    return np.concatenate(traces, axis=0)


TRACE_PRIMES = [3, 5, 101, 1999, 2 ** 31 - 1]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(TRACE_PRIMES), d=st.integers(1, 6), double=st.booleans(),
       data=st.data())
def test_trace_stack_matches_frobenius_sums(p, d, double, data):
    """The Hankel-matrix traces equal the Frobenius sums over F_{p^e}, e a
    splitting degree 1-6 or its double (e >= 2), in int64 below the bound
    e (p-1)^2 < 2^63 and on Python ints above it (p = 2^31 - 1)."""
    e = d * (2 if double else 1)
    if e == 1:
        e = 2
    W = Field.extension(p, e)
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entry = st.tuples(*[st.integers(0, p - 1)] * e)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    got = trace_stack(W, rows)
    assert got.dtype == np.dtype(np.int64 if e * (p - 1) ** 2 < 2 ** 63 else object)
    assert got.shape == (e * nrows, ncols)
    assert got.tolist() == plain_trace_stack(W, rows).tolist()


def test_trace_stack_of_twisted_forms_matches_frobenius_sums(ref_torsion, ref_algebra,
                                                            ref_curve, rng):
    """On the 72 twisted forms of a Cassels datum (p = 101), working degree
    4 or 8."""
    D = random_point(ref_curve, ref_curve.field, rng)
    tm = TwistModel(ref_torsion, TwistDatum.from_cassels(ref_algebra, D))
    rows = [q.vector() for q in tm.forms]
    assert trace_stack(tm.field, rows).tolist() == plain_trace_stack(tm.field, rows).tolist()


def test_odd_block_matches_vdelta(trivial_model, ref_torsion, ref_algebra,
                                  ref_curve, rng):
    assert trivial_model.matches_vdelta()
    D = random_point(ref_curve, ref_curve.field, rng)
    tm = TwistModel(ref_torsion, TwistDatum.from_cassels(ref_algebra, D))
    assert tm.matches_vdelta()


def _nonsquare_scalar_datum(alg, rng):
    """(c xi^2, c^3 N(xi)) for a non-square ground scalar c."""
    F = alg.field
    c = next(x for x in range(2, F.p) if F.sqrt(x) is None)
    xi = rand_elem(alg, rng)
    while F.is_zero(xi.norm()):
        xi = rand_elem(alg, rng)
    delta = (xi * xi) * F.from_int(c)
    return TwistDatum(alg, delta.c, F.mul(xi.norm(), F.pw(F.from_int(c), 3)))


def test_quadratic_extension_path(split_curve_f31):
    """A non-square ground scalar over an odd-degree splitting field forces
    the rebuild in the quadratic extension."""
    cur = split_curve_f31
    F = cur.field
    alg = EtaleAlgebra(cur)
    assert alg.splitting.deg == 1
    ctx = TorsionActionCtx(alg)
    rng = random.Random(3)
    tm = TwistModel(ctx, _nonsquare_scalar_datum(alg, rng))
    assert tm.field.deg == 2
    divs = [random_point(cur, tm.field, rng) for _ in range(10)]
    assert tm.vanish_at_pullbacks(divs)
    assert tm.eps.galois_t_equivariance()
    assert tm.cocycle_matches_action()
    assert tm.matches_vdelta()
    des = tm.descend_to_ground()
    assert rank_rows(F, [q.vector() for q in des]) == 72


# The paper's form of the twisted generators: the c-basis generators with
# coefficients weighted by delta_w and n alone, then composed with C.  The
# library composes with diag(t_I, eps_w) C instead; the two must agree.


def paper_t_squared(K, deltas, n, mask3):
    """t_I^2 from the twist data alone: prod_{w in I} delta_w
    + prod_{w not in I} delta_w + 2n."""
    prods = [K.one(), K.one()]
    for i, d in enumerate(deltas):
        prods[mask3 >> i & 1] = K.mul(prods[mask3 >> i & 1], d)
    return K.add(K.add(*prods), K.mul(K.from_int(2), n))


def paper_twisted_generators(ctx, deltas, n):
    """(label, form) for the twisted ideal from (delta_w, n) over ctx.K:

        identity piece:  delta_w on c_w^2 and t_I^2 on c_I^2
        odd piece at the pair (i, j), term c_I c_t:  delta_t + n / (delta_i delta_j)
        even piece, term c_{t1 t2 i} c_{t1 t2 j}:  delta_t1 delta_t2
            + delta_p1 delta_p2 + n (1/delta_i + 1/delta_j); 1 on c_i c_j
    """
    K = ctx.K
    prod = lambda pair: K.mul(deltas[pair[0]], deltas[pair[1]])

    def weight(label, a, b):
        if label[0] == "O":
            return deltas[a - 10] if a >= 10 else paper_t_squared(K, deltas, n, ctx.reps[a])
        (i, j), kind, _ = label
        r = K.div(n, K.mul(deltas[i], deltas[j]))
        if kind == "odd":
            return K.add(deltas[b - 10], r)
        if a >= 10:
            return K.one()
        mask = ctx.reps[a] if ctx.reps[a] >> i & 1 else ctx.reps[a] ^ 0b111111
        t = [w for w in range(6) if mask >> w & 1 and w != i]
        p = [w for w in range(6) if w not in t + [i, j]]
        return K.add(K.add(prod(t), prod(p)), K.mul(r, K.add(deltas[i], deltas[j])))

    labels, forms = zip(*ctx.c_generators())
    weighted = [QuadricForm(K, {(a, b): K.mul(c, weight(lab, a, b))
                                for (a, b), c in q.coeffs.items()})
                for lab, q in zip(labels, forms)]
    return list(zip(labels, compose_forms(weighted, ctx.C)))


def _datum_of_degree(alg, ctx, degree, seed):
    """A Cassels datum whose working field has the given degree."""
    rng = random.Random(seed)
    for _ in range(200):
        datum = TwistDatum.from_cassels(alg, random_point(alg.curve, alg.field, rng))
        try:
            if EpsilonChoice(ctx, datum).field.deg == degree:
                return datum
        except TIVanishes:
            continue
    pytest.fail(f"no Cassels datum of working degree {degree}")


@pytest.mark.parametrize("p, degree", [(101, 4), (101, 8), (1999, 6), (31, 2),
                                       (2 ** 31 - 1, 3)])
def test_twisted_generators_are_the_paper_weighted_ones(p, degree, ref_curve,
                                                        split_curve_f31):
    """TwistModel.labelled, the c-basis generators composed with
    diag(t_I, eps_w) C, equals the paper's delta-weighted generators
    composed with C, and t_I t_I the delta-only t_I^2: Cassels data at
    F_101 and F_1999, the quadratic rebuild over F_31, and the trivial
    datum at 2^31 - 1, whose arrays hold Python ints."""
    F = Field.prime(p)
    curve = {101: ref_curve, 31: split_curve_f31,
             1999: CurveData(F, [1172, 1636, 510, 880, 1973, 1309, 1170]),
             2 ** 31 - 1: CurveData(F, [35, 0, 0, F.neg(12), 0, 0, 1])}[p]
    alg = EtaleAlgebra(curve)
    ctx = TorsionActionCtx(alg)
    if p == 31:
        datum = _nonsquare_scalar_datum(alg, random.Random(3))
    elif p == 2 ** 31 - 1:
        datum = TwistDatum.trivial(alg)
    else:
        datum = _datum_of_degree(alg, ctx, degree, seed=5)
    tm = TwistModel(ctx, datum)
    assert tm.field.deg == degree
    W, eps = tm.field, tm.eps
    want = paper_twisted_generators(tm.ctx, eps.deltas, eps.n)
    assert [lab for lab, _ in tm.labelled] == [lab for lab, _ in want]
    assert all(q.coeffs == r.coeffs for (_, q), (_, r) in zip(tm.labelled, want))
    for rep in tm.ctx.reps:
        assert W.eq(eps.t_squared_triple(rep), paper_t_squared(W, eps.deltas, eps.n, rep))


def test_two_twists_reduce_the_identity_candidates_once(ref_curve, rref_calls):
    """The c-basis generators are built once per context: a second twist on
    the same context makes one reduction fewer, the identity-piece picks."""
    alg = EtaleAlgebra(ref_curve)
    ctx = TorsionActionCtx(alg)
    counts = []
    for datum in (TwistDatum.trivial(alg), _datum_of_degree(alg, ctx, 4, seed=5)):
        before = len(rref_calls)
        TwistModel(ctx, datum)
        counts.append(len(rref_calls) - before)
    assert counts[0] == counts[1] + 1


def test_k_omega_check_catches_planted_coefficient(split_curve_f31, monkeypatch):
    """The twisted forms over the quadratic extension must have coefficients
    in k(Omega) = F_31; one coefficient equal to the generator t is caught."""
    alg = EtaleAlgebra(split_curve_f31)
    ctx = TorsionActionCtx(alg)
    datum = _nonsquare_scalar_datum(alg, random.Random(3))

    def planted(forms, M):
        out = compose_forms(forms, M)
        out[-1].add_term(10, 15, (0, 1))  # t is in F_31^2 but not in F_31
        return out

    monkeypatch.setattr(twist, "compose_forms", planted)
    with pytest.raises(Genus2Error, match="outside k\\(Omega\\)"):
        TwistModel(ctx, datum)


def test_maximal_degree_rebuild():
    """A (1,2,3)-profile sextic has splitting degree 6, and a Cassels datum
    whose size-two orbit sub-norm is a non-square forces the full rebuild in
    the degree-12 extension; the entire pipeline still goes through."""
    F = Field.prime(593)
    rng = random.Random(1009)
    from genus2covers.poly import Poly, distinct_degree_profile
    while True:
        coeffs = [F.rand(rng) for _ in range(7)]
        if F.is_zero(coeffs[0]) or F.is_zero(coeffs[6]):
            continue
        f = Poly(F, coeffs)
        if f.is_separable() and distinct_degree_profile(f) == [1, 2, 3]:
            from genus2covers.curve import CurveData
            cur = CurveData(F, coeffs)
            break
    alg = EtaleAlgebra(cur, seed=0)
    ctx = TorsionActionCtx(alg)
    K = alg.splitting
    assert K.deg == 6
    rng2 = random.Random(5)
    tm = None
    for _ in range(80):
        D = random_point(cur, F, rng2)
        td = TwistDatum.from_cassels(alg, D)
        if any(K.sqrt(td.delta.phi(i)) is None for i in range(6)):
            tm = TwistModel(ctx, td, seed=0)
            break
    assert tm is not None and tm.field.deg == 12
    divs = [random_point(cur, F, rng2) for _ in range(10)]
    assert tm.vanish_at_pullbacks(divs)
    assert tm.eps.galois_t_equivariance()
    des = tm.descend_to_ground()
    assert rank_rows(F, [q.vector() for q in des]) == 72
    assert tm.matches_vdelta()


def test_ti_vanishes_is_reported(split_curve_f11):
    cur = split_curve_f11
    F = cur.field
    alg = EtaleAlgebra(cur)
    ctx = TorsionActionCtx(alg)
    rng = random.Random(0)
    hit = None
    for _ in range(300):
        xi = rand_elem(alg, rng)
        if F.is_zero(xi.norm()):
            continue
        td = TwistDatum(alg, (xi * xi).c, xi.norm())
        try:
            TwistModel(ctx, td)
        except TIVanishes as exc:
            hit = exc
            break
    assert hit is not None
    assert hit.partitions and all(len(p) == 3 for p in hit.partitions)
    # the advertised remedy: rescale by xi^2 until construction succeeds
    for _ in range(50):
        xi = rand_elem(alg, rng)
        if F.is_zero(xi.norm()):
            continue
        try:
            TwistModel(ctx, td.rescale(xi))
            break
        except TIVanishes:
            continue
    else:
        pytest.fail("rescaling never repaired the vanishing t_I")


def test_equivariant_weights_invertible(ref_torsion):
    mat, funcs = equivariant_weights(ref_torsion)
    assert len(funcs) == 15
    assert not ref_torsion.K.is_zero(mat.det())


def test_trivial_twist_point_count(split_curve_f11):
    cur = split_curve_f11
    alg = EtaleAlgebra(cur)
    ctx = TorsionActionCtx(alg)
    tm = TwistModel(ctx, TwistDatum.trivial(alg))
    pts = search_twist_points(tm)
    assert len(pts) == count_jacobian_points(cur)


def test_vdelta_search_contains_images(split_curve_f11, rng):
    cur = split_curve_f11
    F = cur.field
    alg = EtaleAlgebra(cur)
    km = KummerModels(alg)
    vd = km.v_delta(alg.one())
    pts = set(search_vdelta_points(vd))
    assert pts
    for _ in range(10):
        D = random_point(cur, F, rng)
        b = D.coords().odd
        lead = next(v for v in b if not F.is_zero(v))
        inv = F.inv(lead)
        assert tuple(F.mul(v, inv) for v in b) in pts


# -- the scalar P^5 scans and lift, kept as the reference for the numpy ones ---


def projective_reps(F: Field, dim: int):
    """All points of P^{dim-1}(F) as normalized tuples (first nonzero entry
    equal to one), in the order of the numpy scans."""
    elems = list(F.elements())
    for lead in range(dim):
        prefix = tuple([F.zero()] * lead + [F.one()])
        for tail in itertools.product(elems, repeat=dim - lead - 1):
            yield prefix + tail


def scalar_rational_walk(matrices, bound):
    """The height-bounded search over Q one integer 6-tuple at a time: each
    form's denominators cleared, then every primitive tuple of
    ``itertools.product`` order with first nonzero entry positive on which
    every form vanishes."""
    ints = []
    for M in matrices:
        den = 1
        for row in M.rows:
            for v in row:
                den = den * v.denominator // math.gcd(den, v.denominator)
        ints.append([[int(v * den) for v in row] for row in M.rows])

    def primitive(t):
        g = 0
        for v in t:
            g = math.gcd(g, v)
        if g != 1:
            return False
        for v in t:
            if v != 0:
                return v > 0
        return False

    found = []
    for t in itertools.product(range(-bound, bound + 1), repeat=6):
        if primitive(t) and all(sum(M[i][j] * t[i] * t[j] for i in range(6) for j in range(6)) == 0
                                for M in ints):
            found.append(t)
    return found


def scalar_vdelta_search(vd):
    W = vd.delta.field
    return [vec for vec in projective_reps(W, 6) if vd.is_solution(list(vec), W)]


def scalar_twist_search(model, forms):
    """Every point of P^5(F_p) through the odd-block quadrics one Field
    operation at a time, then the lift of each survivor on its own
    (``kernel_reps``, ``resolve_scale``) and the node pullbacks."""
    k = model.datum.algebra.field
    vecs = [q.vector() for q in forms]
    odd_blk = span_supported(k, vecs, ODD_MONOMIALS)[1]
    mixed_blk = span_supported(k, vecs, MIXED_MONOMIALS)[1]
    found = set(_node_pullbacks(model.eps, vecs))
    for b in projective_reps(k, 6):
        ok = True
        for row in odd_blk:
            acc = k.zero()
            for n in ODD_MONOMIALS:
                i, j = MONOMIALS[n]
                acc = k.add(acc, k.mul(row[n], k.mul(b[i - 10], b[j - 10])))
            if not k.is_zero(acc):
                ok = False
                break
        if not ok:
            continue
        for u0 in kernel_reps(k, mixed_rows(k, mixed_blk, b)):
            found.update(resolve_scale(k, forms, u0, b))
    return sorted(found)


def mixed_rows(k, mixed_blk, b):
    """The linear system in the even block that the mixed forms put on b."""
    rows = []
    for row in mixed_blk:
        lin = [k.zero()] * 10
        for n in MIXED_MONOMIALS:
            i, j = MONOMIALS[n]
            lin[i] = k.add(lin[i], k.mul(row[n], b[j - 10]))
        rows.append(lin)
    return rows


def kernel_reps(F, rows):
    """Every point of the projective kernel of rows, normalized."""
    basis = kernel_rows(F, rows)
    if not basis:
        return []
    if len(basis) == 1:
        return [normalize(F, basis[0])]
    reps = []
    for coeffs in projective_reps(F, len(basis)):
        vec = [F.zero()] * len(basis[0])
        for c, bvec in zip(coeffs, basis):
            for t, v in enumerate(bvec):
                vec[t] = F.add(vec[t], F.mul(c, v))
        if any(not F.is_zero(v) for v in vec):
            reps.append(normalize(F, vec))
    return reps


def resolve_scale(F, forms, u0, b):
    """Candidate points (c u0 : b) satisfying every form, via the quadratic
    constraints c^2 A + c M + B = 0 they impose."""
    out = []
    candidates = None
    for q in forms:
        A = F.zero()
        M = F.zero()
        B = F.zero()
        for (i, j), cf in q.coeffs.items():
            if j < 10:
                A = F.add(A, F.mul(cf, F.mul(u0[i], u0[j])))
            elif i >= 10:
                B = F.add(B, F.mul(cf, F.mul(b[i - 10], b[j - 10])))
            else:
                M = F.add(M, F.mul(cf, F.mul(u0[i], b[j - 10])))
        if F.is_zero(A) and F.is_zero(M) and F.is_zero(B):
            continue
        roots = quadratic_roots(F, A, M, B)
        roots = {r for r in roots if not F.is_zero(r)}
        candidates = roots if candidates is None else candidates & roots
        if not candidates:
            return []
    if candidates is None:
        return []
    for c in sorted(candidates, key=F.key):
        vec = [F.mul(c, v) for v in u0] + list(b)
        if all(F.is_zero(q.evaluate(vec)) for q in forms):
            out.append(normalize(F, vec))
    return out


def normalize(F, vec):
    lead = next((v for v in vec if not F.is_zero(v)), None)
    if lead is None:
        return tuple(vec)
    inv = F.inv(lead)
    return tuple(F.mul(v, inv) for v in vec)


def quadratic_roots(F, a, m, b):
    if F.is_zero(a):
        if F.is_zero(m):
            return set()
        return {F.neg(F.div(b, m))}
    disc = F.sub(F.mul(m, m), F.mul(F.from_int(4), F.mul(a, b)))
    r = F.sqrt(disc)
    if r is None:
        return set()
    inv2a = F.inv(F.mul(F.from_int(2), a))
    return {F.mul(F.sub(r, m), inv2a), F.mul(F.sub(F.neg(r), m), inv2a)}


@pytest.fixture(scope="module")
def curve_2211_f7():
    """y^2 = (x^2 + 1)(x^2 + 2)(x - 1)(x - 2) over F_7: factor degrees [2,2,1,1]."""
    F = Field.prime(7)
    f = (Poly(F, [1, 0, 1]) * Poly(F, [2, 0, 1])
         * Poly(F, [F.neg(1), 1]) * Poly(F, [F.neg(2), 1]))
    return CurveData(F, [f.coeff(i) for i in range(7)])


def test_vdelta_search_matches_scalar_scan(curve_2211_f7):
    alg = EtaleAlgebra(curve_2211_f7)
    vd = KummerModels(alg).v_delta(alg.elem([2, 0, 5, 1, 0, 0]))
    pts = search_vdelta_points(vd)
    assert pts
    assert pts == scalar_vdelta_search(vd)


def _cassels_twist(alg, rng):
    for _ in range(50):
        datum = TwistDatum.from_cassels(alg, random_point(alg.curve, alg.field, rng))
        try:
            return TwistModel(TorsionActionCtx(alg), datum)
        except TIVanishes:
            continue
    pytest.fail("no Cassels datum with nonvanishing t_I")


@pytest.mark.parametrize("case", ["trivial-2211-f7", "cassels-2211-f7",
                                  "cassels-split-f11", "epsilon-choice-split-f11"])
def test_twist_search_matches_scalar_scan(case, curve_2211_f7, split_curve_f11, rng):
    curve = curve_2211_f7 if case.endswith("f7") else split_curve_f11
    alg = EtaleAlgebra(curve)
    if case.startswith("trivial"):
        tm = TwistModel(TorsionActionCtx(alg), TwistDatum.trivial(alg))
    else:
        tm = _cassels_twist(alg, rng)
    forms = tm.descend_to_ground()
    # the search needs only the EpsilonChoice when the forms are given
    pts = search_twist_points(tm.eps if case.startswith("epsilon") else tm,
                              descended=forms)
    assert len(pts) == count_jacobian_points(alg.curve)
    assert pts == scalar_twist_search(tm, forms)


def test_node_pullbacks_keep_the_nodes_on_the_forms(curve_2211_f7, rng):
    """Rational node pullbacks are kept exactly where every form vanishes, in
    plain ints: with no forms all are kept, and the trivial twist's nodes lie
    on its own forms but not on those of a Cassels twist."""
    alg = EtaleAlgebra(curve_2211_f7)
    tm = TwistModel(TorsionActionCtx(alg), TwistDatum.trivial(alg))
    nodes = _node_pullbacks(tm.eps, [])
    assert nodes
    for forms in (tm.descend_to_ground(), _cassels_twist(alg, rng).descend_to_ground()):
        want = [pt for pt in nodes if all(
            sum(c * pt[i] * pt[j] for (i, j), c in q.coeffs.items()) % 7 == 0 for q in forms)]
        assert _node_pullbacks(tm.eps, [q.vector() for q in forms]) == want


def root_node_pullbacks(model, vecs):
    """The reference for ``_node_pullbacks``: the sixteen Kummer nodes built
    from the roots, (0:0:0:1) and (1 : w_i + w_j : w_i w_j : k_4) with k_4
    from ``k4_numerator``, mapped by the inverted 16x16 covering matrix."""
    W = model.field
    k = model.datum.algebra.field
    alg = model.ctx.algebra
    f = [_lift(k, W, c) for c in alg.curve.coeffs]
    kvectors = [[W.zero(), W.zero(), W.zero(), W.one()]]
    for i, j in itertools.combinations(range(6), 2):
        wi, wj = alg.roots[i], alg.roots[j]
        k2, k3, dx = W.add(wi, wj), W.mul(wi, wj), W.sub(wi, wj)
        kvectors.append([W.one(), k2, k3, W.div(k4_numerator(W, f, k2, k3), W.mul(dx, dx))])
    nodes = Mat(W, [[W.mul(kv[a - 1], kv[b - 1]) for (a, b) in EVEN_PAIRS]
                    + [W.zero()] * 6 for kv in kvectors])
    out = []
    for pulled in (model.eps.covering_inverse() * nodes.transpose()).transpose().rows:
        inv = W.inv(next(v for v in pulled if not W.is_zero(v)))
        norm = [W.mul(v, inv) for v in pulled]
        if all(W.eq(W.frobenius(v), v) for v in norm):
            pt = tuple(v[0] if W.kind == "ext" else v for v in norm)
            if all(sum(c * pt[a] * pt[b] for (a, b), c in zip(MONOMIALS, vec)) % k.p == 0
                   for vec in vecs):
                out.append(pt)
    return out


@pytest.mark.parametrize("p", [7, 11, 13, 31])
def test_node_pullbacks_match_the_root_construction(p, curve_2211_f7, split_curve_f11,
                                                   split_curve_f31):
    """The nodes read off the c-basis equal the ones built from the roots, on
    the trivial twist, on Cassels data (over F_31 also on the quadratic
    rebuild), and on the trivial datum rescaled by xi^2, whose t_I differ
    from one partition to the next while its nodes stay rational; with and
    without the twist's own descended forms."""
    curve = {7: curve_2211_f7, 11: split_curve_f11, 31: split_curve_f31,
             13: CurveData(Field.prime(13), [5, 1, 2, 1, 1, 3, 1])}[p]
    alg = EtaleAlgebra(curve)
    ctx = TorsionActionCtx(alg)
    rng = random.Random(p)
    trivial = TwistDatum.trivial(alg)
    xi = next(x for x in (rand_elem(alg, rng) for _ in range(50)) if x.norm())
    models = [TwistModel(ctx, trivial), TwistModel(ctx, trivial.rescale(xi))]
    models += [_cassels_twist(alg, rng) for _ in range(3)]
    if p == 31:
        models.append(TwistModel(ctx, _nonsquare_scalar_datum(alg, rng)))
    for tm in models:
        for vecs in ([], [q.vector() for q in tm.descend_to_ground()]):
            assert _node_pullbacks(tm.eps, vecs) == root_node_pullbacks(tm, vecs)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 7, 11]))
def test_kernel_pairs_match_scalar_kernel(data, p):
    """The kernel points of every survivor's system against ``kernel_reps``;
    systems of rank r <= 10 (a product through F_p^r) have projective
    kernels of dimension 10 - r or more; an empty system has none."""
    k = Field.prime(p)
    nsys, m = data.draw(st.integers(1, 4)), data.draw(st.integers(7, 12))
    residue = st.integers(0, p - 1)
    matrix = lambda r, c: st.lists(st.lists(residue, min_size=c, max_size=c),
                                   min_size=r, max_size=r)
    systems, survivors = [], []
    for _ in range(nsys):
        r = data.draw(st.integers(7, 10))
        left, right = data.draw(matrix(m, r)), data.draw(matrix(r, 10))
        systems.append([[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                        for row in left])
        survivors.append(normalize(k, data.draw(st.lists(residue, min_size=6, max_size=6)
                                                 .filter(any))))
    b = np.array(survivors, dtype=np.int64)
    U, B = _kernel_pairs(k, np.array(systems, dtype=np.int64), b)
    want = [(u0, bvec) for rows, bvec in zip(systems, survivors)
            for u0 in kernel_reps(k, rows)]
    assert sorted(zip(map(tuple, U.tolist()), map(tuple, B.tolist()))) == sorted(want)
    U, B = _kernel_pairs(k, np.zeros((nsys, 0, 10), dtype=np.int64), b)
    assert U.shape == (0, 10) and B.shape == (0, 6)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 7, 11]))
def test_scale_points_match_resolve_scale(data, p):
    """The batched lift against ``resolve_scale``, pair by pair: sparse forms
    and vectors, so that some pairs kill every form and are skipped, and a
    planted common scale c0 on some pairs, so that points are found."""
    k = Field.prime(p)
    sparse = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    vec = lambda n: st.lists(sparse, min_size=n, max_size=n).filter(any)
    pairs = data.draw(st.lists(st.tuples(vec(10), vec(6)), min_size=1, max_size=6))
    pairs = [(normalize(k, u0), list(normalize(k, b))) for u0, b in pairs]
    forms = []
    for _ in range(data.draw(st.integers(1, 5))):
        q = QuadricForm(k)
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, 15))
            q.add_term(i, data.draw(st.integers(i, 15)), data.draw(st.integers(1, p - 1)))
        if data.draw(st.booleans()):  # plant a root c0 on the first pair
            u0, b = pairs[0]
            c0 = data.draw(st.integers(1, p - 1))
            t = next(t for t, v in enumerate(b) if v)
            val = q.evaluate([c0 * v % p for v in u0] + b)
            q.add_term(10 + t, 10 + t, -val * pow(b[t] * b[t], p - 2, p) % p)
        forms.append(q)
    U = np.array([u0 for u0, _ in pairs], dtype=np.int64)
    B = np.array([b for _, b in pairs], dtype=np.int64)
    got = _scale_points(p, _coefficient_stack([q.vector() for q in forms]), U, B)
    want = [pt for u0, b in pairs for pt in resolve_scale(k, forms, u0, b)]
    assert sorted(got) == sorted(want)


def test_searches_refuse_what_they_cannot_scan(split_curve_f11):
    alg = EtaleAlgebra(split_curve_f11)
    W = Field.extension(11, 2)
    vd = VDeltaModel(alg, LVec(alg, W, [W.one()] + [W.zero()] * 5))
    with pytest.raises(Genus2Error, match="prime fields"):
        search_vdelta_points(vd)
    # X @ M would leave int64 before its reduction mod p
    with pytest.raises(Genus2Error, match="overflow"):
        p5_zeros(Field.prime(2 ** 31 - 1), [])
    # the search sums up to 136 products: refused where the P^5 scan would pass
    big = SimpleNamespace(algebra=SimpleNamespace(field=Field.prime(1_000_000_007)))
    with pytest.raises(Genus2Error, match="twist search would overflow"):
        search_twist_points(SimpleNamespace(datum=big), descended=[])
    # an EpsilonChoice has no twisted model to descend
    eps = EpsilonChoice(TorsionActionCtx(alg), TwistDatum.trivial(alg))
    with pytest.raises(Genus2Error, match="descended forms"):
        search_twist_points(eps)


def test_rational_search_bound_zero_and_definite():
    Q = Field.rationals()
    # positive definite form has no nonzero rational points
    I6 = Mat.identity(Q, 6)
    assert search_vdelta_rational([I6], 3) == []
    assert search_vdelta_rational([I6], 0) == []


def test_rational_search_finds_points():
    Q = Field.rationals()
    # x1^2 - x2^2 = 0 and x3 = x4 (as rank-degenerate "quadric" x3*x4... use
    # two simple split forms with obvious solutions)
    M1 = Mat(Q, [[1 if i == j and i < 2 else 0 for j in range(6)] for i in range(6)])
    M1.rows[1][1] = Q.from_int(-1)
    pts = search_vdelta_rational([M1], 1)
    # solutions include (1, 1, *, ...) patterns
    assert any(p[0] == 1 and p[1] in (1, -1) for p in pts)


def _symmetric(Q, upper):
    """The symmetric 6x6 matrix over Q with the 21 upper entries `upper`."""
    rows = [[Q.zero()] * 6 for _ in range(6)]
    it = iter(upper)
    for i in range(6):
        for j in range(i, 6):
            rows[i][j] = rows[j][i] = next(it)
    return Mat(Q, rows)


_SPARSE_FRACTION = st.builds(Fraction, st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
                             st.integers(1, 6))


@settings(max_examples=30, deadline=None)
@given(uppers=st.lists(st.lists(_SPARSE_FRACTION, min_size=21, max_size=21),
                       min_size=1, max_size=3),
       bound=st.integers(0, 3))
def test_rational_search_matches_the_scalar_walk(uppers, bound):
    """The block scan over the box against the walk one tuple at a time:
    the same points in the same order, on sparse symmetric forms with
    denominators up to 6, so that some forms vanish on many tuples."""
    Q = Field.rationals()
    mats = [_symmetric(Q, upper) for upper in uppers]
    assert search_vdelta_rational(mats, bound) == scalar_rational_walk(mats, bound)


def test_rational_search_leaves_int64_for_large_entries():
    """Entries of 2^62 / 3 put 36 B^2 max|M| past 2^63 at B = 2, so the
    products are Python ints: in int64, 2^62 (x0^2 + x1^2 + x2^2 + x3^2)
    would wrap to 0 at (1, 1, 1, 1, *, *) and pass as a point."""
    Q = Field.rationals()
    big = Fraction(2 ** 62, 3)
    upper = [Fraction(0)] * 21
    for slot in (0, 6, 11, 15):          # the diagonal entries x0^2 .. x3^2
        upper[slot] = big
    upper[20] = Fraction(1, 3)           # x5^2
    mats = [_symmetric(Q, upper)]
    assert 36 * 2 ** 2 * 2 ** 62 >= 1 << 63
    pts = search_vdelta_rational(mats, 2)
    assert pts == scalar_rational_walk(mats, 2) == [(0, 0, 0, 0, 1, 0)]
    assert all(type(v) is int for v in pts[0])


@pytest.mark.parametrize("p, dim", [(3, 1), (3, 4), (5, 3), (7, 2), (5, 7)])
def test_projective_blocks_follow_projective_reps(p, dim):
    """The numpy enumeration of P^{dim-1}(F_p), over block boundaries
    (5^6 > 4096 rows), against the scalar order oracle."""
    rows = np.concatenate(list(_projective_blocks(p, dim)))
    assert list(map(tuple, rows.tolist())) == list(projective_reps(Field.prime(p), dim))
