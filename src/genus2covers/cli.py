"""Command-line front end.

Subcommands: curve-info, model, twist, verify, search.  All output is JSON
with sorted keys, so identical invocations (same seed) are byte-identical.

Exit codes: 0 ok, 1 internal error or unreadable --model-ref, 2 invalid
curve, 3 norm condition N(delta) != n^2, 4 vanishing scale factor t_I,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .curve import CurveData, random_point
from .errors import GammaViolation, Genus2Error, TIVanishes
from .etale import EtaleAlgebra, all_two_torsion, even_masks, weil_pairing
from .fields import parse_field_spec
from .kummer import KummerModels
from .linalg import Mat, rank_rows
from .poly import Poly, _lift
from .quadrics import JacobianModel, QuadricForm, vanishing_kernel_dimensions
from .torsion import TorsionActionCtx
from .twist import (TwistDatum, TwistModel, count_jacobian_points,
                    search_twist_points, search_vdelta_points,
                    search_vdelta_rational)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_CURVE = 2
EXIT_GAMMA = 3
EXIT_TI = 4
EXIT_VERIFY = 5


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = dispatch(args)
    except GammaViolation as exc:
        emit({"error": str(exc), "kind": "norm-condition"}, args)
        return EXIT_GAMMA
    except TIVanishes as exc:
        emit({"error": str(exc), "kind": "t-vanishes",
              "partitions": exc.partitions}, args)
        return EXIT_TI
    except _BadCurve as exc:
        emit({"error": str(exc), "kind": "bad-curve"}, args)
        return EXIT_BAD_CURVE
    except _BadModelRef as exc:
        emit({"error": str(exc), "kind": "bad-model-ref"}, args)
        return EXIT_INTERNAL
    except Genus2Error as exc:
        emit({"error": str(exc), "kind": "internal"}, args)
        return EXIT_INTERNAL
    emit(payload, args)
    return code


class _BadCurve(Exception):
    pass


class _BadModelRef(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genus2covers",
        description="Exact models of genus-2 Jacobians and their two-coverings")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, curve=True):
        sp.add_argument("--field", required=True,
                        help='field spec: "Q", "F<p>", or "F<p>^<d>"')
        if curve:
            sp.add_argument("--curve", required=True,
                            help="JSON array of f0..f6 (or a path to one)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("curve-info", help="separability and splitting data")
    common(sp)

    sp = sub.add_parser("model", help="emit equations of a model")
    common(sp)
    sp.add_argument("--which", required=True,
                    choices=["jacobian", "kummer-p3", "kummer-p9", "desing-p5",
                             "weddle", "vdelta"])
    sp.add_argument("--delta", default=None,
                    help="JSON array of 6 coefficients (vdelta only)")

    sp = sub.add_parser("twist", help="build a two-covering from (delta, n)")
    common(sp)
    sp.add_argument("--delta", required=True, help="JSON array of 6 coefficients")
    sp.add_argument("--n", required=True)
    sp.add_argument("--descend", action="store_true")
    sp.add_argument("--check", action="store_true")

    sp = sub.add_parser("verify", help="run an invariant suite")
    common(sp)
    sp.add_argument("--suite", default="all",
                    choices=["quadrics", "action", "diagonal", "twist", "all"])

    sp = sub.add_parser("search", help="enumerate points on an emitted model")
    common(sp)
    sp.add_argument("--model-ref", required=True,
                    help="path to a JSON bundle from `model` or `twist`")
    sp.add_argument("--bound", type=int, default=0,
                    help="height bound for searches over Q")
    return p


def emit(payload, args):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_curve(args) -> CurveData:
    field = parse_field_spec(args.field)
    raw = args.curve
    if not raw.strip().startswith("["):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read()
    coeffs = json.loads(raw)
    if not isinstance(coeffs, list) or len(coeffs) != 7:
        raise _BadCurve("curve must be a JSON array of the 7 coefficients f0..f6")
    try:
        return CurveData(field, [field.parse(str(c)) for c in coeffs])
    except Genus2Error as exc:
        raise _BadCurve(str(exc)) from exc


def load_delta(algebra: EtaleAlgebra, raw: str):
    coeffs = json.loads(raw)
    if not isinstance(coeffs, list) or len(coeffs) != 6:
        raise Genus2Error("delta must be a JSON array of 6 coefficients")
    F = algebra.field
    return [F.parse(str(c)) for c in coeffs]


def dispatch(args):
    cmd = args.command
    if cmd == "curve-info":
        return cmd_curve_info(args), EXIT_OK
    if cmd == "model":
        return cmd_model(args), EXIT_OK
    if cmd == "twist":
        return cmd_twist(args), EXIT_OK
    if cmd == "verify":
        payload = cmd_verify(args)
        return payload, EXIT_OK if payload["ok"] else EXIT_VERIFY
    if cmd == "search":
        return cmd_search(args), EXIT_OK
    raise Genus2Error(f"unknown command {cmd}")


# ---------------------------------------------------------------------------


def cmd_curve_info(args):
    field = parse_field_spec(args.field)
    raw = args.curve
    if not raw.strip().startswith("["):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = fh.read()
    coeffs = [field.parse(str(c)) for c in json.loads(raw)]
    f = Poly(field, coeffs)
    info = {"field": field.spec_string(),
            "f": [field.fmt(c) for c in coeffs]}
    if f.degree != 6:
        raise _BadCurve("f6 must be nonzero")
    g = f.gcd(f.derivative())
    if g.degree != 0:
        raise _BadCurve(
            "f is not separable; gcd(f, f') = "
            + json.dumps([field.fmt(c) for c in g.c]))
    if field.is_zero(coeffs[0]):
        raise _BadCurve("f0 must be nonzero; shift x -> x + c first")
    curve = CurveData(field, coeffs)
    if field.is_finite():
        alg = EtaleAlgebra(curve, seed=args.seed)
        K = alg.splitting
        info["splitting_degree"] = K.deg
        info["splitting_field"] = K.spec_string()
        info["roots"] = [K.fmt(w) for w in alg.roots]
        info["weierstrass_x"] = info["roots"]
        info["frobenius_permutation"] = [i + 1 for i in alg.frob_perm]
    else:
        info["splitting_degree"] = None
        info["note"] = "over Q supply the six roots to build the full tower"
    return info


def _context(args):
    curve = load_curve(args)
    if not curve.field.is_finite():
        raise Genus2Error("this command needs a finite ground field")
    alg = EtaleAlgebra(curve, seed=args.seed)
    return curve, alg


def cmd_model(args):
    curve, alg = _context(args)
    field = curve.field
    which = args.which
    out = {"field": field.spec_string(), "curve": curve.to_json(), "model": which}
    if which == "jacobian":
        jm = JacobianModel(curve, seed=args.seed)
        out["quadrics"] = [q.to_json() for q in jm.forms]
        out["verification"] = _jacobian_verification(curve, jm, args.seed)
    elif which == "kummer-p3":
        km = KummerModels(alg)
        out["quartic"] = km.kummer_quartic().to_json()
        out["verification"] = _sampled_check(
            curve, args.seed,
            lambda D: _kummer_quartic_value(km, D), 100, "quartic_vanishes")
    elif which == "kummer-p9":
        jm = JacobianModel(curve, seed=args.seed)
        evens = [q for q in jm.forms if q.is_even_only()]
        out["quadrics"] = [q.to_json() for q in evens]
        out["verification"] = {"count": len(evens),
                               "rank": rank_rows(field, [q.vector() for q in evens])}
    elif which == "desing-p5":
        km = KummerModels(alg)
        mats = km.y_matrices()
        out["matrices"] = [[[field.fmt(v) for v in row] for row in M.rows]
                           for M in mats]
        out["verification"] = _sampled_check(
            curve, args.seed, lambda D: _y_values(km, D), 100, "forms_vanish")
    elif which == "weddle":
        km = KummerModels(alg)
        out["quartic"] = km.weddle_quartic().to_json()
        out["verification"] = _sampled_check(
            curve, args.seed,
            lambda D: [km.weddle_quartic().evaluate(D.coords().odd[:4], D.field)],
            100, "quartic_vanishes")
    elif which == "vdelta":
        if args.delta is None:
            raise Genus2Error("--delta is required for the vdelta model")
        km = KummerModels(alg)
        delta = alg.elem(load_delta(alg, args.delta))
        vd = km.v_delta(delta)
        out["delta"] = delta.to_strings()
        out["matrices"] = vd.to_json()
        out["verification"] = {"matrices": 3, "symmetric": True}
    return out


def _kummer_quartic_value(km, D):
    c = D.coords()
    kv = [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]
    return [km.kummer_quartic().evaluate(kv, D.field)]


def _y_values(km, D):
    K = D.field
    b = D.coords().odd
    vals = []
    for M in km.y_matrices():
        acc = K.zero()
        for i in range(6):
            for j in range(6):
                acc = K.add(acc, K.mul(_lift(M.field, K, M.rows[i][j]),
                                       K.mul(b[i], b[j])))
        vals.append(acc)
    return vals


def _sampled_check(curve, seed, value_fn, count, label):
    from .quadrics import sampling_field
    K = sampling_field(curve.field)
    rng = random.Random(seed * 31337 + 5)
    bad = 0
    for _ in range(count):
        D = random_point(curve, K, rng)
        if any(not K.is_zero(v) for v in value_fn(D)):
            bad += 1
    return {"samples": count, label: bad == 0}


def _jacobian_verification(curve, jm, seed):
    from .quadrics import sampling_field
    K = sampling_field(curve.field)
    rng = random.Random(seed * 8191 + 11)
    pts = [random_point(curve, K, rng) for _ in range(200)]
    kdim, edim = vanishing_kernel_dimensions(curve, seed=seed)
    return {
        "rank": rank_rows(curve.field, [q.vector() for q in jm.forms]),
        "samples": 200,
        "vanishes": jm.vanish_at(pts),
        "kernel_dimension": kdim,
        "even_only_dimension": edim,
    }


def cmd_twist(args):
    curve, alg = _context(args)
    ctx = TorsionActionCtx(alg)
    delta = load_delta(alg, args.delta)
    n = curve.field.parse(args.n)
    datum = TwistDatum(alg, delta, n)
    model = TwistModel(ctx, datum, seed=args.seed)
    descended = model.descend_to_ground() if args.descend else None
    bundle = model.to_json(descended)
    bundle["verification"] = {
        "rank": rank_rows(model.field, [q.vector() for q in model.forms]),
        "galois_t_equivariance": model.eps.galois_t_equivariance(),
    }
    if descended is not None:
        bundle["verification"]["descended_rank"] = rank_rows(
            curve.field, [q.vector() for q in descended])
        bundle["verification"]["descended_ground"] = all(
            q.frobenius_fixed() for q in descended)
    if args.check:
        W = model.field
        rng = random.Random(args.seed * 2029 + 3)
        divs = [random_point(curve, W, rng) for _ in range(30)]
        bundle["check"] = {
            "vanish_at_pullbacks": model.vanish_at_pullbacks(divs),
            "galois_t_equivariance": model.eps.galois_t_equivariance(),
            "cocycle_matches_action": model.cocycle_matches_action(),
            "odd_block_matches_vdelta": model.matches_vdelta(),
            "rank": rank_rows(W, [q.vector() for q in model.forms]),
        }
    return bundle


def load_model_ref(raw: str, finite: bool) -> dict:
    """The JSON object given inline or as a path by --model-ref, checked for
    the keys its search reads."""
    try:
        if raw.strip().startswith("{"):
            bundle = json.loads(raw)
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _BadModelRef(f"cannot read model-ref: {exc}") from exc
    if not isinstance(bundle, dict):
        raise _BadModelRef("model-ref must be a JSON object")
    if "quadrics_ground" in bundle:
        need = ("delta", "n")
    else:
        need = ("matrices", "delta") if finite else ("matrices",)
    missing = [k for k in need if k not in bundle]
    if missing:
        raise _BadModelRef(f"model-ref bundle lacks {', '.join(missing)}")
    return bundle


def cmd_search(args):
    field = parse_field_spec(args.field)
    bundle = load_model_ref(args.model_ref, field.is_finite())
    curve = load_curve(args)
    if "quadrics_ground" in bundle:
        alg = EtaleAlgebra(curve, seed=args.seed)
        ctx = TorsionActionCtx(alg)
        datum = TwistDatum(alg, [field.parse(c) for c in bundle["delta"]],
                           field.parse(bundle["n"]))
        model = TwistModel(ctx, datum, seed=args.seed)
        forms = [QuadricForm.from_json(field, q) for q in bundle["quadrics_ground"]]
        pts = search_twist_points(model, descended=forms)
    elif field.is_finite():
        alg = EtaleAlgebra(curve, seed=args.seed)
        vd = KummerModels(alg).v_delta(alg.elem([field.parse(c) for c in bundle["delta"]]))
        pts = search_vdelta_points(vd)
    else:
        # over Q: enumerate integer vectors up to the bound on the matrices
        mats = [Mat(field, [[field.parse(v) for v in row] for row in M])
                for M in bundle["matrices"]]
        pts = search_vdelta_rational(mats, args.bound)
        return {"count": len(pts), "points": [list(p) for p in pts]}
    return {"count": len(pts), "points": [[field.fmt(v) for v in p] for p in pts]}


# ---------------------------------------------------------------------------
# verification suites


def cmd_verify(args):
    curve, alg = _context(args)
    suite = args.suite
    checks = []
    if suite in ("quadrics", "all"):
        checks.extend(_verify_quadrics(curve, args.seed))
    if suite in ("action", "diagonal", "twist", "all"):
        ctx = TorsionActionCtx(alg)
        if suite in ("action", "all"):
            checks.extend(_verify_action(alg, ctx))
        if suite in ("diagonal", "all"):
            checks.extend(_verify_diagonal_suite(alg, ctx, curve, args.seed))
        if suite in ("twist", "all"):
            checks.extend(_verify_twist(curve, alg, ctx, args.seed))
    ok = all(c["passed"] == c["total"] for c in checks)
    return {"suite": suite, "field": curve.field.spec_string(),
            "curve": curve.to_json(), "checks": checks, "ok": ok}


def _check(name, passed, total):
    return {"name": name, "passed": passed, "total": total}


def _verify_quadrics(curve, seed):
    from .quadrics import sampling_field
    jm = JacobianModel(curve, seed=seed)
    K = sampling_field(curve.field)
    rng = random.Random(seed * 6571 + 1)
    pts = [random_point(curve, K, rng) for _ in range(200)]
    vanish = jm.vanish_at(pts)
    rank = rank_rows(curve.field, [q.vector() for q in jm.forms])
    kdim, edim = vanishing_kernel_dimensions(curve, seed=seed)
    return [
        _check("quadrics.vanish_200_points", 200 if vanish else 0, 200),
        _check("quadrics.rank_72", 1 if rank == 72 else 0, 1),
        _check("quadrics.kernel_dim_72", 1 if kdim == 72 else 0, 1),
        _check("quadrics.even_dim_21", 1 if edim == 21 else 0, 1),
    ]


def _verify_action(alg, ctx):
    K = alg.splitting
    pts = all_two_torsion()
    ok_sq = ok_det = ok_quartic = 0
    km = KummerModels(alg)
    quartic = km.kummer_quartic().map_field(K) if K != alg.field else km.kummer_quartic()
    for P in pts:
        M = ctx.mp_matrix(P)
        res = ctx.res_gh(P)
        sq = M * M
        good = all(K.eq(sq.rows[i][j], res if i == j else K.zero())
                   for i in range(4) for j in range(4))
        ok_sq += good
        ok_det += K.eq(M.det(), K.mul(res, res))
        composed = quartic.compose_linear(M)
        scaled = quartic.scaled(K.mul(res, res))
        ok_quartic += (composed.terms == scaled.terms)
    ok_law = 0
    for P in pts:
        TP = ctx.t10_matrix(P)
        for Q in pts:
            e = weil_pairing(P, Q)
            lhs = TP * ctx.t10_matrix(Q)
            rhs = ctx.t10_matrix(P + Q).scale(K.from_int(e))
            ok_law += lhs.rows == rhs.rows
    expect = Poly(K, [1])
    for _ in range(6):
        expect = expect * Poly(K, [K.from_int(-1), K.one()])
    for _ in range(4):
        expect = expect * Poly(K, [K.one(), K.one()])
    ok_cp = sum(ctx.t10_matrix(P).charpoly() == expect for P in pts)
    return [
        _check("action.mp_square_identity", ok_sq, 15),
        _check("action.mp_det", ok_det, 15),
        _check("action.quartic_invariance", ok_quartic, 15),
        _check("action.group_law_pairs", ok_law, 225),
        _check("action.t10_charpoly", ok_cp, 15),
    ]


def _verify_diagonal_suite(alg, ctx, curve, seed):
    K = alg.splitting
    gg = (ctx.G * ctx.G_inv_kappa).rows == [[K.from_int(1 if i == j else 0)
                                             for j in range(10)] for i in range(10)]
    masks = even_masks(nontrivial_only=True)
    diag_ok = 0
    characters = {}
    for m in masks:
        try:
            diag = ctx.verify_diagonal(m)
            diag_ok += 1
        except Genus2Error:
            continue
        for slot in range(16):
            characters.setdefault(slot, []).append(
                1 if K.eq(diag[slot], K.one()) else -1)
    # census: the 16 slot-characters are exactly the odd-size partition
    # characters, each once
    expected = {}
    for rep in ctx.reps:
        expected[tuple(1 if bin(rep & m).count("1") % 2 == 0 else -1
                       for m in masks)] = 0
    for i in range(6):
        expected[tuple(1 if bin((1 << i) & m).count("1") % 2 == 0 else -1
                       for m in masks)] = 0
    census_ok = True
    for slot, vals in characters.items():
        key = tuple(vals)
        if key not in expected:
            census_ok = False
            break
        expected[key] += 1
    census_ok = census_ok and all(v == 1 for v in expected.values())
    gens = ctx.invariant_generators()
    dims_ok = (len(gens) == 72
               and sum(1 for l, _ in gens if l[0] == "O") == 12)
    rank = rank_rows(K, [q.vector() for _, q in gens])
    jm = JacobianModel(curve, seed=seed)
    joint = rank_rows(K, [q.vector() for _, q in gens]
                      + [[_lift(curve.field, K, v) for v in q.vector()]
                         for q in jm.forms])
    return [
        _check("diagonal.G_times_Ginv", 1 if gg else 0, 1),
        _check("diagonal.masks_diagonalized", diag_ok, 31),
        _check("diagonal.character_census", 1 if census_ok else 0, 1),
        _check("diagonal.generator_dims", 1 if dims_ok else 0, 1),
        _check("diagonal.joint_rank_72", 1 if rank == 72 and joint == 72 else 0, 1),
    ]


def _verify_twist(curve, alg, ctx, seed):
    F = curve.field
    rng = random.Random(seed * 443 + 7)
    data = [TwistDatum.trivial(alg)]
    tries = 0
    while len(data) < 3 and tries < 200:
        tries += 1
        try:
            D = random_point(curve, F, rng)
            data.append(TwistDatum.from_cassels(alg, D))
        except Genus2Error:
            continue
    built = vanished = equiv = cocycle = vblock = descended = 0
    reported = 0
    for datum in data:
        try:
            tm = TwistModel(ctx, datum, seed=seed)
        except TIVanishes:
            reported += 1
            continue
        built += 1
        W = tm.field
        divs = [random_point(curve, W, rng) for _ in range(20)]
        vanished += tm.vanish_at_pullbacks(divs)
        equiv += tm.eps.galois_t_equivariance()
        cocycle += tm.cocycle_matches_action()
        vblock += tm.matches_vdelta()
        try:
            tm.descend_to_ground()
            descended += 1
        except Genus2Error:
            pass
    total = built + reported
    checks = [
        _check("twist.constructed_or_reported", total, len(data)),
        _check("twist.vanish_at_pullbacks", vanished, built),
        _check("twist.galois_t_equivariance", equiv, built),
        _check("twist.cocycle_matches_action", cocycle, built),
        _check("twist.odd_block_matches_vdelta", vblock, built),
        _check("twist.descent_rank72", descended, built),
    ]
    if F.p <= 13:
        tm = TwistModel(ctx, TwistDatum.trivial(alg), seed=seed)
        expect = count_jacobian_points(curve)
        got = len(search_twist_points(tm))
        checks.append(_check("twist.trivial_point_count", 1 if got == expect else 0, 1))
    return checks


if __name__ == "__main__":
    sys.exit(main())
