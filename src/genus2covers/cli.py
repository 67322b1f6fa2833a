"""Command-line front end.

Subcommands: curve-info, model, twist, verify, search.  All output is JSON
with sorted keys, so identical invocations (same seed) are byte-identical.

Exit codes: 0 ok, 1 internal error or bad input other than the curve,
2 invalid curve, 3 norm condition N(delta) != n^2, 4 vanishing scale
factor t_I, 5 verification failure.  Errors are JSON objects
{"error": message, "kind": kind}; the input kinds are bad-field (exit 1,
also for F<p>^<d>: curves over extension fields are not supported yet, for
Q in model, twist and verify, and for search above p = 31), bad-curve
(exit 2), bad-delta for --delta and --n, or a delta of norm zero (exit 1),
bad-model-ref (exit 1, also for a bundle from another field) and
bad-bound (exit 1: search over Q below --bound 0 or above 5, and any
--bound over F_p, where the search scans all of P^5).  A reader that closes
stdout before the output ends gets exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext
from itertools import islice

import numpy as np

from .curve import CurveData, random_point
from .errors import (ExhaustedAttempts, GammaViolation, Genus2Error, NonUnitDelta,
                     TIVanishes)
from .etale import (EtaleAlgebra, all_two_torsion, character_chi, even_masks,
                    weil_pairing)
from .fields import Field, parse_field_spec
from .kummer import KummerModels, even_matrix, veronese_quartic
from .linalg import Mat, ext_matmul_np, rank_rows, to_np
from .poly import Poly, _lift
from .quadrics import (JacobianModel, QuadricForm, forms_vanish_at,
                       independent_picks, kummer_image_quadric, sampling_field,
                       veronese_quadrics)
from .torsion import TorsionActionCtx
from .twist import (P5_SCAN_BUDGET, Q_SEARCH_BUDGET, EpsilonChoice,
                    TorsionContexts, TwistDatum, TwistModel,
                    count_jacobian_points, search_twist_points,
                    search_vdelta_points, search_vdelta_rational)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_CURVE = 2
EXIT_GAMMA = 3
EXIT_TI = 4
EXIT_VERIFY = 5


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    payload, code = dispatch(args)
    try:
        emit(payload, args)
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # /dev/null, so that the flush at interpreter exit does not raise too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    return code


class BadInput(Exception):
    """A command-line input the program refuses, with its error kind and
    exit code."""

    CODES = {"bad-field": EXIT_INTERNAL, "bad-curve": EXIT_BAD_CURVE,
             "bad-delta": EXIT_INTERNAL, "bad-model-ref": EXIT_INTERNAL,
             "bad-bound": EXIT_INTERNAL}

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.code = self.CODES[kind]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genus2covers",
        description="Exact models of genus-2 Jacobians and their two-coverings")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, curve=True):
        sp.add_argument("--field", required=True,
                        help='field spec: "Q" or "F<p>" with p an odd prime')
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
    sp.add_argument("--bound", type=int, default=None,
                    help="height bound for searches over Q (default 0)")
    return p


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def emit(payload, args):
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline
    to --out or stdout, joining the encoder's chunks 4096 at a time, so the
    whole text is never held at once."""
    out = getattr(args, "out", None)
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        chunks = _ENCODER.iterencode(payload)
        while block := "".join(islice(chunks, 4096)):
            fh.write(block)
        fh.write("\n")
        fh.flush()


def load_field(spec: str):
    try:
        field = parse_field_spec(spec)
    except Genus2Error as exc:
        raise BadInput("bad-field", str(exc)) from exc
    if field.kind == "ext":
        raise BadInput("bad-field", f"curves over F_{{p^d}} are not supported yet "
                       f"({spec.strip()}); use a prime field F<p> or Q")
    return field


def parse_values(field, values, count: int, message: str):
    """The parsed entries of a JSON array of `count` field elements.

    Any other shape raises ValueError(message); a bad entry raises
    ValueError, or ZeroDivisionError for "a/0" over Q."""
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(message)
    return [field.parse(str(c)) for c in values]


def load_curve(field, raw: str) -> CurveData:
    """The curve given by --curve: a JSON array inline, or a path to one."""
    try:
        if not raw.strip().startswith("["):
            with open(raw, "r", encoding="utf-8") as fh:
                raw = fh.read()
        shape = "curve must be a JSON array of the 7 coefficients f0..f6"
        return CurveData(field, parse_values(field, json.loads(raw), 7, shape))
    except (Genus2Error, OSError, ValueError, ZeroDivisionError) as exc:
        raise BadInput("bad-curve", str(exc)) from exc


_DELTA_SHAPE = "delta must be a JSON array of 6 coefficients"


def load_delta(field, raw: str):
    try:
        return parse_values(field, json.loads(raw), 6, _DELTA_SHAPE)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput("bad-delta", str(exc)) from exc


def load_n(field, raw: str):
    try:
        return field.parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput("bad-delta", f"bad --n {raw!r}: {exc}") from exc


def dispatch(args):
    """The command's JSON payload and exit code; a refused input or a failed
    construction gives an error object {"error": message, "kind": kind}."""
    run = {"curve-info": cmd_curve_info, "model": cmd_model, "twist": cmd_twist,
           "verify": cmd_verify, "search": cmd_search}[args.command]
    try:
        payload = run(args)
    except GammaViolation as exc:
        return {"error": str(exc), "kind": "norm-condition"}, EXIT_GAMMA
    except TIVanishes as exc:
        return {"error": str(exc), "kind": "t-vanishes", "partitions": exc.partitions}, EXIT_TI
    except BadInput as exc:
        return {"error": str(exc), "kind": exc.kind}, exc.code
    except Genus2Error as exc:
        return {"error": str(exc), "kind": "internal"}, EXIT_INTERNAL
    return payload, EXIT_VERIFY if args.command == "verify" and not payload["ok"] else EXIT_OK


# ---------------------------------------------------------------------------


def cmd_curve_info(args):
    field = load_field(args.field)
    curve = load_curve(field, args.curve)
    info = {"field": field.spec_string(), "f": curve.to_json()}
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


def _context(args, roots=True):
    """The curve over a finite field and, when `roots`, its roots in the
    splitting field (an ``EtaleAlgebra``).  Q is refused as bad-field."""
    curve = load_curve(load_field(args.field), args.curve)
    if not curve.field.is_finite():
        raise BadInput("bad-field", "this command needs a finite ground field")
    return curve, EtaleAlgebra(curve, seed=args.seed) if roots else None


def cmd_model(args):
    # the Jacobian and its Kummer quadrics in P^9 read no roots
    curve, alg = _context(args, roots=args.which not in ("jacobian", "kummer-p9"))
    field = curve.field
    which = args.which
    out = {"field": field.spec_string(), "curve": curve.to_json(), "model": which}
    if which == "jacobian":
        jm = JacobianModel(curve, seed=args.seed)
        out["quadrics"] = [q.to_json() for q in jm.forms]
        out["verification"] = _jacobian_certificates(jm, args.seed)
    elif which == "kummer-p3":
        km = KummerModels(alg)
        out["quartic"] = km.kummer_quartic().to_json()
        out["verification"] = _sampled_check(
            curve, args.seed,
            lambda Ds: all(_kummer_quartic_vanishes(km, D) for D in Ds),
            100, "quartic_vanishes")
    elif which == "kummer-p9":
        evens = veronese_quadrics(field) + [kummer_image_quadric(curve)]
        out["quadrics"] = [q.to_json() for q in evens]
        out["verification"] = {"count": len(evens),
                               "rank": rank_rows(field, [q.vector() for q in evens])}
    elif which == "desing-p5":
        km = KummerModels(alg)
        out["matrices"] = [[[field.fmt(v) for v in row] for row in M.rows]
                           for M in km.y_matrices()]
        out["verification"] = _sampled_check(
            curve, args.seed,
            lambda Ds: forms_vanish_at(km.y_quadrics(),
                                       [(D.coords().v, D.field) for D in Ds]),
            100, "forms_vanish")
    elif which == "weddle":
        km = KummerModels(alg)
        out["quartic"] = km.weddle_quartic().to_json()
        out["verification"] = _sampled_check(
            curve, args.seed,
            lambda Ds: all(D.field.is_zero(km.weddle_quartic().evaluate(
                D.coords().odd[:4], D.field)) for D in Ds),
            100, "quartic_vanishes")
    elif which == "vdelta":
        if args.delta is None:
            raise BadInput("bad-delta", "--delta is required for the vdelta model")
        km = KummerModels(alg)
        delta = alg.elem(load_delta(field, args.delta))
        try:
            vd = km.v_delta(delta)
        except NonUnitDelta as exc:
            raise BadInput("bad-delta", str(exc)) from exc
        out["delta"] = delta.to_strings()
        out["matrices"] = vd.to_json()
        out["verification"] = {"matrices": 3, "symmetric": True}
    return out


def _kummer_quartic_vanishes(km, D):
    c = D.coords()
    kv = [c.v[0], c.kval(1, 2), c.kval(1, 3), c.kval(1, 4)]
    return D.field.is_zero(km.kummer_quartic().evaluate(kv, D.field))


def _sampled_check(curve, seed, vanishes, count, label):
    """Whether the model vanishes (``vanishes`` on a list of classes) at
    `count` classes sampled over ``sampling_field``."""
    K = sampling_field(curve.field)
    rng = random.Random(seed * 31337 + 5)
    return {"samples": count,
            label: vanishes([random_point(curve, K, rng) for _ in range(count)])}


def _jacobian_certificates(jm, seed):
    """Rank of the 72 quadrics, vanishing at 200 sampled points, and the
    dimensions of the quadrics vanishing at the model's own sampled classes
    (72 and 21, ``jm.kernel_dimensions``)."""
    curve = jm.curve
    K = sampling_field(curve.field)
    rng = random.Random(seed * 8191 + 11)
    pts = [random_point(curve, K, rng) for _ in range(200)]
    kdim, edim = jm.kernel_dimensions
    return {
        "rank": jm.rank,
        "samples": 200,
        "vanishes": jm.vanish_at(pts),
        "kernel_dimension": kdim,
        "even_only_dimension": edim,
    }


def cmd_twist(args):
    curve, alg = _context(args)
    delta = load_delta(curve.field, args.delta)
    n = load_n(curve.field, args.n)
    try:
        datum = TwistDatum(alg, delta, n)
    except NonUnitDelta as exc:
        raise BadInput("bad-delta", str(exc)) from exc
    model = TwistModel(TorsionContexts(alg), datum, seed=args.seed)
    descended = model.descend_to_ground() if args.descend else None
    bundle = model.to_json(descended)
    equivariant = model.eps.galois_t_equivariance()
    bundle["verification"] = {
        "rank": model.rank,
        "galois_t_equivariance": equivariant,
    }
    if descended is not None:
        bundle["verification"]["descended_rank"] = rank_rows(
            curve.field, [q.vector() for q in descended])
        bundle["verification"]["descended_ground"] = all(
            q.frobenius_fixed() for q in descended)
    if args.check:
        W = model.field
        divs = _classes(curve, W, random.Random(args.seed * 2029 + 3), 30)
        bundle["check"] = {
            "vanish_at_pullbacks": model.vanish_at_pullbacks(divs),
            "galois_t_equivariance": equivariant,
            "cocycle_matches_action": model.cocycle_matches_action(),
            "odd_block_matches_vdelta": model.matches_vdelta(),
            "rank": model.rank,
        }
    return bundle


def _classes(curve, W, rng, count):
    """`count` sampled classes over W, or over its quadratic extension when W
    holds no generic class (F_7 with f split: one x has f(x) != 0)."""
    try:
        return [random_point(curve, W, rng) for _ in range(count)]
    except ExhaustedAttempts:
        return [random_point(curve, Field.extension(W.p, 2 * W.deg), rng)
                for _ in range(count)]


def load_model_ref(raw: str, field) -> dict:
    """The bundle given inline or as a path by --model-ref, parsed into what
    its search reads: "delta", "n" and the 72 descended "forms" of a twist
    bundle; "delta" of a V_delta bundle over F_p; the 6x6 "matrices" over Q."""
    try:
        if raw.strip().startswith("{"):
            bundle = json.loads(raw)
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadInput("bad-model-ref", f"cannot read model-ref: {exc}") from exc
    if not isinstance(bundle, dict):
        raise BadInput("bad-model-ref", "model-ref must be a JSON object")
    # a bundle's "field" is its working field: F<p>, F<p>^<d> (over F<p>) or Q
    spec = str(bundle.get("field", field.spec_string()))
    if spec.split("^")[0] != field.spec_string():
        raise BadInput("bad-model-ref", f"model-ref is over {spec}, not {field}")
    if "quadrics_ground" in bundle and not field.is_finite():
        raise BadInput("bad-model-ref", "a twist bundle is searched over its finite field")
    if "quadrics_ground" in bundle:
        need = ("delta", "n")
    else:
        need = ("matrices", "delta") if field.is_finite() else ("matrices",)
    missing = [k for k in need if k not in bundle]
    if missing:
        raise BadInput("bad-model-ref", f"model-ref bundle lacks {', '.join(missing)}")
    try:
        if "quadrics_ground" in bundle:
            forms = [QuadricForm.from_json(field, q) for q in bundle["quadrics_ground"]]
            if len(forms) != 72:
                raise ValueError(f"a twist bundle has 72 forms, not {len(forms)}")
            return {"delta": parse_values(field, bundle["delta"], 6, _DELTA_SHAPE),
                    "n": field.parse(str(bundle["n"])), "forms": forms}
        if field.is_finite():
            return {"delta": parse_values(field, bundle["delta"], 6, _DELTA_SHAPE)}
        shape = "matrices must be a JSON array of 6x6 arrays"
        mats = bundle["matrices"]
        if not isinstance(mats, list) or any(not isinstance(M, list) or len(M) != 6
                                             for M in mats):
            raise ValueError(shape)
        return {"matrices": [Mat(field, [parse_values(field, row, 6, shape)
                                         for row in M]) for M in mats]}
    except (Genus2Error, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadInput("bad-model-ref",
                       f"bad model-ref value ({type(exc).__name__}: {exc})") from exc


def cmd_search(args):
    field = load_field(args.field)
    points = (field.p ** 6 - 1) // (field.p - 1) if field.is_finite() else 0
    if points > P5_SCAN_BUDGET:
        raise BadInput("bad-field", f"search would scan the {points} points of "
                       f"P^5(F_{field.p}), above its budget of {P5_SCAN_BUDGET}")
    if field.is_finite() and args.bound is not None:
        raise BadInput("bad-bound", "--bound is a height bound over Q; "
                       "over F_p all of P^5 is scanned")
    bound = args.bound or 0
    if bound < 0:
        raise BadInput("bad-bound", f"--bound must be at least 0, not {bound}")
    tuples = (2 * bound + 1) ** 6
    if tuples > Q_SEARCH_BUDGET:
        raise BadInput("bad-bound", f"search would walk the {tuples} integer 6-tuples "
                       f"of height <= {bound}, above its budget of {Q_SEARCH_BUDGET}")
    ref = load_model_ref(args.model_ref, field)
    curve = load_curve(field, args.curve)
    if "matrices" in ref:
        # over Q: enumerate integer vectors up to the bound on the matrices
        pts = search_vdelta_rational(ref["matrices"], bound)
        return {"count": len(pts), "points": [list(p) for p in pts]}
    alg = EtaleAlgebra(curve, seed=args.seed)
    try:
        if "forms" in ref:
            # the search reads the scale factors t_I, so no TwistModel is built
            datum = TwistDatum(alg, ref["delta"], ref["n"])
            eps = EpsilonChoice(TorsionContexts(alg), datum, seed=args.seed)
            pts = search_twist_points(eps, descended=ref["forms"])
        else:
            pts = search_vdelta_points(KummerModels(alg).v_delta(alg.elem(ref["delta"])))
    except NonUnitDelta as exc:   # the bundle's delta has norm zero
        raise BadInput("bad-model-ref", str(exc)) from exc
    return {"count": len(pts), "points": [[field.fmt(v) for v in p] for p in pts]}


# ---------------------------------------------------------------------------
# verification suites


def cmd_verify(args):
    curve, alg = _context(args)
    suite = args.suite
    checks = []
    if suite in ("quadrics", "diagonal", "all"):
        jm = JacobianModel(curve, seed=args.seed)
    if suite in ("quadrics", "all"):
        checks.extend(_verify_quadrics(jm, args.seed))
    if suite in ("action", "diagonal", "twist", "all"):
        ctx = TorsionActionCtx(alg)
        if suite in ("action", "all"):
            checks.extend(_verify_action(alg, ctx))
        if suite in ("diagonal", "all"):
            checks.extend(_verify_diagonal_suite(alg, ctx, jm))
        if suite in ("twist", "all"):
            checks.extend(_verify_twist(curve, alg, ctx, args.seed))
    ok = all(c["passed"] == c["total"] for c in checks)
    return {"suite": suite, "field": curve.field.spec_string(),
            "curve": curve.to_json(), "checks": checks, "ok": ok}


def _check(name, passed, total):
    return {"name": name, "passed": passed, "total": total}


def _verify_quadrics(jm, seed):
    cert = _jacobian_certificates(jm, seed)
    return [
        _check("quadrics.vanish_200_points", 200 if cert["vanishes"] else 0, 200),
        _check("quadrics.rank_72", 1 if cert["rank"] == 72 else 0, 1),
        _check("quadrics.kernel_dim_72", 1 if cert["kernel_dimension"] == 72 else 0, 1),
        _check("quadrics.even_dim_21", 1 if cert["even_only_dimension"] == 21 else 0, 1),
    ]


def _verify_action(alg, ctx):
    K = alg.splitting
    pts = all_two_torsion()
    ok_sq = ok_det = ok_quartic = 0
    # the Kummer quartic at M_P k is Res^2 Q(T10_P v(k)): Q is the Kummer
    # quadric (matrix A) and v(k) = (k_i k_j)
    A = even_matrix(kummer_image_quadric(alg.curve), K)
    quartic = veronese_quartic(A).terms
    for P in pts:
        M = ctx.mp_matrix(P)
        res = ctx.res_gh(P)
        sq = M * M
        good = all(K.eq(sq.rows[i][j], res if i == j else K.zero())
                   for i in range(4) for j in range(4))
        ok_sq += good
        ok_det += K.eq(M.det(), K.mul(res, res))
        T = ctx.t10_matrix(P)
        ok_quartic += veronese_quartic(T.transpose() * A * T).terms == quartic
    ok_law = _group_law_pairs(ctx, pts)
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


def _group_law_pairs(ctx, pts):
    """The number of pairs (P, Q) of `pts` with T10_P T10_Q = e_W(P, Q)
    T10_{P+Q}.  Every product T10_P T10_Q is a block of one product: the
    matrices stacked in a column times the same stacked in a row (sums of
    max(10, d^2) products, ``ext_matmul_np``)."""
    K, d, n = ctx.K, ctx.K.deg, len(pts)
    T = to_np(K, [ctx.t10_matrix(P).rows for P in pts] + [Mat.identity(K, 10).rows],
              max(10, d * d)).reshape(n + 1, 10, 10, d)
    column, row = T[:n].reshape(10 * n, 10, d), T[:n].transpose(1, 0, 2, 3).reshape(10, 10 * n, d)
    if K.kind == "ext":
        prod = ext_matmul_np(K, column, row)
    else:
        prod = (column[..., 0] @ row[..., 0] % K.p)[..., None]
    prod = prod.reshape(n, 10, n, 10, d)
    index = {P.mask: k for k, P in enumerate(pts)}
    ok = 0
    for a, P in enumerate(pts):
        for b, Q in enumerate(pts):
            rhs = T[index.get((P + Q).mask, n)]   # the identity for P = Q
            if weil_pairing(P, Q) == -1:
                rhs = -rhs % K.p
            ok += np.array_equal(prod[a, :, b], rhs)
    return ok


def _verify_diagonal_suite(alg, ctx, jm):
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
    for I in ctx.reps + [1 << i for i in range(6)]:
        expected[tuple(character_chi(I, m) for m in masks)] = 0
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
    # the generators are independent and span every lifted Jacobian form
    joint = independent_picks(K, [q.vector() for _, q in gens]
                              + [[_lift(jm.field, K, v) for v in q.vector()]
                                 for q in jm.forms]) == list(range(72))
    return [
        _check("diagonal.G_times_Ginv", 1 if gg else 0, 1),
        _check("diagonal.masks_diagonalized", diag_ok, 31),
        _check("diagonal.character_census", 1 if census_ok else 0, 1),
        _check("diagonal.generator_dims", 1 if dims_ok else 0, 1),
        _check("diagonal.joint_rank_72", 1 if joint else 0, 1),
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
    trivial = None  # the model of data[0] and its descended forms
    contexts = TorsionContexts(alg, base=ctx)
    for datum in data:
        try:
            tm = TwistModel(contexts, datum, seed=seed)
        except TIVanishes:
            reported += 1
            continue
        built += 1
        W = tm.field
        divs = _classes(curve, W, rng, 20)
        vanished += tm.vanish_at_pullbacks(divs)
        equiv += tm.eps.galois_t_equivariance()
        cocycle += tm.cocycle_matches_action()
        vblock += tm.matches_vdelta()
        try:
            forms = tm.descend_to_ground()
            descended += 1
        except Genus2Error:
            forms = None
        if datum is data[0]:
            trivial = (tm, forms)
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
        tm, forms = trivial
        expect = count_jacobian_points(curve)
        got = len(search_twist_points(tm, descended=forms))
        checks.append(_check("twist.trivial_point_count", 1 if got == expect else 0, 1))
    return checks


if __name__ == "__main__":
    sys.exit(main())
