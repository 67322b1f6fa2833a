"""The traced run: in-process passes over the public calls of every module
on each of the workload's representative curves and twist data, plus full
point searches over small fields, with a span around each call.

Spans (name, start, end, parent, job id) are recorded only here, in the
benchmark's own files, and kept in memory until the end, when they go to
bench/out/ with each span's self time.  Untraced passes of the same call
sequence alternate with the traced ones; the two pass times give the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import subprocess
import sys
import time

import gen
import run as bench
import workloads

# metric name -> unit; the span name is the metric name without its unit
# suffix, and "_us" metrics are per operation
LAYER_METRICS = {
    "fields.mul_us": "us", "fields.inv_us": "us", "fields.sqrt_us": "us",
    "fields.mul_ext_us": "us", "fields.inv_ext_us": "us", "fields.sqrt_ext_us": "us",
    "fields.pw_frob_us": "us", "fields.frobenius_us": "us", "fields.extension_s": "s",
    "poly.splitting_s": "s", "etale.algebra_s": "s",
    "curve.random_point_us": "us", "curve.coords_us": "us",
    "quadrics.jacobian_model_s": "s", "quadrics.interpolate_bb_s": "s",
    "quadrics.kernel_dims_s": "s", "quadrics.vanish_s": "s",
    "linalg.rank_fp_s": "s", "linalg.kernel_fp_s": "s", "linalg.rank_fq_s": "s",
    "kummer.models_s": "s", "kummer.vdelta_s": "s",
    "torsion.ctx_s": "s", "torsion.invariant_generators_s": "s",
    "torsion.verify_diagonal_s": "s",
    "twist.model_s": "s", "twist.descend_s": "s", "twist.checks_s": "s",
    "twist.search_twist_s": "s", "twist.search_vdelta_s": "s",
    "twist.count_points_s": "s", "twist.search_vdelta_point_us": "us",
    "cli.startup_s": "s",
}
# metrics read from a span of another name: the V_delta search per point
SPAN_OF = {"twist.search_vdelta_point_us": "twist.search_vdelta"}
FACTS = {"etale.splitting_degree": "count", "twist.working_degree": "count",
         "twist.p5_points_scanned": "count", "twist.points_found": "count"}
SAMPLE_POINTS = 40


class Tracer:
    """Spans in memory; a disabled tracer runs the same code with no records."""

    def __init__(self, enabled: bool, job=None):
        self.enabled = enabled
        self.job = job
        self.spans = []        # [name, start, end, parent index, job id, ops]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, ops=1):
        if not self.enabled:
            yield
            return
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.job, ops]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_layer(self):
        """Metric values of the recorded pass: seconds summed per span name,
        or microseconds per operation for the "_us" metrics."""
        total, ops = {}, {}
        for name, t0, t1, _, _, n in self.spans:
            total[name] = total.get(name, 0.0) + (t1 - t0)
            ops[name] = ops.get(name, 0) + n
        out = {}
        for metric, unit in LAYER_METRICS.items():
            name = SPAN_OF.get(metric, metric.rsplit("_", 1)[0])
            if name in total:
                out[metric] = total[name] / ops[name] * 1e6 if unit == "us" else total[name]
        return out


def _micro(tr, name, fn, elems, n):
    with tr.span(name, ops=n):
        for a in itertools.islice(itertools.cycle(elems), n):
            fn(a)


def call_sequence(tr, inp, seed):
    """Every module's public entry points on one curve and twist datum.
    Returns the facts and the outcome of each correctness check."""
    from genus2covers.curve import CurveData, random_point
    from genus2covers.errors import Genus2Error, NotGeneric, TIVanishes
    from genus2covers.etale import EtaleAlgebra, even_masks
    from genus2covers.fields import Field
    from genus2covers.kummer import KummerModels
    from genus2covers.linalg import kernel_rows, rank_rows
    from genus2covers.poly import splitting_field_and_roots
    from genus2covers.quadrics import (JacobianModel, interpolate_bb_quadrics,
                                       sampling_field, vanishing_kernel_dimensions)
    from genus2covers.torsion import TorsionActionCtx
    from genus2covers.twist import TwistDatum, TwistModel

    c, delta, n, wd = inp
    rng = random.Random(seed)
    F = Field.prime(c.p)
    checks, facts = {}, {}
    curve = CurveData(F, [F.from_int(x) for x in c.f])

    def points(K, count):
        out = []
        while len(out) < count:
            try:
                out.append(random_point(curve, K, rng))
            except NotGeneric:
                continue
        return out

    with tr.span("fields.extension"):
        Field.extension(c.p, max(2, wd))
    with tr.span("poly.splitting"):
        splitting_field_and_roots(curve.f, seed=seed)
    with tr.span("etale.algebra"):
        alg = EtaleAlgebra(curve, seed=seed)
    facts["etale.splitting_degree"] = alg.splitting.deg
    checks["splitting_degree"] = alg.splitting.deg == c.splitting_degree

    with tr.span("quadrics.jacobian_model"):
        jm = JacobianModel(curve, seed=seed)
    with tr.span("quadrics.interpolate_bb"):
        interpolate_bb_quadrics(curve, seed=seed)
    with tr.span("quadrics.kernel_dims"):
        checks["kernel_dims_72_21"] = tuple(vanishing_kernel_dimensions(curve, seed=seed)) == (72, 21)
    Ks = sampling_field(F)
    with tr.span("curve.random_point", ops=SAMPLE_POINTS):
        pts = points(Ks, SAMPLE_POINTS)
    with tr.span("curve.coords", ops=SAMPLE_POINTS):
        for D in pts:
            D.coords()
    with tr.span("quadrics.vanish"):
        checks["vanish"] = jm.vanish_at(pts)
    vecs = [q.vector() for q in jm.forms]
    with tr.span("linalg.rank_fp"):
        checks["rank_fp_72"] = rank_rows(F, vecs) == 72
    with tr.span("linalg.kernel_fp"):
        checks["kernel_fp_64"] = len(kernel_rows(F, vecs)) == len(vecs[0]) - 72

    with tr.span("kummer.models"):
        km = KummerModels(alg)
        km.kummer_quartic()
        km.y_matrices()
        km.weddle_quartic()
    with tr.span("kummer.vdelta"):
        vd = km.v_delta(alg.elem([F.from_int(x) for x in delta]))

    with tr.span("torsion.ctx"):
        ctx = TorsionActionCtx(alg)
    with tr.span("torsion.invariant_generators"):
        checks["generators_72"] = len(ctx.invariant_generators()) == 72
    with tr.span("torsion.verify_diagonal"):
        diagonal = 0
        for m in even_masks(nontrivial_only=True):
            try:
                ctx.verify_diagonal(m)
                diagonal += 1
            except Genus2Error:
                pass
    checks["masks_diagonalized"] = diagonal > 0

    datum = TwistDatum(alg, [F.from_int(x) for x in delta], F.from_int(n))
    vanishes = False
    try:
        with tr.span("twist.model"):
            tm = TwistModel(ctx, datum, seed=seed)
    except TIVanishes:
        # a correct outcome only where predicted; the trivial twist stands in
        vanishes = True
        datum, wd = TwistDatum.trivial(alg), alg.splitting.deg
        with tr.span("twist.model"):
            tm = TwistModel(ctx, datum, seed=seed)
    checks["t_vanishes_as_predicted"] = vanishes == gen.t_vanishes(c, delta, n)
    W = tm.field
    facts["twist.working_degree"] = W.deg
    checks["working_degree"] = W.deg == wd
    with tr.span("linalg.rank_fq"):
        checks["rank_fq_72"] = rank_rows(W, [q.vector() for q in tm.forms]) == 72
    with tr.span("twist.descend"):
        checks["descended_72"] = len(tm.descend_to_ground()) == 72
    with tr.span("twist.checks"):
        divs = points(W, 10)
        checks["twist_checks"] = (tm.vanish_at_pullbacks(divs)
                                  and tm.eps.galois_t_equivariance()
                                  and tm.cocycle_matches_action() and tm.matches_vdelta())

    for suffix, G, counts in (("", F, (4000, 1000, 200)), ("_ext", W, (2000, 200, 20))):
        elems = [G.rand(rng) for _ in range(64)]
        elems = [a for a in elems if not G.is_zero(a)]
        squares = [G.mul(a, a) for a in elems]
        b = elems[0]
        _micro(tr, f"fields.mul{suffix}", lambda a: G.mul(a, b), elems, counts[0])
        _micro(tr, f"fields.inv{suffix}", G.inv, elems, counts[1])
        _micro(tr, f"fields.sqrt{suffix}", G.sqrt, squares, counts[2])
    elems = [W.rand(rng) for _ in range(16)]
    q = W.p ** alg.splitting.deg
    _micro(tr, "fields.pw_frob", lambda a: W.pw(a, q), elems, 50)
    _micro(tr, "fields.frobenius", W.frobenius, elems, 200)

    return facts, checks


def search_sequence(tr, sinp, seed):
    """Full searches of P^5(F_p): the V_delta points and the twist points,
    which scan different code paths, and the Jacobian point count.  Each
    result is checked in plain ints against the generator."""
    from genus2covers.curve import CurveData
    from genus2covers.etale import EtaleAlgebra
    from genus2covers.fields import Field
    from genus2covers.kummer import KummerModels
    from genus2covers.torsion import TorsionActionCtx
    from genus2covers.twist import (TwistDatum, TwistModel, count_jacobian_points,
                                    search_twist_points, search_vdelta_points)

    vc, vdelta, tc, (delta, n) = sinp
    checks, scanned, found = {}, 0, 0

    def ints(F, vec):
        return [int(F.fmt(x)) for x in vec]

    F = Field.prime(vc.p)
    alg = EtaleAlgebra(CurveData(F, [F.from_int(x) for x in vc.f]), seed=seed)
    vd = KummerModels(alg).v_delta(alg.elem([F.from_int(x) for x in vdelta]))
    npts = (vc.p ** 6 - 1) // (vc.p - 1)
    with tr.span("twist.search_vdelta", ops=npts):
        pts = search_vdelta_points(vd)
    mats = [[ints(F, row) for row in m.rows] for m in vd.matrices]
    checks["vdelta_points_on_forms"] = all(
        gen.quadric_value(m, ints(F, pt), vc.p) == 0 for pt in pts for m in mats)
    scanned, found = scanned + npts, found + len(pts)

    F = Field.prime(tc.p)
    curve = CurveData(F, [F.from_int(x) for x in tc.f])
    alg = EtaleAlgebra(curve, seed=seed)
    tm = TwistModel(TorsionActionCtx(alg),
                    TwistDatum(alg, [F.from_int(x) for x in delta], F.from_int(n)), seed=seed)
    forms = tm.descend_to_ground()
    with tr.span("twist.search_twist"):
        pts = search_twist_points(tm, descended=forms)
    order = gen.jacobian_order(tc)
    checks["twist_points_are_jacobian_order"] = len(pts) == order
    coeffs = [[(i, j, int(F.fmt(c))) for (i, j), c in q.coeffs.items()] for q in forms]
    checks["twist_points_on_forms"] = all(
        sum(c * v[i] * v[j] for i, j, c in q) % tc.p == 0
        for v in (ints(F, pt) for pt in pts) for q in coeffs)
    with tr.span("twist.count_points"):
        checks["count_points"] = count_jacobian_points(curve) == order
    scanned, found = scanned + (tc.p ** 6 - 1) // (tc.p - 1), found + len(pts)
    return {"twist.p5_points_scanned": scanned, "twist.points_found": found}, checks


def cli_startup(inp, seed):
    """Subprocess wall minus in-process cli.main wall for the same argv."""
    from genus2covers import cli
    c = inp[0]
    argv = ["curve-info", "--field", c.field, "--curve", c.curve_json(), "--seed", str(seed)]
    sub, inproc = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "genus2covers.cli", *argv], cwd=bench.ROOT,
                       env=bench.child_env(), check=True, capture_output=True)
        sub.append(time.perf_counter() - t0)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(argv)
            inproc.append(time.perf_counter() - t0)
    return statistics.median(sub) - statistics.median(inproc)


def one_pass(tr, wl, seed):
    """The call sequence on each of the workload's traced inputs, whose
    spans add up per layer, then the searches.  The facts are those of the
    first input."""
    facts, checks = {}, {}
    for i, inp in enumerate(wl.trace_inputs):
        more_facts, more_checks = call_sequence(tr, inp, seed)
        facts = {**more_facts, **facts}
        checks.update({f"{k}@{i}": v for k, v in more_checks.items()})
    more_facts, more_checks = search_sequence(tr, wl.search_input, seed)
    return {**facts, **more_facts}, {**checks, **more_checks}


def run(args, start):
    sys.path.insert(0, str(bench.SRC))
    tmp = bench.OUT / "tmp" / f"{args.workload}-{args.seed}-trace"
    tmp.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, tmp)

    import genus2covers.cli  # noqa: F401  (imports every module)
    # traced and untraced passes alternate, so drift hits both alike; the
    # traced pass goes first, so first-call costs, if any, count as overhead
    passes, untraced, all_spans, checks, facts = [], [], [], {}, {}
    loop_end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() + untraced[-1] + passes[-1]["trace.traced_pass_s"] \
            <= min(loop_end, start + bench.HARD_DEADLINE):
        tr = Tracer(True, job=len(passes))
        t0 = time.perf_counter()
        with tr.span("pass"):
            facts, ok = one_pass(tr, wl, args.seed)
        values = tr.per_layer()
        values["trace.traced_pass_s"] = time.perf_counter() - t0
        passes.append(values)
        for k, v in ok.items():
            checks[f"{k}#{tr.job}"] = v
        all_spans += [s[:5] + [st] for s, st in zip(tr.spans, tr.self_times())]
        t0 = time.perf_counter()
        one_pass(Tracer(False), wl, args.seed)
        untraced.append(time.perf_counter() - t0)

    metrics = {m: (statistics.median(p[m] for p in passes), u)
               for m, u in LAYER_METRICS.items() if m != "cli.startup_s"}
    metrics["cli.startup_s"] = (cli_startup(wl.trace_inputs[0], args.seed), "s")
    for m, u in FACTS.items():
        metrics[m] = (facts[m], u)
    traced = statistics.median(p["trace.traced_pass_s"] for p in passes)
    untraced = statistics.median(untraced)
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (traced, "s")

    bench.OUT.mkdir(parents=True, exist_ok=True)
    spans_path = bench.OUT / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "job", "self_s"], "spans": all_spans}) + "\n")
    failed = [k for k, v in checks.items() if not v]
    report = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
              "tracing_overhead_pct": 100.0 * (traced - untraced) / untraced,
              "failed_checks": failed, "spans_file": str(spans_path)}
    bench.write_out(args, report, [])
    print(f"traced workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"tracing overhead {report['tracing_overhead_pct']:+.2f}% "
          f"({traced:.3f} s traced vs {untraced:.3f} s untraced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:12.6g} {unit}")
    for k in failed:
        print(f"  FAILED check {k}")
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}
