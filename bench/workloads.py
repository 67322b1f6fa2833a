"""The two workloads: seeded job lists for the CLI and the output check of
every job.

Each workload is a fixed list of job slots, each with a fixed prime and
factor-degree pattern.  The seed draws the curve and the twist data of every
slot, so the mix of commands, field regimes and working degrees is the same
for every seed and only the concrete inputs change.  That keeps one run's
figures comparable with another's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

TRIVIAL = ([1, 0, 0, 0, 0, 0], 1)

# Jobs the program gets wrong today (ROADMAP item 2).  They run once per
# run as probes, outside the timed passes, and are reported on their own.
PROBES = {
    "models-twists": [
        ("char-3 identity piece",
         ["twist", "--field", "F3", "--curve", "[2,2,0,2,0,1,1]",
          "--delta", '["1","0","0","0","0","0"]', "--n", "1", "--descend", "--check"], 30.0),
        ("modulus search at p=40000003, degree 4",
         ["curve-info", "--field", "F40000003", "--curve", "[5,1,2,1,1,3,1]"], 3.0)],
}


@dataclass
class Job:
    cmd: str                      # metric family: curve_info, model, ...
    argv: list
    check: object                 # check(rc, text) -> list of problems
    out: Path | None = None       # bundle written with --out, if any
    facts: dict = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list
    trace_inputs: list            # [(curve, delta, n, working degree)]
    search_input: tuple           # (V_delta curve, delta, twist curve, datum)
    prepare: list = field(default_factory=list)   # run once, untimed, before the loop


def field_spec(p: int, d: int) -> str:
    return f"F{p}" if d == 1 else f"F{p}^{d}"


def _strs(v):
    return json.dumps([str(x) for x in v])


def _base(cmd, c, seed):
    return [cmd, "--field", c.field, "--curve", c.curve_json(), "--seed", str(seed)]


def cassels_with_degree(rng, c, wd):
    """Cassels data whose twist is built over working degree wd and has no
    vanishing t_I, so every seed's job runs the whole twist."""
    for _ in range(2000):
        delta, n = gen.cassels_datum(rng, c)
        if gen.working_degree(c, delta) == wd and not gen.t_vanishes(c, delta, n):
            return delta, n
    raise ValueError(f"no Cassels datum of working degree {wd} on {c.f} mod {c.p}")


# -- checks ----------------------------------------------------------------------


def _load(text):
    try:
        return json.loads(text), []
    except ValueError:
        return None, ["stdout is not JSON"]


def _want(cond, msg, problems):
    if not cond:
        problems.append(msg)


def check_curve_info(c):
    def check(rc, text):
        d, probs = _load(text)
        if d is None or rc != 0:
            return probs + [f"exit code {rc}"]
        _want(d.get("splitting_degree") == c.splitting_degree,
              f"splitting degree {d.get('splitting_degree')} != {c.splitting_degree}", probs)
        _want(len(set(d.get("roots", []))) == 6, "six distinct roots", probs)
        _want(d.get("f") == [str(x) for x in c.f], "curve echoed", probs)
        return probs
    return check


def check_model(which, c):
    def check(rc, text):
        d, probs = _load(text)
        if d is None or rc != 0:
            return probs + [f"exit code {rc}"]
        v = d.get("verification", {})
        if which == "jacobian":
            _want(len(d.get("quadrics", [])) == 72, "72 quadrics", probs)
            _want(v.get("rank") == 72, f"rank {v.get('rank')} != 72", probs)
            _want(v.get("vanishes") is True, "quadrics vanish at samples", probs)
            _want(v.get("kernel_dimension") == 72, "kernel dimension 72", probs)
            _want(v.get("even_only_dimension") == 21, "even-only dimension 21", probs)
        elif which in ("kummer-p3", "weddle"):
            _want(v.get("quartic_vanishes") is True, "quartic vanishes", probs)
        elif which == "desing-p5":
            _want(v.get("forms_vanish") is True, "P^5 forms vanish", probs)
        elif which == "vdelta":
            mats = d.get("matrices", [])
            _want(len(mats) == 3 and all(_symmetric(m) for m in mats),
                  "three symmetric 6x6 matrices", probs)
        return probs
    return check


def _symmetric(m):
    return len(m) == 6 and all(len(r) == 6 for r in m) and all(
        m[i][j] == m[j][i] for i in range(6) for j in range(6))


def check_twist(c, wd, vanishes):
    """vanishes: the generator's prediction that some t_I is zero, in which
    case exit 4 with kind t-vanishes is the correct outcome, and the only
    one."""
    want_field = field_spec(c.p, wd)

    def check(rc, text):
        d, probs = _load(text)
        if d is None:
            return probs
        if rc == 4 or vanishes:
            _want(rc == 4 and vanishes and d.get("kind") == "t-vanishes"
                  and d.get("partitions"),
                  f"exit {rc}, t_I = 0 predicted: {vanishes}", probs)
            return probs
        if rc != 0:
            return probs + [f"exit code {rc}: {d.get('error', '')}"]
        v = d.get("verification", {})
        _want(d.get("field") == want_field,
              f"working field {d.get('field')} != {want_field}", probs)
        _want(v.get("rank") == 72 and v.get("descended_rank") == 72,
              "ranks 72", probs)
        _want(v.get("galois_t_equivariance") is True
              and v.get("descended_ground") is True, "descent checks", probs)
        _want(len(d.get("quadrics_ground", [])) == 72, "72 ground quadrics", probs)
        return probs
    return check


def check_verify():
    def check(rc, text):
        d, probs = _load(text)
        if d is None:
            return probs
        _want(rc == 0 and d.get("ok") is True, f"exit {rc}, ok={d.get('ok')}", probs)
        bad = [c["name"] for c in d.get("checks", []) if c["passed"] != c["total"]]
        _want(not bad, f"failed checks {bad}", probs)
        _want(bool(d.get("checks")), "checks reported", probs)
        return probs
    return check


def check_search(c, bundle: Path, kind, facts):
    """The count equals #J(F_p) for a twist (every two-covering over F_p has
    a point, by Lang's theorem, and the rational ones number #J(F_p)); every
    point satisfies the bundle's forms, evaluated here in plain ints."""
    p = c.p
    expect = gen.jacobian_order(c) if kind == "twist" else None

    def check(rc, text):
        d, probs = _load(text)
        if d is None or rc != 0:
            return probs + [f"exit code {rc}"]
        pts = [[int(x) for x in pt] for pt in d.get("points", [])]
        facts["points_found"] = len(pts)
        facts["p5_points_scanned"] = (p ** 6 - 1) // (p - 1)
        _want(d.get("count") == len(pts), "count matches the point list", probs)
        _want(len(set(map(tuple, pts))) == len(pts), "points distinct", probs)
        b = json.loads(bundle.read_text())
        if kind == "twist":
            _want(len(pts) == expect, f"count {len(pts)} != #J(F_p) = {expect}", probs)
            forms = [[(int(i), int(j), int(v)) for i, j, v in q["entries"]]
                     for q in b["quadrics_ground"]]
            bad = sum(1 for pt in pts if any(
                sum(v * pt[i] * pt[j] for i, j, v in q) % p for q in forms))
        else:
            mats = [[[int(v) for v in row] for row in m] for m in b["matrices"]]
            bad = sum(1 for pt in pts if any(gen.quadric_value(m, pt, p) for m in mats))
        _want(bad == 0, f"{bad} points off the forms", probs)
        return probs
    return check


# -- job builders -------------------------------------------------------------------


def curve_info(c, seed):
    return Job("curve_info", _base("curve-info", c, seed), check_curve_info(c),
               facts={"splitting_degree": c.splitting_degree})


def model(c, which, seed, delta=None, out=None):
    argv = _base("model", c, seed) + ["--which", which]
    if delta is not None:
        argv += ["--delta", _strs(delta)]
    if out is not None:
        argv += ["--out", str(out)]
    cmd = "model" if which == "jacobian" else "model_kummer"
    return Job(cmd, argv, check_model(which, c), out=out)


def twist(c, datum, wd, seed, out=None):
    """`twist --descend`, without --check: `verify --suite twist` runs the
    checks that --check adds."""
    delta, n = datum
    argv = _base("twist", c, seed) + ["--delta", _strs(delta), "--n", str(n), "--descend"]
    if out is not None:
        argv += ["--out", str(out)]
    vanishes = gen.t_vanishes(c, delta, n)
    facts = {"working_degree": wd, "splitting_degree": c.splitting_degree,
             "t_vanishes": int(vanishes)}
    return Job("twist", argv, check_twist(c, wd, vanishes), out=out, facts=facts)


def verify(c, suite, seed):
    return Job("verify", _base("verify", c, seed) + ["--suite", suite], check_verify())


def search(c, bundle, kind, seed):
    facts = {}
    return Job("search", _base("search", c, seed) + ["--model-ref", str(bundle)],
               check_search(c, bundle, kind, facts), facts=facts)


def _curve_and_datum(rng, p, pattern, kind):
    """A search curve and its twist datum.  The twist search costs about
    in proportion to #J(F_p), the number of points it finds, so twist
    curves keep #J(F_p) within p^2/8 of p^2."""
    while True:
        c = gen.random_curve(rng, p, pattern)
        if kind != "vdelta" and abs(gen.jacobian_order(c) - p * p) > p * p // 8:
            continue
        if kind == "trivial":
            return c, TRIVIAL
        try:
            datum = gen.cassels_datum(rng, c)
        except ValueError:  # too few points for Cassels data: redraw
            continue
        if kind == "vdelta" or not gen.t_vanishes(c, *datum):
            return c, datum


def search_input(rng):
    """The curves the traced run searches in full: a V_delta and a twist
    over F_7."""
    vc, (vdelta, _) = _curve_and_datum(rng, 7, [2, 2, 1, 1], "vdelta")
    tc, datum = _curve_and_datum(rng, 7, [2, 2, 1, 1], "cassels")
    return vc, vdelta, tc, datum


def build(name: str, seed: int, tmp: Path) -> Workload:
    # The primes are fixed per slot; the seed draws the curves and the data.
    # The cost of the extension-modulus search depends on p (on p mod d, for
    # degree d), so drawing p would make one seed's run several times slower
    # than another's for reasons no per-layer change could move.
    rng = random.Random(f"{name}:{seed}")
    curve = lambda p, pattern: gen.random_curve(rng, p, pattern)
    s = seed
    if name == "models-twists":
        # Prime-field models at small primes (numpy path, sampling field
        # F_{p^2}) and above the numpy path's 2^25 limit (pure-Python rref
        # fallback, big-p field arithmetic), then twists, which work over
        # extension fields.
        c2 = curve(101, [2, 1, 1, 1, 1])
        c4 = curve(1009, [4, 1, 1])
        big1 = curve(40000003, [1] * 6)
        big2 = curve(2 ** 31 - 1, [2, 2, 2])
        t4 = curve(101, [4, 1, 1])
        t6 = curve(1999, [6])
        rebuilt = cassels_with_degree(rng, t4, 8)
        # The twist suite draws its own Cassels data from the curve and
        # --seed, and takes 1.4 s to 2.9 s depending on how many of them need
        # the quadratic extension.  So it runs on one fixed input.
        c1 = gen.random_curve(random.Random("verify-twist"), 101, [1] * 6)
        jobs = [curve_info(big2, s), model(c2, "jacobian", s), model(c4, "desing-p5", s),
                verify(c4, "action", s), model(big1, "jacobian", s),
                twist(t4, rebuilt, 8, s), twist(t6, TRIVIAL, 6, s), verify(c1, "twist", 1)]
        # the traced run also builds a working-degree-2 twist at p=40000003
        traced = [(t4, *rebuilt, 8), (big1, *cassels_with_degree(rng, big1, 2), 2)]
        return Workload(jobs, traced, search_input(rng))
    if name == "search":
        # The bundles are written once, before the timed loop, and checked
        # like any job; only the searches are timed.
        prepare, jobs, picked = [], [], []
        slots = [(11, [1] * 6, "cassels"), (7, [2, 2, 1, 1], "trivial"),
                 (7, [2, 2, 1, 1], "vdelta")]
        for k, (p, pattern, kind) in enumerate(slots):
            c, datum = _curve_and_datum(rng, p, pattern, kind)
            picked.append((c, datum))
            wd = gen.working_degree(c, datum[0])
            bundle = tmp / f"bundle{k}.json"
            if kind == "vdelta":
                prepare.append(model(c, "vdelta", s, delta=datum[0], out=bundle))
            else:
                prepare.append(twist(c, datum, wd, s, out=bundle))
            jobs.append(search(c, bundle, "vdelta" if kind == "vdelta" else "twist", s))
        (tc, tdatum), _, (vc, (vdelta, _)) = picked
        return Workload(jobs, [(vc, *TRIVIAL, vc.splitting_degree)],
                        (vc, vdelta, tc, tdatum), prepare)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("models-twists", "search")
