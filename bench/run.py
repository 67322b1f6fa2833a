"""Benchmark for genus2covers.

    python3 bench/run.py --workload models-twists --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  With --trace 0 it runs the
workload's CLI jobs as fresh `python -m genus2covers.cli` subprocesses, one
at a time (a closed loop with one client), in passes over the job list
until --seconds have elapsed, checks every output, and prints the
end-to-end metrics.  With --trace 1 it instead times each module's public
calls in process (see traced.py) and prints the per-layer metrics.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it are a human-readable report; the same report, the
per-job records and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import PackageNotFoundError, version as metadata_version
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
JOB_TIMEOUT = 60.0      # seconds; a job over the limit counts as failed
HARD_DEADLINE = 150.0   # seconds from the start; jobs are cut off here
SETUP_REPEATS = 9


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Result:
    __slots__ = ("wall", "cpu", "rss_kb", "rc", "stdout", "timed_out")


def run_cli(argv, timeout, tag):
    """Run one CLI job; wall time, child CPU and max-RSS from wait4."""
    out_path = OUT / "tmp" / f"{tag}.stdout"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out_path, "wb") as out, open(out_path.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "genus2covers.cli", *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=child_env())

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    r = Result()
    r.wall, r.cpu, r.rss_kb = wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss
    r.rc, r.timed_out = proc.returncode, state["killed"]
    r.stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return r


def setup_seconds():
    """Median wall time of a fresh interpreter importing genus2covers.

    One untimed import of the CLI first compiles the bytecode, as a user's
    first run would."""
    cmd = [sys.executable, "-c", "import genus2covers"]
    subprocess.run([sys.executable, "-c", "import genus2covers.cli"], cwd=ROOT,
                   env=child_env(), check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], round(100.0 * (k + 1) / n, 1), n


def run_probe(name, argv, limit, tag):
    r = run_cli(argv, limit, tag)
    try:
        d = json.loads(r.stdout)
    except ValueError:
        d = {}
    if r.timed_out:
        outcome = f"no result within {limit:.0f} s"
    elif r.rc != 0:
        outcome = f"exit {r.rc}: {d.get('error', '')}"
    else:
        outcome = None
    return {"probe": name, "argv": argv, "still_failing": outcome is not None,
            "outcome": outcome or "exit 0", "wall_s": r.wall}


def metadata():
    def git_sha():
        try:
            # the ceiling keeps git from finding a repository above the checkout
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10,
                                  env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                  ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        numpy = metadata_version("numpy")
    except PackageNotFoundError:
        numpy = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "genus2covers").glob("*.py")))
    return {"git_sha": git_sha(), "src_lines": src_lines,
            "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def run_jobs(name, seed, seconds, start):
    """The closed loop.  The workload's prepare jobs (the search bundles) run
    once first, untimed but checked.  Then the loop goes round the job list,
    which it always completes once, and keeps going round, skipping a job
    whose median run so far no longer fits in --seconds, until none fits.
    Every repeat of a slot must reproduce the slot's first output byte for
    byte."""
    tmp = OUT / "tmp" / f"{name}-{seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, tmp)
    hard_end = start + HARD_DEADLINE
    prepared = [run_job(job, hard_end, f"{name}-{seed}-prep{k}")[0]
                for k, job in enumerate(wl.prepare)]
    records, first, walls = [], {}, {}
    changed = set()
    loop_end = time.perf_counter() + seconds

    def run_slot(k):
        job = wl.jobs[k]
        rec, text = run_job(job, hard_end, f"{name}-{seed}-{k}")
        if k not in first:
            first[k] = (rec["rc"], text)
        elif first[k] != (rec["rc"], text):
            changed.add(k)
        walls.setdefault(k, []).append(rec["wall_s"])
        records.append({"repeat": len(walls[k]) - 1, "slot": k, **rec})

    n = len(wl.jobs)
    for k in range(n):
        run_slot(k)
    k = 0
    while True:
        left = min(loop_end, hard_end) - time.perf_counter()
        k = next((j % n for j in range(k, k + n)
                  if statistics.median(walls[j % n]) <= left), None)
        if k is None:
            break
        run_slot(k)
        k += 1
    if len(records) == n:
        # determinism: the first job once more, byte for byte
        run_slot(0)
    rerun = {"slots_repeated": len({r["slot"] for r in records if r["repeat"]}),
             "changed_slots": sorted(changed)}

    probes = [run_probe(label, argv, limit, f"{name}-{seed}-probe{i}")
              for i, (label, argv, limit) in enumerate(workloads.PROBES.get(name, []))]
    return prepared, records, rerun, probes


def run_job(job, hard_end, tag):
    """One CLI job and the check of its output: (record, output text)."""
    limit = min(JOB_TIMEOUT, max(1.0, hard_end - time.perf_counter()))
    if job.out:
        job.out.unlink(missing_ok=True)
    r = run_cli(job.argv, limit, tag)
    # with --out the CLI writes its JSON, errors too, to that file
    text = job.out.read_text() if job.out and job.out.exists() else r.stdout
    problems = (["timed out"] if r.timed_out else []) + job.check(r.rc, text)
    return {"cmd": job.cmd, "argv": job.argv, "wall_s": r.wall, "cpu_s": r.cpu,
            "rss_kb": r.rss_kb, "rc": r.rc, "ok": not problems, "problems": problems,
            "facts": dict(job.facts)}, text


def facts_summary(records):
    twists = [r for r in records if r["cmd"] == "twist"]
    searches = [r for r in records if r["cmd"] == "search"]
    splitting = sorted({r["facts"]["splitting_degree"] for r in records
                        if "splitting_degree" in r["facts"]})
    out = {"splitting_degrees": splitting}
    if twists:
        wds = [r["facts"]["working_degree"] for r in twists]
        out["working_degrees"] = sorted(set(wds))
        out["rebuild_share"] = sum(1 for r in twists if r["facts"]["working_degree"]
                                   != r["facts"]["splitting_degree"]) / len(twists)
        out["t_vanishes_share"] = sum(r["facts"]["t_vanishes"] for r in twists) / len(twists)
    if searches:
        out["p5_points_scanned"] = sum(r["facts"].get("p5_points_scanned", 0) for r in searches)
        out["points_found"] = sum(r["facts"].get("points_found", 0) for r in searches)
    return out


def end_to_end(args, start):
    meta = metadata()
    setup = setup_seconds()
    prepared, records, rerun, probes = run_jobs(args.workload, args.seed, args.seconds,
                                                start)
    walls = [r["wall_s"] for r in records]
    every = prepared + records
    failed = sum(1 for r in every if not r["ok"]) + len(rerun["changed_slots"])
    attempted = len(every)
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r)
    # One pass over the job list: the sum of every slot's mean run.  On a
    # shared host the machine switches between a fast and a slow speed,
    # up to 1.9x apart, in spells of seconds to minutes.  A slot's median
    # jumps from one speed to the other with the majority of its few runs;
    # its mean moves in proportion to the share of slow runs, and so moves
    # less from run to run.
    metrics = {
        "setup_s": (setup, "s"),
        "workload_s": (sum(statistics.fmean(r["wall_s"] for r in rs)
                           for rs in slots.values()), "s"),
        "workload_cpu_s": (sum(statistics.fmean(r["cpu_s"] for r in rs)
                               for rs in slots.values()), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in every) / 1024.0, "MB"),
    }
    by_cmd = {}
    for r in records:
        by_cmd.setdefault(r["cmd"], []).append(r["wall_s"])
    report = {
        "workload": args.workload, "seed": args.seed,
        "samples_per_slot": [len(slots[k]) for k in sorted(slots)],
        "job_median_s": statistics.median(walls),
        "per_command_median_s": {f"{c}_s": {"value": statistics.median(v), "n": len(v)}
                                 for c, v in sorted(by_cmd.items())},
        "job_tail_s": tail([w if r["ok"] else float("inf")
                            for w, r in zip(walls, records)]),
        "fail_ratio": failed / attempted,
        "failures": [r for r in every if not r["ok"]],
        "rerun": rerun, "known_defect_probes": probes,
        "facts": facts_summary(every), "meta": meta,
    }
    write_out(args, report, every)
    print_report(report, metrics)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_out(args, report, records):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"report": report, "jobs": records}, indent=1,
                               default=str) + "\n")


def print_report(report, metrics):
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['samples_per_slot']} runs of each job slot")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:12.6g} {unit}")
    print(f"  {'job_median_s':24s} {report['job_median_s']:12.6g} s   (all jobs)")
    for name, v in report["per_command_median_s"].items():
        print(f"  {name:24s} {v['value']:12.6g} s   (median of {v['n']})")
    t = report["job_tail_s"]
    print(f"  {'job_tail_s':24s} " + (f"{t[0]:12.6g} s   (p{t[1]} of {t[2]} jobs)" if t
                                      else "n/a (fewer than 11 jobs in the run)"))
    print(f"  {'fail_ratio':24s} {report['fail_ratio']:12.6g}")
    for f in report["failures"]:
        print(f"  FAILED {f['cmd']}: {'; '.join(f['problems'])} :: {' '.join(f['argv'])[:160]}")
    for k in report["rerun"]["changed_slots"]:
        print(f"  FAILED repeats of job slot {k} are not byte-identical")
    for probe in report["known_defect_probes"]:
        state = "known defect, still failing" if probe["still_failing"] else "FINDING: now passes"
        print(f"  probe {probe['probe']}: {state} ({probe['outcome']})")
    for k, v in report["facts"].items():
        print(f"  fact {k}: {v}")
    print(f"  meta {json.dumps(report['meta'])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "genus2covers" / "cli.py").is_file():
        print(f"no genus2covers sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.trace:
        import traced
        result = traced.run(args, start)
    else:
        result = end_to_end(args, start)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
