"""Run one workload over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values as
a share of their median, next to the bound in BENCHMARK.json.

    python3 bench/steadiness.py --workload search --seeds 1-10
    python3 bench/steadiness.py --workload search --seeds 4,4,4,4,4

Run from the repository root.  A metric is steady enough when its spread
stays below a third of its bound (setup_s is exempt from the spread test;
only its median is compared between commits).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    """"1-10" or "4,4,4,4,4": a repeated seed measures the spread of the
    host alone, without that of the inputs."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, bad = {}, 0
    for seed in args.seeds:
        out = subprocess.run([*spec["command"], "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        bad += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {bad} with failed jobs")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        verdict = "ok" if name == "setup_s" or spread < bounds[name] / 3 else "TOO WIDE"
        print(f"  {name:16s} median {med:10.5g}  spread {spread:6.3f}  "
              f"bound {bounds[name]:.2f}  {verdict}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
