#!/usr/bin/env python3
"""Benchmark of coalpgs: the Particle Gibbs sampler and the theta surface.

    python3 perfbench/run.py --workload binary-gibbs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Runs jobs of one workload one after
another, each in its own process (worker.py) with BLAS threads pinned to 1,
and starts another job while the longest job so far still fits in
--seconds (at least two jobs).  With --trace 0 every job is untraced and
the end-to-end metrics are medians over jobs.  With --trace 1 untraced and
traced jobs alternate; the per-layer metrics come from the traced jobs, and
trace.overhead_s is the traced minus the untraced median run_s.  Metric
names and units are those of BENCHMARK.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
output check failed, 2 when there is nothing to benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170  # every run ends well inside three minutes
EXACT_UNITS = ("count", "ratio")  # work counts: equal in every job of a seed


def run_job(args, traced: bool, deadline: float) -> dict:
    """One worker process; a crash or a timeout is one failed operation."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work-dir", str(OUT / "work")]
    if traced:
        cmd += ["--spans-out", str(OUT / f"{args.workload}.spans.jsonl")]
    if args.quick:
        cmd.append("--quick")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": ["job timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "problems": [f"job exited with code {proc.returncode}"]}
    job = json.loads(lines[-1])
    job["traced"] = traced
    return job


def run_jobs(args) -> list:
    """Untraced (and, with --trace 1, traced) jobs until --seconds is used."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    jobs, longest = [], 0.0
    while True:
        # with --trace 1, alternate so both kinds see the same machine state
        traced = bool(args.trace) and len(jobs) % 2 == 1
        t0 = time.monotonic()
        jobs.append(run_job(args, traced, deadline))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(jobs) >= 2 and elapsed + longest > args.seconds:
            return jobs


def end_to_end(jobs: list) -> dict:
    return {
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        "run_s": statistics.median(j["run_s"] for j in jobs),
        "pgs_iters_per_s": statistics.median(len(j["iter_s"]) / sum(j["iter_s"])
                                             for j in jobs),
        "iter_s.p50": statistics.median(t for j in jobs for t in j["iter_s"]),
        "surface_s": statistics.median(j["surface_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }


def per_layer(traced: list, untraced: list, units: dict, problems: list) -> dict:
    out = {}
    for name in traced[0]["layers"]:
        values = [j["layers"][name] for j in traced]
        if units[name] in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced jobs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = (statistics.median(j["run_s"] for j in traced)
                               - statistics.median(j["run_s"] for j in untraced))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny job sizes, for the smoke test only")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "coalpgs" / "__init__.py").is_file():
        print(f"no coalpgs sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        sys.exit(2)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    (OUT / "work").mkdir(parents=True, exist_ok=True)

    jobs = run_jobs(args)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    problems = [p for j in jobs for p in j["problems"]]
    good = [j for j in jobs if not j["failed"]]
    digests = {j["digest"] for j in good}
    if len(digests) > 1:
        # repeats of one seed, traced or not, must return identical samples
        failed += len(good)
        problems.append(f"jobs of one seed disagree: digests {sorted(digests)}")

    metrics = {}
    untraced = [j for j in good if not j["traced"]]
    traced = [j for j in good if j["traced"]]
    if untraced and (traced or not args.trace):
        metrics = (per_layer(traced, untraced, units, problems) if args.trace
                   else end_to_end(untraced))
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    env = jobs[0].get("env", {})
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)} "
          f"({len(traced)} traced)  iterations timed {sum(len(j['iter_s']) for j in untraced)}  "
          f"samples per job {sorted({j['retained_samples'] for j in good})}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("run_s per job " + " ".join(f"{j['run_s']:.3f}{'t' if j['traced'] else ''}"
                                      for j in good))
    print(f"digest {' '.join(sorted(d[:16] for d in digests if d))}")
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
