"""One benchmark job, in its own process: set up a workload, run the sampler
and the theta surface through the public library path, then check the
outputs.  Prints one JSON object as the last line of stdout.

    python3 perfbench/worker.py --workload binary-gibbs --seed 1 --trace 0 \
        --spawned-at 0 --work-dir .perfbench_out

run.py starts one of these per job, with BLAS threads pinned to 1 and
`src` on PYTHONPATH; `--spawned-at` is its CLOCK_MONOTONIC reading just
before the start, from which set-up time is measured.
"""

import argparse
import copy
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from coalpgs import make_binary_model, make_stepwise_model, pgs_run, relative_likelihood_surface
from coalpgs.belief import MessageStore
from coalpgs.config import RunConfig, resolve_grid
from coalpgs.genealogy import parse_alignment, simulate_data, simulate_prior
from coalpgs.pgs import PgsState
from coalpgs import util

import tracing

ROOT = Path(__file__).resolve().parent.parent

# Sampler settings follow the README config (binary-gibbs), the microsatellite
# experiment script (microsat-surface) and a wide cSMC case (csmc-wide); only
# the iteration counts are cut so that one job takes a few seconds.  Every
# workload ends with the surface, as the README's library example does, and
# writes at least one checkpoint, so every per-layer time is measured on all.
WORKLOADS = {
    "binary-gibbs": dict(
        data="data/binary_synthetic.aln.txt", model="binary", num_states=2,
        theta0=2.0, iterations=3, burn_in=1, particles=200, gibbs_rounds=50,
        checkpoint_interval=3, grid=(0.5, 8.0, 13)),
    "microsat-surface": dict(
        data="data/microsat_one_locus.txt", model="stepwise", num_states=20,
        theta0=5.0, iterations=40, burn_in=10, particles=40, gibbs_rounds=10,
        checkpoint_interval=10, grid=(1.0, 20.0, 17)),
    "csmc-wide": dict(
        simulate=(30, 20), model="binary", num_states=2, theta0=2.0,
        iterations=3, burn_in=1, particles=400, gibbs_rounds=1,
        checkpoint_interval=3, grid=(0.5, 8.0, 13)),
}

# --quick: the same code paths at a tiny size, for the smoke test
QUICK = {
    "binary-gibbs": dict(iterations=2, particles=20, gibbs_rounds=2, checkpoint_interval=2),
    "microsat-surface": dict(iterations=4, burn_in=1, checkpoint_interval=2),
    "csmc-wide": dict(iterations=2, particles=20, checkpoint_interval=2),
}

NODE_INVARIANCE_TOL = 1e-8
SIMULATION_SEED = 7


def setup(name: str, seed: int, quick: bool, work_dir: str):
    """Data, model, config and initial chain state of one workload; `seed` is
    the sampler seed."""
    spec = dict(WORKLOADS[name], **(QUICK[name] if quick else {}))
    model = (make_binary_model() if spec["model"] == "binary"
             else make_stepwise_model(spec["num_states"]))
    if "data" in spec:
        aln = parse_alignment(str(ROOT / spec["data"]), num_states=spec["num_states"])
        state = None  # pgs_run draws the initial tree from the prior
    else:
        # One fixed dataset, and the chain starts at its generating tree:
        # cSMC work depends on the data (1.9M to 3.0M pair-weight evaluations
        # in four iterations over six simulation seeds) and, with one Gibbs
        # round per iteration, on the initial tree's event times (1.79M to
        # 2.07M in three iterations over eight sampler seeds from the prior,
        # 1.85M to 1.95M from the generating tree).
        n, loci = spec["simulate"]
        rng = util.substream(SIMULATION_SEED, util.TAG_SIMULATE)
        tree = simulate_prior(n, rng)
        aln = simulate_data(tree, model, spec["theta0"], loci, rng)
        state = PgsState(0, tree)
    # theta0 joins the grid so the surface has a row that must read exactly 0
    grid = sorted(set(resolve_grid(*spec["grid"], "log")) | {spec["theta0"]})
    cfg = RunConfig(model=spec["model"], num_states=spec["num_states"],
                    theta0=spec["theta0"], theta_grid=grid,
                    iterations=spec["iterations"], burn_in=spec["burn_in"],
                    particles=spec["particles"], gibbs_rounds=spec["gibbs_rounds"],
                    seed=seed, checkpoint_interval=spec["checkpoint_interval"],
                    checkpoint_path=os.path.join(work_dir, "state.json"))
    return aln, model, cfg, state


def run_job(aln, model, cfg, state, tracer):
    """Sampler then surface.  The chain is advanced one iteration per
    `pgs_run` call (the resume path), which yields the same chain as one call
    and lets each iteration be timed and failed on its own."""
    iter_s, failed = [], set()
    t_job = time.perf_counter()
    for k in range(cfg.iterations):
        step = copy.copy(cfg)
        step.iterations = k + 1
        rec = tracer.open("pgs.iteration") if tracer else None
        t0 = time.perf_counter()
        try:
            state = pgs_run(aln, model, step, state)
        except Exception as exc:  # a failed iteration ends the chain
            print(f"iteration {k} raised {exc!r}", file=sys.stderr)
            failed.update(range(k, cfg.iterations + len(cfg.theta_grid)))
            return state, None, iter_s, 0.0, time.perf_counter() - t_job, failed
        finally:
            if rec:
                tracer.close(rec)
        iter_s.append(time.perf_counter() - t0)
    rec = tracer.open("pgs.surface") if tracer else None
    t0 = time.perf_counter()
    try:
        surface = relative_likelihood_surface(state.samples, aln, model,
                                              cfg.theta_grid, cfg.theta0)
    except Exception as exc:
        print(f"surface raised {exc!r}", file=sys.stderr)
        surface = None
        failed.update(range(cfg.iterations, cfg.iterations + len(cfg.theta_grid)))
    finally:
        if rec:
            tracer.close(rec)
    t1 = time.perf_counter()
    return state, surface, iter_s, t1 - t0, t1 - t_job, failed


def check_outputs(aln, model, cfg, state, surface, failed: set) -> list:
    """Output checks; each failure marks the operation (iteration index, or
    iterations + grid row) that produced the wrong value."""
    problems = []

    def fail(op, what):
        failed.add(op)
        problems.append(what)

    first = cfg.burn_in
    for j, (g, ll) in enumerate(zip(state.samples, state.sample_logliks)):
        store = MessageStore(g, aln, model, cfg.theta0)
        if store.log_likelihood() != ll:
            fail(first + j * cfg.thinning, f"sample {j}: recorded loglik differs")
        if j in (0, len(state.samples) - 1):
            root_ll = store.log_likelihood()
            worst = max(abs(store.log_likelihood(at_node=v) - root_ll)
                        for v in range(g.n, g.root))
            if worst > NODE_INVARIANCE_TOL:
                fail(first + j * cfg.thinning, f"sample {j}: node invariance off by {worst}")
            try:
                store.check_normalization()
            except Exception as exc:
                fail(first + j * cfg.thinning, f"sample {j}: {exc}")
    for r, theta in enumerate(surface.theta_grid):
        v, se = surface.log_relative_likelihood[r], surface.stderr[r]
        if not (np.isfinite(v) and np.isfinite(se)):
            fail(cfg.iterations + r, f"surface row {theta}: not finite")
        if theta == cfg.theta0 and v != 0.0:
            fail(cfg.iterations + r, f"surface row at theta0 reads {v}")
    return problems


def digest(state, surface) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([g.to_json() for g in state.samples]).encode())
    h.update(surface.to_csv().encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(dir=args.work_dir) as work:
        aln, model, cfg, state = setup(args.workload, args.seed, args.quick, work)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        first_iter_at = time.monotonic()
        state, surface, iter_s, surface_s, run_s, failed = run_job(aln, model, cfg, state, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
    problems = []
    if not failed:
        problems = check_outputs(aln, model, cfg, state, surface, failed)
    out = {
        "setup_s": first_iter_at - args.spawned_at,
        "run_s": run_s,
        "iter_s": iter_s,
        "surface_s": surface_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": cfg.iterations + len(cfg.theta_grid),
        "failed": len(failed),
        "problems": problems,
        "retained_samples": len(state.samples) if state else 0,
        "digest": digest(state, surface) if not failed else None,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if tracer and not failed:
        out["layers"] = tracing.layer_metrics(tracer, state, model)
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
