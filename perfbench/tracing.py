"""In-memory span tracer for the benchmark's traced runs, and the per-layer
metrics computed from its spans.

Spans are recorded by wrappers installed from outside the library: module
globals where a caller looks a function up by name (`coalpgs.pgs.gibbs_sweep`,
`coalpgs.csmc.pair_weights`, ...) and methods on the classes everything shares
(`MessageStore`, `MutationModel`).  `pgs.py` binds `gibbs_sweep`, `csmc_run`,
`select_structure` and `MessageStore` into its own namespace at import, so
patching `coalpgs.timegibbs.gibbs_sweep` instead would silently record
nothing.  Functions called millions of times per job (`MutationModel.trans`,
`MutationModel._expm`) are counted, not timed.

No wrapper draws a random number or changes an argument, so a traced job
returns exactly the samples of an untraced one; run.py checks this by
comparing the digests of traced and untraced jobs.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Spans as [name, start, end, parent_index, note] plus call counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span around every call of `owner.attr`; `note(args,
        result)` attaches a per-call value (a count, a flag) to the span."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(rec)
            if note is not None:
                rec[4] = note(args, out)
            return out

        self.patch(owner, attr, orig, traced)

    def count(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self.patch(owner, attr, orig, counted)

    def patch(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write_jsonl(self, path: str) -> None:
        """One span per line; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0,
                                     "note": note}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    import coalpgs.csmc
    import coalpgs.pgs
    import coalpgs.timegibbs
    from coalpgs.belief import MessageStore
    from coalpgs.mutation import MutationModel

    tg = coalpgs.timegibbs
    tracer.count(MutationModel, "trans", "mutation.trans")
    tracer.count(MutationModel, "_expm", "mutation.expm")
    tracer.wrap(MutationModel, "fold_to_parent_batch", "mutation.fold_batch")
    tracer.wrap(MutationModel, "fold_to_child_batch", "mutation.fold_batch")

    tracer.wrap(MessageStore, "__init__", "belief.store_build")
    tracer.wrap(MessageStore, "refresh_after_time_change", "belief.refresh")
    tracer.wrap(MessageStore, "local_combination_vs_time", "belief.local_comb",
                note=lambda args, out: int(np.size(args[2])))
    tracer.wrap(MessageStore, "log_likelihood", "belief.loglik")

    tracer.wrap(coalpgs.pgs, "gibbs_sweep", "timegibbs.sweep")
    tracer.count(tg, "sample_time", "timegibbs.updates")
    tracer.count(tg, "sample_conditional", "timegibbs.conditional_draws")
    orig_resolve = tg._resolve_grid

    def resolve_grid(cond, initial_points, max_points):
        # watch the last density evaluation to see the flat fallback exactly
        last = []

        def log_density(ts):
            last[:] = [cond.log_density(ts)]
            return last[0]

        xs, w = orig_resolve(dataclasses.replace(cond, log_density=log_density),
                             initial_points, max_points)
        if not np.isfinite(np.max(last[0])):
            tracer.counts["timegibbs.flat_fallbacks"] += 1
        if len(w) >= max_points:
            tracer.counts["timegibbs.grid_saturations"] += 1
        return xs, w

    tracer.patch(tg, "_resolve_grid", orig_resolve, resolve_grid)

    tracer.wrap(coalpgs.pgs, "csmc_run", "csmc.run",
                note=lambda args, out: int(args[4]) * (args[0].n - 1))
    tracer.wrap(coalpgs.csmc, "pair_weights", "csmc.pair_weights",
                note=lambda args, out: int(not np.isfinite(out[3])))
    tracer.wrap(coalpgs.csmc, "_merge", "csmc.merge")
    tracer.wrap(coalpgs.pgs, "select_structure", "csmc.select")
    tracer.wrap(coalpgs.pgs, "save_checkpoint", "pgs.checkpoint",
                note=lambda args, out: os.path.getsize(args[0]))


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, state, model) -> dict:
    """Per-layer metrics of one traced job (all except trace.overhead_s,
    which needs an untraced job to compare with)."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]

    def in_surface(i):
        while i >= 0:
            if spans[i][0] == "pgs.surface":
                return True
            i = spans[i][3]
        return False

    calls, secs, self_s, notes = Counter(), defaultdict(float), defaultdict(float), Counter()
    for i, (name, _, _, parent, note) in enumerate(spans):
        if name == "belief.store_build":
            name += ".surface" if in_surface(i) else ".sampler"
        calls[name] += 1
        secs[name] += dur[i]
        self_s[name] += dur[i] - child_s[i]
        if note is not None:
            notes[name] += note

    # the likelihood of each retained sample: the store build and evaluation
    # an iteration makes after it has selected the next structure
    sample_ll = 0.0
    selected = set()
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0 or spans[parent][0] != "pgs.iteration":
            continue
        if name == "csmc.select":
            selected.add(parent)
        elif parent in selected and name in ("belief.store_build", "belief.loglik"):
            sample_ll += dur[i]

    c = tracer.counts
    trans, misses = c["mutation.trans"], c["mutation.expm"]
    pair_evals = state.counters.pair_weight_evals
    steps = notes["csmc.run"]
    surface_evals = calls["belief.store_build.surface"]
    out = {
        "mutation.trans.calls": trans,
        "mutation.trans.misses": misses,
        "mutation.trans.hit_ratio": _div(trans - misses, trans),
        "mutation.cache_entries": len(model._cache),
        "mutation.fold_batch.calls": calls["mutation.fold_batch"],
        "mutation.fold_batch.s": secs["mutation.fold_batch"],
        "belief.refresh.calls": calls["belief.refresh"],
        "belief.refresh.s": secs["belief.refresh"],
        "belief.refresh.s_per_call": _div(secs["belief.refresh"], calls["belief.refresh"]),
        "belief.local_comb.calls": calls["belief.local_comb"],
        "belief.local_comb.grid_points": notes["belief.local_comb"],
        "belief.local_comb.s": secs["belief.local_comb"],
        "belief.local_comb.s_per_point": _div(secs["belief.local_comb"],
                                              notes["belief.local_comb"]),
        "timegibbs.sweep.s": secs["timegibbs.sweep"],
        "timegibbs.self_s": self_s["timegibbs.sweep"],
        "timegibbs.updates": c["timegibbs.updates"],
        "timegibbs.grid_evals_per_update": _div(notes["belief.local_comb"],
                                                c["timegibbs.updates"]),
        "timegibbs.flat_fallbacks": c["timegibbs.flat_fallbacks"],
        "timegibbs.grid_saturations": c["timegibbs.grid_saturations"],
        "timegibbs.degenerate_skips": c["timegibbs.updates"] - c["timegibbs.conditional_draws"],
        "csmc.run.s": secs["csmc.run"],
        "csmc.run.s_per_particle_step": _div(secs["csmc.run"], steps),
        "csmc.pair_weights.calls": calls["csmc.pair_weights"],
        "csmc.pair_weights.s": secs["csmc.pair_weights"],
        "csmc.pair_weight_evals": pair_evals,
        "csmc.lineage_evals": state.counters.lineage_evals,
        "csmc.s_per_pair_eval": _div(secs["csmc.pair_weights"], pair_evals),
        "csmc.merge.calls": calls["csmc.merge"],
        "csmc.merge.s": secs["csmc.merge"],
        "csmc.reuse_ratio": 1.0 - _div(calls["csmc.pair_weights"], steps),
        "csmc.uniform_fallbacks": notes["csmc.pair_weights"],
        "csmc.structure_change_rate": _div(state.structure_changes, state.iteration),
        "csmc.select.s": secs["csmc.select"],
        "pgs.iteration.self_s": self_s["pgs.iteration"],
        "pgs.sample_loglik.s": sample_ll,
        "pgs.checkpoint.calls": calls["pgs.checkpoint"],
        "pgs.checkpoint.s": secs["pgs.checkpoint"],
        "pgs.checkpoint.bytes": notes["pgs.checkpoint"],
        "pgs.surface.evals": surface_evals,
        "pgs.surface.s_per_eval": _div(secs["pgs.surface"], surface_evals),
    }
    for caller in ("sampler", "surface"):
        name = f"belief.store_build.{caller}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = secs[name]
        out[f"{name}.s_per_call"] = _div(secs[name], calls[name])
    out["belief.loglik.calls"] = calls["belief.loglik"]
    out["belief.loglik.s"] = secs["belief.loglik"]
    return out
