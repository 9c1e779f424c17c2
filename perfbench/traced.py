"""Traced re-enactment of one ``visitlab compare`` run, layer by layer.

The re-enactment calls each module's functions in the order that
``runner.run_experiment`` and ``runner._simulate_block`` use them and wraps
every call in a span.  It covers the systems whose paths the targets read
directly, so interval-map itineraries are not re-enacted.  It runs serially;
``runner.result_bytes`` is what a pool worker would pickle and send back for
each block.  Spans are kept in memory and the caller writes them out once,
at the end.  The empirical W pmf it produces must equal the one in the real
report, or the trace is timing a different program.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import time
from contextlib import contextmanager

from visitlab import runner
from visitlab.config import load_config
from visitlab.stats import (
    collect_cluster_stats,
    collect_w,
    empirical_pmf,
    estimate_alpha,
    estimate_alpha_hat,
    estimate_lambda_tilde,
    kac_horizon,
)
from visitlab.systems import sample_paths, trajectory_rng
from visitlab.targets import hits, measure

# Spans whose time belongs to a layer of the program.  "trace" is the root,
# "runner.block" a container, and "trace.*" spans are the tracer's own cost.
LAYER_SPANS = (
    "config.load",
    "targets.measure",
    "predictions.predict",
    "systems.rng",
    "systems.sample",
    "targets.hits",
    "stats.collect_w",
    "stats.cluster",
    "stats.merge",
    "stats.bootstrap",
    "compound.tv",
    "runner.write",
)

TRACER_SPANS = ("trace.count", "trace.result_bytes")

# Counts that depend only on the config and seed, so they repeat exactly.
EXACT_COUNTS = (
    "systems.rows",
    "systems.steps",
    "runner.blocks",
    "runner.chunks",
    "stats.merges",
    "stats.bootstrap_resamples",
    "runner.result_bytes",
    "targets.hit_count",
)

_TABLE_ESTIMATORS = (
    ("alpha", estimate_alpha),
    ("alpha_hat", estimate_alpha_hat),
    ("lambda_tilde", estimate_lambda_tilde),
)


class Tracer:
    """Flat list of spans (name, start, end, parent) for one trace id."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _simulate(cfg, system, target, horizon, tr, counts):
    """``runner._run_simulation`` with ``workers=1``, one span per stage."""
    window_f = cfg.window_forward
    window_k = cfg.window_two_sided if cfg.window_two_sided is not None else window_f
    if window_f is None and cfg.window_two_sided is not None:
        window_f = cfg.window_two_sided
    pad = max(window_f or 0, window_k or 0)
    ext_horizon = horizon + pad
    path_len = ext_horizon + target.window
    rows_per = max(1, runner._CHUNK_ELEMS // max(path_len, 1))
    results = []
    for start in range(0, cfg.samples, runner._BLOCK):
        count = min(runner._BLOCK, cfg.samples - start)
        counts["runner.blocks"] += 1
        with tr.span("runner.block"):
            w_parts = []
            stats_acc = None
            for off in range(0, count, rows_per):
                take = min(rows_per, count - off)
                counts["runner.chunks"] += 1
                counts["systems.rows"] += take
                counts["systems.steps"] += take * path_len
                with tr.span("systems.rng"):
                    rngs = [trajectory_rng(cfg.seed, start + off + i) for i in range(take)]
                with tr.span("systems.sample"):
                    paths = sample_paths(system, path_len, rngs)
                with tr.span("targets.hits"):
                    ind = hits(paths, target, ext_horizon)
                with tr.span("trace.count"):
                    counts["targets.hit_count"] += int(ind.sum())
                    counts["targets.windows"] += int(ind.size)
                with tr.span("stats.collect_w"):
                    w_parts.append(collect_w(ind, horizon, start_index=start + off))
                if window_f is not None:
                    with tr.span("stats.cluster"):
                        st = collect_cluster_stats(
                            ind, window_f, window_k, cap=cfg.cluster_cap,
                            start_index=start + off,
                        )
                    if stats_acc is None:
                        stats_acc = st
                    else:
                        with tr.span("stats.merge"):
                            stats_acc = stats_acc.merge(st)
                        counts["stats.merges"] += 1
            with tr.span("stats.merge"):
                w_all = w_parts[0]
                for part in w_parts[1:]:
                    w_all = w_all.merge(part)
            counts["stats.merges"] += len(w_parts) - 1
        result = (start, w_all, stats_acc)
        with tr.span("trace.result_bytes"):
            counts["runner.result_bytes"] += len(pickle.dumps(result))
        results.append(result)
    with tr.span("stats.merge"):
        w_all = results[0][1]
        stats_all = results[0][2]
        for _, w_part, st_part in results[1:]:
            w_all = w_all.merge(w_part)
            counts["stats.merges"] += 1
            if st_part is not None:
                stats_all = st_part if stats_all is None else stats_all.merge(st_part)
                counts["stats.merges"] += 1
    return w_all, stats_all


def _bootstrap_resamples(tables: dict) -> int:
    """Resamples drawn by the estimators that had enough data."""
    total = 0
    for name, fn in _TABLE_ESTIMATORS:
        if not tables[name].get("insufficient_data"):
            total += inspect.signature(fn).parameters["resamples"].default
    return total


def reenact(cfg_path: str, seed: int, out_dir: str, real_report: dict, tr: Tracer):
    """One traced compare run; returns (counts, empirical pmfs per sweep value)."""
    counts = dict.fromkeys(EXACT_COUNTS + ("targets.windows",), 0)
    pmfs = []
    to_write = copy.deepcopy(real_report)
    with tr.span("trace"):
        with tr.span("config.load"):
            cfg = load_config(cfg_path, overrides={"seed": seed})
            system = cfg.build_system()
        for index, sweep_value in enumerate(cfg.sweep):
            with tr.span("config.load"):
                target = cfg.build_target(sweep_value)
            with tr.span("targets.measure"):
                mu = measure(target, system, samples=min(cfg.samples, 200_000), seed=cfg.seed)
            horizon = kac_horizon(cfg.t, mu.value)
            with tr.span("predictions.predict"):
                pred = runner.predict_for(system, target, cfg.t)
            w_all, stats_all = _simulate(cfg, system, target, horizon, tr, counts)
            with tr.span("compound.tv"):
                emp = empirical_pmf(w_all)
            pmfs.append([float(p) for p in emp.probs])
            if stats_all is not None:
                with tr.span("stats.bootstrap"):
                    tables = runner._estimate_tables(stats_all, cfg.seed, index)
                counts["stats.bootstrap_resamples"] += _bootstrap_resamples(tables)
            with tr.span("compound.tv"):
                _, emp, pred_pmf = runner._tv_with_band(w_all, pred, cfg.seed, index)
            to_write["results"][index]["_pmfs"] = (emp, pred_pmf)
        with tr.span("runner.write"):
            runner.write_report(to_write, out_dir, "compare")
    return counts, pmfs
