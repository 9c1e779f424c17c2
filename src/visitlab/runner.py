"""Experiment orchestration: the five verbs, simulation across workers, reports.

A run is a pure function of (config, seed): trajectories are generated from a
counter-based seed schedule in fixed blocks, worker results are merged in
block order, and every stochastic post-processing step (bootstrap bands)
draws from its own derived seed.  Report bodies are therefore byte-identical
across worker counts; only the ``meta`` block (timestamps, wall clock) may
differ.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .compound import DiscretePMF, pmf_to_csv, tv_distance
from .config import ExperimentConfig
from .errors import (
    ConfigError,
    InsufficientDataError,
    ResourceLimitError,
    SpecError,
    StructureError,
)
# perfbench/traced.py and the package's exports read predict_for from this module
from .predictions import PredictionResult, SteinBracketInputs, pair_for, predict_for, stein_bracket
from .stats import (
    ClusterStats,
    WSampleSet,
    collect_cluster_stats,
    collect_w,
    empirical_pmf,
    estimate_tables,
    kac_horizon,
)
# perfbench/traced.py reads the chunk rule's _CHUNK_ELEMS from this module
from .systems import _CHUNK_ELEMS, _STEP_GUARD, path_chunks
from .targets import hits, measure

_BLOCK = 4096

# derived-seed streams, disjoint from the trajectory index range
_STREAM_ALPHA = 2**49
_STREAM_TV = 2**50


def _merge_ranges(parts):
    """Merge the (W samples, cluster stats or None) of consecutive trajectory
    ranges, each kind in one concatenation."""
    w_parts, stats_parts = zip(*parts)
    stats_all = None if stats_parts[0] is None else ClusterStats.concat(stats_parts)
    return WSampleSet.concat(w_parts), stats_all


def _simulate_block(args):
    (system, target, seed, start, count, path_len, ext_horizon, horizon,
     window_f, window_k, cap) = args
    parts = []
    for first, paths in path_chunks(system, path_len, seed, start, count):
        ind = hits(paths, target, ext_horizon)
        stats = None if window_f is None else collect_cluster_stats(
            ind, window_f, window_k, cap=cap, start_index=first
        )
        parts.append((collect_w(ind, horizon, start_index=first), stats))
        # free this chunk's arrays before the next chunk is sampled
        del paths, ind
    return _merge_ranges(parts)


def _run_simulation(cfg: ExperimentConfig, system, target, horizon: int):
    window_f, window_k = cfg.window_forward, cfg.window_two_sided
    pad = max(window_f or 0, window_k or 0)
    ext_horizon = horizon + pad
    path_len = ext_horizon + target.window
    if path_len * cfg.samples > _STEP_GUARD:
        raise ResourceLimitError(
            f"run needs {path_len * cfg.samples:.2e} simulated steps "
            f"(> {_STEP_GUARD:.0e}); shrink samples or the target"
        )
    blocks = [
        (system, target, cfg.seed, start, min(_BLOCK, cfg.samples - start),
         path_len, ext_horizon, horizon, window_f, window_k, cfg.cluster_cap)
        for start in range(0, cfg.samples, _BLOCK)
    ]
    workers = min(cfg.workers, _usable_cpus(), len(blocks))
    if workers == 1:
        results = [_simulate_block(b) for b in blocks]
    else:
        # the pool's modules load only here: serial runs never start one
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # pool.map yields the blocks in order, so the ranges merge end to end
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_simulate_block, blocks, chunksize=1))
        except BrokenProcessPool as exc:
            raise ResourceLimitError(
                f"a worker process died ({exc}); it may have run out of memory, "
                "so retry with fewer workers (--jobs) or samples"
            ) from exc
    return (*_merge_ranges(results), path_len)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _derived_seed(root_seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((root_seed, stream, index)).generate_state(1)[0])


def _pmf_for_tv(pred: PredictionResult, w_max: int) -> DiscretePMF:
    """Predicted table long enough that the untabulated tail is negligible."""
    kmax = max(int(w_max), 16)
    pmf = pred.pmf(kmax)
    while pmf.tail_mass > 1e-9 and kmax < 65_536:
        kmax *= 2
        pmf = pred.pmf(kmax)
    return pmf


def _tv_with_band(w_all: WSampleSet, pred: PredictionResult, seed: int, index: int):
    values = w_all.values
    w_max = int(values.max()) if values.size else 0
    pred_pmf = _pmf_for_tv(pred, w_max)
    emp = empirical_pmf(w_all)
    point = tv_distance(emp, pred_pmf)
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, _STREAM_TV, index))
    )
    m = values.size
    counts = np.bincount(values, minlength=pred_pmf.kmax + 1).astype(np.float64)
    draws = rng.multinomial(m, counts / m, size=200)
    tvs = 0.5 * np.abs(draws / m - pred_pmf.probs[None, : draws.shape[1]]).sum(axis=1)
    tvs += 0.5 * pred_pmf.tail_mass
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return {
        "value": float(point),
        "bootstrap_se": float(tvs.std()),
        "band": [float(lo), float(hi)],
    }, emp, pred_pmf


def _estimate_tables(stats_all: ClusterStats, seed: int, index: int) -> dict:
    tables = estimate_tables(stats_all, seed=_derived_seed(seed, _STREAM_ALPHA, index))
    return {
        kind: {"insufficient_data": True, "count": est.count}
        if isinstance(est, InsufficientDataError)
        else est.as_dict()
        for kind, est in tables.items()
    }


def _measure(cfg: ExperimentConfig, target, system):
    """A target's measure as the run takes it: exact, or Monte Carlo at the run's seed."""
    return measure(target, system, samples=min(cfg.samples, 200_000), seed=cfg.seed)


def _stein_for(cfg: ExperimentConfig, system, target, n, mu_value: float):
    sec = cfg.stein
    k_w = sec.window_for(int(n))
    try:
        # the outer sets U^0 .. U^n, measured as the run measured the target
        outer = [mu_value if u == target else _measure(cfg, u, system).value
                 for u in map(target.outer, range(int(n) + 1))]
        inputs = SteinBracketInputs(
            profile=sec.profile,
            mu=mu_value,
            outer=tuple(outer),
            n=int(n),
            k_window=k_w,
            t=cfg.t,
        )
        out = stein_bracket(inputs, sec.mode)
        out["k_window"] = k_w
        return out
    except SpecError as exc:
        return {"error": str(exc), "k_window": k_w}


def _jsonable(node):
    if isinstance(node, dict):
        return {k: _jsonable(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_jsonable(v) for v in node]
    if isinstance(node, (np.floating, np.integer, np.bool_)):
        return node.item()
    if isinstance(node, np.ndarray):
        return [_jsonable(v) for v in node]
    if isinstance(node, Fraction):
        return str(node)
    return node


VERBS = ("predict", "simulate", "compare", "bound", "sweep")


def run_experiment(cfg: ExperimentConfig, mode: str) -> dict:
    """Execute one verb over its sweep list and assemble the report.

    ``bound`` walks the stein section's sweep and tabulates one error bracket
    per target size; the other verbs walk the target sweep.
    """
    if mode not in VERBS:
        raise ConfigError(f"unknown run mode {mode!r}")
    if mode == "bound" and cfg.stein is None:
        raise ConfigError("bound runs need a stein section with a mixing profile")
    started = time.perf_counter()
    system = cfg.build_system()
    results = []
    for index, sweep_value in enumerate(cfg.stein.sweep if mode == "bound" else cfg.sweep):
        target = cfg.build_target(sweep_value)
        # the pair's rule is looked up first: an unsupported pair is refused before any measure
        pair = pair_for(system, target) if mode in ("predict", "compare", "sweep") else None
        try:
            mu = _measure(cfg, target, system)
            horizon = kac_horizon(cfg.t, mu.value)
        except (SpecError, StructureError) as exc:
            raise type(exc)(f"sweep value {sweep_value}: {exc}") from None
        if mode == "bound":
            out = _stein_for(cfg, system, target, sweep_value, mu.value)
            if "error" in out:
                raise SpecError(f"bracket at n={sweep_value}: {out['error']}")
            results.append({
                "n": sweep_value,
                "mu": mu.value,
                "argmin_delta": out["argmin_delta"],
                "value": out["value"],
                "k_window": out["k_window"],
            })
            continue
        entry = {"sweep_value": sweep_value}
        entry["measure"] = {"value": mu.value, "se": mu.se, "method": mu.method}
        entry["horizon"] = horizon
        if cfg.window_two_sided is not None and cfg.window_two_sided >= cfg.t / mu.value:
            raise ConfigError(
                f"window_two_sided={cfg.window_two_sided} must stay below "
                f"t/mu = {cfg.t / mu.value:.1f} at sweep value {sweep_value}"
            )
        pred = None
        if pair is not None:
            pred = pair.predict(system, target, cfg.t)
            entry["prediction"] = pred.as_dict()
        if mode in ("simulate", "compare", "sweep"):
            w_all, stats_all, path_len = _run_simulation(cfg, system, target, horizon)
            entry["simulated_steps"] = path_len * cfg.samples
            emp = empirical_pmf(w_all)
            entry["empirical"] = {
                "samples": w_all.total,
                "w_mean": float(w_all.values.mean()),
                "pmf": [float(p) for p in emp.probs],
            }
            if stats_all is not None:
                entry["tables"] = _estimate_tables(stats_all, cfg.seed, index)
            if pred is not None:
                tv, emp, pred_pmf = _tv_with_band(w_all, pred, cfg.seed, index)
                tv["tolerance"] = cfg.tolerance
                tv["pass"] = bool(tv["value"] <= cfg.tolerance)
                entry["tv"] = tv
                entry["_pmfs"] = (emp, pred_pmf)
            else:
                entry["_pmfs"] = (emp, None)
        elif pred is not None:
            entry["_pmfs"] = (None, _pmf_for_tv(pred, 0))
        if cfg.stein is not None:
            entry["stein"] = _stein_for(cfg, system, target, sweep_value, mu.value)
        results.append(entry)
    report = {
        "schema": 1,
        "library": {"name": "visitlab", "version": __version__},
        "mode": mode,
        "config_hash": cfg.canonical_hash(),
        "config": cfg.normalized,
        "results": results,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_clock_s": time.perf_counter() - started,
            "workers": cfg.workers,
        },
    }
    if mode == "bound":
        values = [row["value"] for row in results]
        report["monotone_decreasing"] = all(b < a for a, b in zip(values, values[1:]))
    return report


def report_body(report: dict) -> str:
    """Canonical JSON of everything except the volatile meta block.

    Underscore-prefixed entry keys hold in-memory artifacts (PMF objects for
    the CSV writers) and are not part of the report contract.
    """
    body = {k: v for k, v in report.items() if k != "meta"}
    if "results" in body:
        body = dict(body)
        body["results"] = [
            {k: v for k, v in entry.items() if not k.startswith("_")}
            for entry in body["results"]
        ]
    return json.dumps(_jsonable(body), sort_keys=True)


@contextmanager
def _atomic_open(path: str, newline=None):
    """Text file handle whose content appears at ``path`` only when complete.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` after the block exits cleanly and is removed otherwise.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_json(report: dict, path: str) -> None:
    with _atomic_open(path) as fh:
        json.dump(_jsonable(report), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _sweep_token(value) -> str:
    return str(value).replace(".", "p")


def write_report(report: dict, out_dir: str, mode: str) -> list:
    """Write the JSON report plus the verb's CSV tables; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    results = report["results"]
    for entry in results:
        pmfs = entry.pop("_pmfs", None)
        if pmfs is not None:
            token = _sweep_token(entry["sweep_value"])
            emp, pred_pmf = pmfs
            if pred_pmf is not None:
                path = os.path.join(out_dir, f"predicted_pmf_{token}.csv")
                pmf_to_csv(pred_pmf, path)
                written.append(path)
            if emp is not None:
                path = os.path.join(out_dir, f"empirical_pmf_{token}.csv")
                pmf_to_csv(emp, path)
                written.append(path)
    path = os.path.join(out_dir, f"{mode}_report.json")
    _write_json(report, path)
    written.append(path)
    if mode == "sweep":
        path = os.path.join(out_dir, "sweep_summary.csv")
        with _atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_value", "mu", "tv", "tolerance", "pass", "bracket"])
            for entry in results:
                tv = entry.get("tv", {})
                writer.writerow([
                    entry["sweep_value"],
                    repr(entry["measure"]["value"]),
                    repr(tv.get("value", "")) if tv else "",
                    tv.get("tolerance", ""),
                    tv.get("pass", ""),
                    repr(entry["stein"]["value"]) if "stein" in entry and "value" in entry["stein"] else "",
                ])
        written.append(path)
    elif mode == "bound":
        path = os.path.join(out_dir, "bound_table.csv")
        with _atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "argmin_delta", "bracket_value"])
            for row in results:
                writer.writerow([row["n"], row["argmin_delta"], repr(row["value"])])
        written.append(path)
    return written


def exit_code_for(report: dict) -> int:
    """0 when every configured comparison passed, 2 otherwise."""
    for entry in report["results"]:
        tv = entry.get("tv")
        if tv is not None and not tv["pass"]:
            return 2
    return 0
