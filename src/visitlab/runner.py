"""Experiment orchestration: the four verbs, simulation across workers, reports.

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
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .compound import DiscretePMF, _atomic_open, pmf_to_csv, tv_distance
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
# the chunk rule's _CHUNK_ELEMS sizes a timed first chunk; perfbench/traced.py
# reads it from this module
from .systems import _CHUNK_ELEMS, _STEP_GUARD, path_chunks
from .targets import hits, measure, tile_rows

_BLOCK = 4096
# CPU seconds of in-process simulation each forked worker must take over:
# below this the pool's fork, pipes and join (10-15 ms on a 2-CPU VM) and
# the two workers' contention (each block about 35% slower) outweigh the split
_POOL_SECONDS = 0.03
# a lower bound on every sampler's in-process CPU seconds per simulated step:
# the cheapest, long run-length paths, take 4.6 ns on a 2-CPU VM, sign paths
# 15-23, markov chains 8-31, doeblin 114-133 and short regenerative paths 980
_STEP_SECONDS = 4e-9

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
    """W samples and cluster stats (or None) of one range of trajectories.

    Each chunk of :func:`~visitlab.systems.path_chunks` is post-processed one
    row tile at a time (:func:`~visitlab.targets.tile_rows`): indicators, W
    and cluster stats of a tile's rows, whose ranges merge end to end with
    every other tile's.  A row's results depend on that row alone, so they
    equal the whole chunk's, and the block holds one chunk's paths and one
    tile's indicators at a time.
    """
    (system, target, seed, start, count, path_len, ext_horizon, horizon,
     window_f, window_k, cap) = args
    parts = []
    for first, paths in path_chunks(system, path_len, seed, start, count):
        per = tile_rows(paths)
        for lo in range(0, len(paths), per):
            ind = hits(paths[lo : lo + per], target, ext_horizon)
            stats = None if window_f is None else collect_cluster_stats(
                ind, window_f, window_k, cap=cap, start_index=first + lo
            )
            parts.append((collect_w(ind, horizon, start_index=first + lo), stats))
        # free this chunk's arrays before the next chunk is sampled
        del paths, ind
    return _merge_ranges(parts)


def _run_simulation(cfg: ExperimentConfig, system, target, horizon: int):
    """W samples, cluster stats, path length and the number of processes that simulated."""
    window_f, window_k = cfg.window_forward, cfg.window_two_sided
    pad = max(window_f or 0, window_k or 0)
    ext_horizon = horizon + pad
    path_len = ext_horizon + target.window
    steps = path_len * cfg.samples
    if steps > _STEP_GUARD:
        raise ResourceLimitError(
            f"run needs {steps:.2e} simulated steps "
            f"(> {_STEP_GUARD:.0e}); shrink samples or the target"
        )

    def task(start, stop):
        return (system, target, cfg.seed, start, stop - start, path_len, ext_horizon,
                horizon, window_f, window_k, cfg.cluster_cap)

    # cfg.workers is an upper bound, like the usable CPUs, the 4096-row blocks
    # and one process per _POOL_SECONDS of the run's in-process simulation
    workers = min(cfg.workers, _usable_cpus(), -(-cfg.samples // _BLOCK))
    done, results = 0, []
    if workers > steps * _STEP_SECONDS / _POOL_SECONDS:
        # the cheapest sampler's price does not pay for every worker: simulate the
        # first chunk in-process and let its CPU time per row price the rest
        done = min(cfg.samples, _BLOCK, max(1, _CHUNK_ELEMS // path_len))
        started = time.thread_time()
        results.append(_simulate_block(task(0, done)))
        rest_s = (time.thread_time() - started) * (cfg.samples - done) / done
        workers = max(1, min(workers, int(rest_s / _POOL_SECONDS)))
    rest = cfg.samples - done
    if workers == 1:
        # the rest of block 0, then whole blocks: the chunks that
        # perfbench/traced.py re-enacts
        bounds = [done, *range(_BLOCK, cfg.samples, _BLOCK), cfg.samples]
        results += (_simulate_block(task(a, b)) for a, b in zip(bounds, bounds[1:]) if b > a)
    else:
        # the pool's modules load only here: serial runs never start one
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # the rest in near-equal shares of at most a block, as many for every
        # worker; pool.map yields them in order, so the ranges merge end to end
        parts = workers * -(-rest // (workers * _BLOCK))
        shares = [task(done + rest * i // parts, done + rest * (i + 1) // parts)
                  for i in range(parts)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results += pool.map(_simulate_block, shares, chunksize=1)
        except BrokenProcessPool as exc:
            raise ResourceLimitError(
                f"a worker process died ({exc}); it may have run out of memory, "
                "so retry with fewer workers (--jobs) or samples"
            ) from exc
    return (*_merge_ranges(results), path_len, workers)


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


def _percentiles(values: np.ndarray, percents) -> np.ndarray:
    """``np.percentile(values, percents)`` of values without NaN, bit for bit.

    numpy's linear rule restated: the virtual index v = (n - 1) q of each
    fraction q = percent / 100 falls between the sorted values a and b at
    floor(v) and floor(v) + 1 (both the last value where v >= n - 1, from
    index -1), blended with weight t = v - floor(v) as ``a + (b - a) t``, or
    ``b - (b - a)(1 - t)`` where t >= 0.5.  ``np.percentile`` itself imports
    ``numpy.ma`` on its first call, 1-2 MB of every process that calls it.
    """
    ordered = np.sort(values)
    v = (ordered.size - 1) * (np.asarray(percents, dtype=np.float64) / 100)
    below = np.floor(v)
    below[v >= ordered.size - 1] = -1
    t = v - below
    a = ordered[below.astype(np.intp)]
    b = ordered[np.where(below < 0, -1, below + 1).astype(np.intp)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


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
    lo, hi = _percentiles(tvs, [2.5, 97.5])
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


VERBS = ("predict", "simulate", "compare", "bound")


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
    pool_workers = []
    for index, sweep_value in enumerate(cfg.stein.sweep if mode == "bound" else cfg.sweep):
        target = cfg.build_target(sweep_value)
        # the pair's rule is looked up first: an unsupported pair is refused before any measure
        pair = pair_for(system, target) if mode in ("predict", "compare") else None
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
        if mode in ("simulate", "compare"):
            w_all, stats_all, path_len, workers = _run_simulation(cfg, system, target, horizon)
            pool_workers.append(workers)
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
            # processes that simulated each sweep value; 1 means in-process
            "pool_workers": pool_workers,
        },
    }
    if mode == "bound":
        values = [row["value"] for row in results]
        report["monotone_decreasing"] = all(b < a for a, b in zip(values, values[1:]))
    return report


def _without_artifacts(report: dict) -> dict:
    """The report minus its entries' in-memory artifacts (underscore keys, as _pmfs)."""
    results = [{k: v for k, v in e.items() if not k.startswith("_")} for e in report.get("results", ())]
    return {**report, "results": results} if "results" in report else report


def report_body(report: dict) -> str:
    """Canonical JSON of everything except the volatile meta block and the artifacts."""
    body = {k: v for k, v in _without_artifacts(report).items() if k != "meta"}
    return json.dumps(body, sort_keys=True)


def _write_json(report: dict, path: str) -> None:
    with _atomic_open(path) as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _sweep_token(value) -> str:
    return str(value).replace(".", "p")


def write_report(report: dict, out_dir: str, mode: str) -> list:
    """Write the JSON report plus the verb's CSV tables; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    results = report["results"]
    for entry in results:
        emp, pred_pmf = entry.get("_pmfs", (None, None))
        for kind, pmf in (("predicted", pred_pmf), ("empirical", emp)):
            if pmf is not None:
                path = os.path.join(out_dir, f"{kind}_pmf_{_sweep_token(entry['sweep_value'])}.csv")
                pmf_to_csv(pmf, path)
                written.append(path)
    path = os.path.join(out_dir, f"{mode}_report.json")
    _write_json(_without_artifacts(report), path)
    written.append(path)
    if mode == "compare":
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
