import concurrent.futures
import copy
import csv
import functools
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

from visitlab import (
    ClusterStats,
    ConfigError,
    ConvergenceError,
    CylinderTarget,
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    GeoDiagonalTarget,
    HalfLineTarget,
    HouseOfCardsSpec,
    ProductChainSpec,
    RegenerativeSpec,
    ResourceLimitError,
    RunLengthTarget,
    SpecError,
    SyncCylinderTarget,
    UnsupportedPairError,
    WSampleSet,
    collect_cluster_stats,
    collect_w,
    config_from_mapping,
    exit_code_for,
    predict_for,
    report_body,
    run_experiment,
    write_report,
)
from visitlab import runner, systems, targets
from visitlab.cli import main
from visitlab.config import load_config
from visitlab.systems import sample_chain

MATRIX = [[0.4, 0.6], [0.2, 0.8]]

HOC_DOC = {
    "experiment": {
        "t": 2.0,
        "samples": 6000,
        "seed": 11,
        "tolerance": 0.05,
        "window_forward": 8,
        "window_two_sided": 8,
    },
    "system": {"kind": "house-of-cards", "reset": 0.5},
    "target": {"kind": "run-length", "level": 1, "sweep": [6]},
}


def _cfg(doc=None, **overrides):
    return config_from_mapping(copy.deepcopy(doc or HOC_DOC), overrides or None)


def _load_gate():
    # tests/report_digests.py, the report-body gate, is named so that pytest does
    # not collect it; it prepends src and tests to sys.path, which is restored
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("report_digests", Path(__file__).with_name("report_digests.py"))
    gate = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(gate)
    finally:
        sys.path[:] = path
    return gate


_GATE = _load_gate()
_GATE_CASES = {case[0]: case for case in _GATE.cases()}
# the digests of every case, recorded by `python3 tests/report_digests.py`
_DIGESTS = Path(__file__).with_name("report_digests.txt")
_WORKLOAD_EXITS = {
    w["name"]: w["expected_exit"]
    for w in json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())["workloads"]
}


def test_predict_for_dispatch():
    t = 2.0
    hoc = predict_for(HouseOfCardsSpec.constant(0.5), RunLengthTarget(6), t)
    assert hoc.family == "polya-aeppli" and hoc.params["p"] == pytest.approx(0.5)
    drift = predict_for(HouseOfCardsSpec.drifting(0.4, 1.0), RunLengthTarget(6), t)
    assert drift.params["p"] == pytest.approx(0.6)

    q = np.array([0.5, 0.5])
    reg = RegenerativeSpec.with_shared_lengths([0, 1], [0.5, 0.5], q)
    shared = predict_for(reg, HalfLineTarget(1), t)
    assert shared.family == "compound-poisson"
    smith = predict_for(RegenerativeSpec.smith([2, 3], [0.5, 0.5]), HalfLineTarget(2), t)
    assert "alpha_hats" in smith.extras

    chain = FiniteMarkovSpec(np.array(MATRIX))
    per = predict_for(chain, CylinderTarget((0, 1, 0)), t)
    assert per.family == "polya-aeppli" and per.params["p"] == pytest.approx(0.12)
    aper = predict_for(chain, CylinderTarget((0, 1)), t)
    assert aper.family == "poisson"

    pair = ProductChainSpec(
        (
            FiniteMarkovSpec(np.array([[0.2, 0.8], [0.3, 0.7]])),
            FiniteMarkovSpec(np.array([[0.8, 0.2], [0.1, 0.9]])),
        ),
        "independent",
    )
    sync = predict_for(pair, SyncCylinderTarget(4), t)
    assert sync.params["p"] == pytest.approx(0.64, abs=1e-11)

    assert predict_for(DoeblinChainSpec(0.5), GeoDiagonalTarget(0.01), t).family == "poisson"

    signs = predict_for(FactorProductSpec(0.3), CylinderTarget((1,) * 8), t)
    assert signs.params["p"] == pytest.approx(0.7, abs=1e-9)


def test_predict_for_unsupported_pairs():
    with pytest.raises(UnsupportedPairError):
        predict_for(FiniteMarkovSpec(np.array(MATRIX)), HalfLineTarget(1), 2.0)
    with pytest.raises(UnsupportedPairError):
        predict_for(
            HouseOfCardsSpec.alternating(0.3, 0.6), RunLengthTarget(5), 2.0
        )
    # a sign word whose primitive cycle has no aligned-ratio match is refused
    with pytest.raises(ConvergenceError):
        predict_for(FactorProductSpec(0.3), CylinderTarget((-1,) * 5), 2.0)


def test_non_self_overlapping_sign_word_predicts_isolated_visits():
    # (-1, 1, ..., 1) never overlaps itself, so the sign rule's Poisson branch
    # answers, and no two visits lie closer than the word's length
    word = (-1,) + (1,) * 7
    pred = predict_for(FactorProductSpec(0.3), CylinderTarget(word), 2.0)
    assert pred.family == "poisson" and pred.params == {"p": 0.0}
    assert pred.notes == ("non-self-overlapping sign word: isolated visits",)
    doc = {
        "experiment": {"t": 1.0, "samples": 1000, "seed": 3, "tolerance": 0.15},
        "system": {"kind": "sign-product", "plus_prob": 0.3},
        "target": {"kind": "sign-cylinder", "word_cycle": list(word), "sweep": [8]},
    }
    (entry,) = run_experiment(_cfg(doc), "compare")["results"]
    assert entry["prediction"]["family"] == "poisson"
    # P(x_0 != x_1 = ... = x_8) for i.i.d. signs with P(+1) = 0.3
    mu = 0.7 * 0.3**8 + 0.3 * 0.7**8
    assert entry["measure"] == {"value": pytest.approx(mu, rel=1e-12), "se": 0.0, "method": "exact:sign-lift"}
    pmf = np.asarray(entry["empirical"]["pmf"])
    k = np.arange(pmf.size)
    mean, var = pmf @ k, pmf @ k**2 - (pmf @ k) ** 2
    # E[W] = (horizon + 1) mu; the repulsion leaves W underdispersed at this depth
    assert abs(mean - (entry["horizon"] + 1) * mu) < 4 * np.sqrt(var / 1000)
    assert var < mean
    # the same repulsion puts the law about TV 0.09 from Poisson(1) at depth 8
    assert entry["tv"]["pass"]


def test_cylinder_kinds_cross_systems(tmp_path, capsys):
    # a cylinder word over {1} on a sign-product system is a sign word ...
    doc = {
        "experiment": {"t": 2.0, "samples": 64, "seed": 2},
        "system": {"kind": "sign-product", "plus_prob": 0.3},
        "target": {"kind": "cylinder", "word_cycle": [1], "sweep": [8]},
    }
    (entry,) = run_experiment(_cfg(doc), "predict")["results"]
    assert entry["measure"]["method"] == "exact:sign-lift"
    assert entry["prediction"]["family"] == "polya-aeppli"
    assert entry["prediction"]["params"]["p"] == pytest.approx(0.7, abs=1e-9)
    # ... and a sign word with no -1 on a finite chain is a state word
    doc["system"] = {"kind": "markov", "matrix": MATRIX}
    doc["target"]["kind"] = "sign-cylinder"
    (entry,) = run_experiment(_cfg(doc), "predict")["results"]
    assert entry["measure"]["method"] == "exact:path-product"
    # a -1 letter is no state of the chain: refused with exit 3
    doc["target"]["word_cycle"] = [1, -1]
    path = tmp_path / "minus.yaml"
    path.write_text(yaml.safe_dump(doc))
    for verb in ("predict", "simulate"):
        assert main([verb, "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sweep value 8: ") and "alphabet" in err


def test_stein_outer_measures_take_the_runs_samples_and_seed(monkeypatch):
    # run targets over a finite chain are measured by Monte Carlo
    calls = []
    measure_mc = targets.measure_mc

    def recorded(target, system, samples, seed):
        calls.append((target, samples, seed))
        return measure_mc(target, system, samples, seed)

    monkeypatch.setattr(targets, "measure_mc", recorded)
    doc = {
        "experiment": {"t": 2.0, "samples": 2000, "seed": 5},
        "system": {"kind": "markov", "matrix": MATRIX},
        "target": {"kind": "run-length", "level": 1, "sweep": [6]},
        "stein": {"profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5}},
    }
    stein = run_experiment(_cfg(doc), "simulate")["results"][0]["stein"]
    assert "value" in stein
    # the run's target once, then its outer sets U^0 .. U^5, all as the run measures
    assert calls == [(RunLengthTarget(j), 2000, 5) for j in (6, 0, 1, 2, 3, 4, 5)]
    assert run_experiment(_cfg(doc, seed=6), "simulate")["results"][0]["stein"] != stein


def test_compare_report_structure_and_tv():
    report = run_experiment(_cfg(), "compare")
    assert report["schema"] == 1 and report["mode"] == "compare"
    (entry,) = report["results"]
    assert entry["sweep_value"] == 6
    assert entry["measure"]["value"] == pytest.approx(2.0**-7)
    assert entry["measure"]["method"].startswith("exact")
    # mu is assembled in log space, so t/mu sits a hair under 256
    assert entry["horizon"] in (255, 256)
    assert entry["prediction"]["family"] == "polya-aeppli"
    assert entry["empirical"]["samples"] == 6000
    tv = entry["tv"]
    assert tv["pass"] and tv["value"] <= 0.05
    assert tv["band"][0] <= tv["value"] <= tv["band"][1]
    tables = entry["tables"]
    assert tables["alpha_hat"]["values"][0] == 1.0
    assert exit_code_for(report) == 0


def test_report_body_is_worker_invariant(monkeypatch):
    # a run this small costs less than a worker's share, so force the pool
    monkeypatch.setattr(runner, "_POOL_SECONDS", 1e-9)
    base = run_experiment(_cfg(), "compare")
    threaded = run_experiment(_cfg(workers=3), "compare")
    assert report_body(base) == report_body(threaded)
    assert base["meta"]["workers"] == 1 and threaded["meta"]["workers"] == 3
    # two 4096-row blocks
    assert base["meta"]["pool_workers"] == [1]
    assert threaded["meta"]["pool_workers"] == [min(3, runner._usable_cpus(), 2)]


def test_seed_changes_the_body():
    a = run_experiment(_cfg(), "compare")
    b = run_experiment(_cfg(seed=12), "compare")
    assert report_body(a) != report_body(b)


def test_simulate_and_predict_modes():
    sim = run_experiment(_cfg(), "simulate")
    (entry,) = sim["results"]
    assert "prediction" not in entry and "tv" not in entry
    assert entry["empirical"]["samples"] == 6000
    pred = run_experiment(_cfg(), "predict")
    (entry,) = pred["results"]
    assert "empirical" not in entry and entry["prediction"]["params"]["p"] == 0.5


def test_failing_tolerance_sets_exit_code():
    report = run_experiment(_cfg(tolerance=1e-6), "compare")
    assert not report["results"][0]["tv"]["pass"]
    assert exit_code_for(report) == 2


def test_two_sided_window_must_fit_the_horizon():
    doc = copy.deepcopy(HOC_DOC)
    doc["experiment"]["window_two_sided"] = 300  # t/mu = 256 at n = 6
    with pytest.raises(ConfigError):
        run_experiment(_cfg(doc), "compare")


@pytest.mark.parametrize("given", ["window_forward", "window_two_sided"])
def test_one_window_sets_both_and_meets_the_guard(given):
    # K defaults to L and L to K, so a forward window alone meets the same
    # two-sided guard; the normalized document keeps only what was written
    doc = copy.deepcopy(HOC_DOC)
    del doc["experiment"]["window_forward"], doc["experiment"]["window_two_sided"]
    doc["experiment"].update({given: 300, "samples": 400})
    cfg = _cfg(doc)
    assert (cfg.window_forward, cfg.window_two_sided) == (300, 300)
    assert [k for k in cfg.normalized["experiment"] if k.startswith("window")] == [given]
    with pytest.raises(ConfigError, match=r"window_two_sided=300 must stay below t/mu = 256\.0"):
        run_experiment(cfg, "compare")
    doc["experiment"][given] = 200
    cfg = _cfg(doc)
    assert (cfg.window_forward, cfg.window_two_sided) == (200, 200)
    tables = run_experiment(cfg, "compare")["results"][0]["tables"]
    assert sorted(tables) == ["alpha", "alpha_hat", "lambda_tilde"]


def test_resource_guard_trips_on_absurd_horizons():
    doc = copy.deepcopy(HOC_DOC)
    doc["target"]["sweep"] = [40]  # mu = 2^-41
    with pytest.raises(ResourceLimitError):
        run_experiment(_cfg(doc), "simulate")


def test_empirical_extremal_index_near_half():
    report = run_experiment(_cfg(), "compare")
    alpha = report["results"][0]["tables"]["alpha"]
    z = abs(alpha["extremal_index"] - 0.5) / alpha["extremal_index_se"]
    assert z < 4.0
    lam = report["results"][0]["tables"]["lambda_tilde"]
    assert abs(lam["mean_cluster"] - 2.0) < 6.0 * lam["mean_cluster_se"]


def test_write_report_inventory(tmp_path):
    report = run_experiment(_cfg(), "compare")
    paths = write_report(report, tmp_path, "compare")
    names = {Path(p).name for p in paths}
    assert "compare_report.json" in names
    assert "empirical_pmf_6.csv" in names and "predicted_pmf_6.csv" in names
    loaded = json.loads((tmp_path / "compare_report.json").read_text())
    assert loaded["config_hash"] == report["config_hash"]
    assert "_pmfs" not in json.dumps(loaded)


def test_sweep_writes_summary_csv(tmp_path):
    doc = copy.deepcopy(HOC_DOC)
    doc["target"]["sweep"] = [5, 6]
    report = run_experiment(_cfg(doc), "compare")
    paths = write_report(report, tmp_path, "compare")
    assert "sweep_summary.csv" in {Path(p).name for p in paths}
    lines = (tmp_path / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "sweep_value,mu,tv,tolerance,pass,bracket"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "5"
    assert lines[2].split(",")[1] == repr(report["results"][1]["measure"]["value"])


def test_bound_command_rows(tmp_path):
    doc = copy.deepcopy(HOC_DOC)
    doc["target"]["sweep"] = [10, 16]
    doc["stein"] = {
        "profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5},
        "mode": "phi",
        "window_policy": "half",
    }
    report = run_experiment(_cfg(doc), "bound")
    rows = report["results"]
    assert [r["n"] for r in rows] == [10, 16]
    assert rows[1]["value"] < rows[0]["value"]
    assert report["monotone_decreasing"] is True
    paths = write_report(report, tmp_path, "bound")
    names = {Path(p).name for p in paths}
    assert "bound_table.csv" in names and "bound_report.json" in names
    header = (tmp_path / "bound_table.csv").read_text().splitlines()[0]
    assert header == "n,argmin_delta,bracket_value"


def test_bound_requires_stein_section():
    with pytest.raises(ConfigError):
        run_experiment(_cfg(), "bound")


class _SerialPool:
    """Stand-in for ProcessPoolExecutor that records its size and starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cpus, samples, pool_size",
    [
        (8, 4, 6000, 2),  # two blocks
        (8, 2, 9000, 2),  # two CPUs
        (3, 16, 9000, 3),  # the configured count
        (8, 1, 9000, None),  # one CPU: serial, no pool
        (8, None, 9000, None),  # unknown CPU count: serial
    ],
)
def test_workers_are_clamped_to_cpus_and_blocks(monkeypatch, workers, cpus, samples, pool_size):
    # a platform without affinity masks: the cap is the CPU count
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(runner, "_POOL_SECONDS", 1e-9)
    monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
    _SerialPool.sizes = []
    report = run_experiment(_cfg(workers=workers, samples=samples), "simulate")
    assert _SerialPool.sizes == ([] if pool_size is None else [pool_size])
    serial = run_experiment(_cfg(workers=1, samples=samples), "simulate")
    assert report_body(report) == report_body(serial)


@pytest.mark.parametrize("mask, pool_size", [({0}, None), ({0, 5}, 2)])
def test_workers_are_clamped_to_the_affinity_mask(monkeypatch, mask, pool_size):
    # a run pinned to one CPU stays serial however many CPUs the machine has
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(runner, "_POOL_SECONDS", 1e-9)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
    _SerialPool.sizes = []
    run_experiment(_cfg(workers=8, samples=9000), "simulate")
    assert _SerialPool.sizes == ([] if pool_size is None else [pool_size])


def test_pool_is_sized_by_the_first_chunks_time(monkeypatch):
    # the first chunk's CPU time, scaled to the rows after it, buys one worker
    # per _POOL_SECONDS; the run's blocks, CPUs and workers still cap the pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    serial = run_experiment(_cfg(samples=9000), "simulate")
    # short paths: the first chunk is block 0, and 4904 rows follow it
    assert serial["results"][0]["simulated_steps"] < 9000 * 1024
    rest_per_probe = 4904 / 4096
    for shares, pool_size in ((2.5, 2), (1.5, None), (0.5, None), (5.0, 3)):
        ticks = iter([1.0, 1.0 + shares * runner._POOL_SECONDS / rest_per_probe])
        monkeypatch.setattr(runner.time, "thread_time", lambda: next(ticks))
        _SerialPool.sizes = []
        report = run_experiment(_cfg(workers=8, samples=9000), "simulate")
        assert _SerialPool.sizes == ([] if pool_size is None else [pool_size])
        assert report["meta"]["pool_workers"] == [pool_size or 1]
        assert report_body(report) == report_body(serial)


def test_pool_shares_are_near_equal_and_in_order(monkeypatch):
    # the pool gets a multiple of its size in near-equal shares of at most a
    # block, which tile the rows after the timed first chunk, if any, in order
    shares = []

    class _RecordingPool(_SerialPool):
        def map(self, fn, items, chunksize=1):
            shares.extend((item[3], item[4]) for item in items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = run_experiment(_cfg(samples=13000), "simulate")
    # timed: a second of CPU for block 0 prices the 8904 rows after it well above two shares
    ticks = iter([0.0, 1.0])
    monkeypatch.setattr(runner.time, "thread_time", lambda: next(ticks))
    report = run_experiment(_cfg(workers=2, samples=13000), "simulate")
    assert report["meta"]["pool_workers"] == [2]
    # four shares, since two would exceed a block
    assert shares == [(4096, 2226), (6322, 2226), (8548, 2226), (10774, 2226)]
    assert report_body(report) == report_body(serial)
    # untimed: the whole run in four shares
    shares.clear()
    monkeypatch.setattr(runner, "_STEP_SECONDS", 1.0)
    report = run_experiment(_cfg(workers=2, samples=13000), "simulate")
    assert shares == [(0, 3250), (3250, 3250), (6500, 3250), (9750, 3250)]
    assert report_body(report) == report_body(serial)


def test_runs_whose_step_price_pays_every_worker_are_not_timed(monkeypatch):
    # at the cheapest sampler's price per step a large run pays for every
    # worker the caps allow, so nothing is simulated in-process first
    def untimed():
        raise AssertionError("the run was timed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(runner.time, "thread_time", untimed)
    monkeypatch.setattr(runner, "_STEP_SECONDS", 1.0)
    _SerialPool.sizes = []
    report = run_experiment(_cfg(workers=8, samples=9000), "simulate")
    assert _SerialPool.sizes == [3]
    assert report["meta"]["pool_workers"] == [3]


@pytest.mark.parametrize("workload, steps, pool_size", [
    ("sign-short", 1_867_776, None),  # eight blocks, but its timed chunk prices under two shares
    ("markov-pool", 35_323_904, 2),  # its steps pay for two workers untimed
])
def test_benchmark_sized_runs_pool_by_their_work(monkeypatch, workload, steps, pool_size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    _SerialPool.sizes = []
    path = Path(__file__).parents[1] / "perfbench" / "workloads" / f"{workload}.yaml"
    report = run_experiment(load_config(str(path), {}), "simulate")
    assert report["results"][0]["simulated_steps"] == steps
    assert _SerialPool.sizes == ([] if pool_size is None else [pool_size])
    assert report["meta"]["workers"] == 2
    assert report["meta"]["pool_workers"] == [pool_size or 1]


class _Task(Exception):
    pass


def _first_block_peak(monkeypatch, workload, path_len):
    """Traced peak of the first 4096-row block of a serial benchmark run, as
    the runner hands it out."""
    simulate = runner._simulate_block

    def first_task(args):
        raise _Task(args)

    monkeypatch.setattr(runner, "_simulate_block", first_task)
    path = Path(__file__).parents[1] / "perfbench" / "workloads" / f"{workload}.yaml"
    with pytest.raises(_Task) as task:
        run_experiment(load_config(str(path), {"workers": 1}), "simulate")
    args = task.value.args[0]
    assert args[3:6] == (0, 4096, path_len)
    tracemalloc.start()
    try:
        simulate(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_markov_pool_block_peak_stays_bounded(monkeypatch):
    peak = _first_block_peak(monkeypatch, "markov-pool", 2156)
    # chunks of 1945 rows, 4.0 MB of uint8 paths: two such arrays at once,
    # one uniform tile and one row tile's indicators (8.1 MiB measured)
    assert peak < 9 << 20, peak / 2**20


def test_runlength_long_block_peak_stays_bounded(monkeypatch):
    peak = _first_block_peak(monkeypatch, "runlength-long", 4307)
    # chunks of 973 rows, 8.4 MB of uint16 paths, and one row tile's
    # indicators and cluster windows (9.4 MiB measured; 13.0 when a chunk's
    # indicators were held whole)
    assert peak < 11 << 20, peak / 2**20


def test_tiled_post_processing_equals_the_whole_chunk(monkeypatch):
    # one chunk of 700 rows of 2000 steps: uint8 paths, 262 rows per tile,
    # so two whole tiles and a partial one of 176 rows
    system = FiniteMarkovSpec(np.array(MATRIX))
    target = CylinderTarget((1, 1, 1))
    start, count, path_len, horizon, window_f, window_k, cap = 5000, 700, 2000, 1985, 8, 6, 4
    ext_horizon = path_len - target.window
    [(first, paths)] = systems.path_chunks(system, path_len, 3, start, count)
    per = targets.tile_rows(paths)
    assert first == start and len(paths) == count and 2 * per < count and count % per
    ind = targets.hits(paths, target, ext_horizon)
    w_whole = collect_w(ind, horizon, start_index=first)
    st_whole = collect_cluster_stats(ind, window_f, window_k, cap=cap, start_index=first)
    rows = []

    def recorded(tile, *args):
        rows.append(len(tile))
        return targets.hits(tile, *args)

    monkeypatch.setattr(runner, "hits", recorded)
    w_tiled, st_tiled = runner._simulate_block(
        (system, target, 3, start, count, path_len, ext_horizon, horizon,
         window_f, window_k, cap)
    )
    assert rows == [per, per, count - 2 * per]
    assert (w_tiled.start, st_tiled.start) == (start, start)
    assert w_tiled.values.dtype == w_whole.values.dtype
    assert np.array_equal(w_tiled.values, w_whole.values)
    assert st_whole.after_l.sum() > 0 and st_whole.around.sum() > 0
    for name in ("after_l", "after_k", "around"):
        whole, tiled = getattr(st_whole, name), getattr(st_tiled, name)
        assert tiled.dtype == whole.dtype and np.array_equal(tiled, whole), name


@pytest.mark.parametrize("n", [1, 2, 3, 200])
def test_percentiles_equal_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    cases = [
        rng.random(n),
        0.5 * rng.integers(0, 3, n),  # ties
        np.full(n, 0.1),
        np.round(rng.normal(size=n), 2),
    ]
    for values in cases:
        for percents in ([2.5, 97.5], [0, 50, 100]):
            ref = np.percentile(values, percents)
            out = runner._percentiles(values, percents)
            assert out.dtype == ref.dtype
            assert np.array_equal(out.view(np.int64), ref.view(np.int64)), (values, percents)


class _BrokenPool(_SerialPool):
    """Stand-in for a pool whose worker died."""

    def map(self, fn, items, chunksize=1):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


def test_worker_crash_exits_four(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BrokenPool)
    monkeypatch.setattr(runner, "_POOL_SECONDS", 1e-9)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(HOC_DOC))
    args = ["simulate", "--config", str(cfg), "--jobs", "2", "--samples", "6000"]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "resource guard" in err and "worker process died" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "simulate_report.json").exists()


DOUBLING_DOC = {
    "experiment": {"t": 1.0, "samples": 2000, "seed": 1},
    "system": {
        "kind": "interval-map",
        "breaks": [0, "1/2", 1],
        "slopes": [2, 2],
        "intercepts": [0, -1],
    },
    "target": {"kind": "cylinder", "word": [1] * 6, "sweep": [6]},
}


def test_doubling_map_visit_counts_have_the_kac_mean():
    report = run_experiment(_cfg(DOUBLING_DOC), "simulate")
    (entry,) = report["results"]
    mu = entry["measure"]["value"]
    assert mu == 2.0**-6 and entry["measure"]["method"] == "exact:invariant-density"
    assert entry["horizon"] == 64
    pmf = np.array(entry["empirical"]["pmf"])
    k = np.arange(pmf.size)
    se = np.sqrt(pmf @ k**2 - (pmf @ k) ** 2) / np.sqrt(2000)
    assert abs(entry["empirical"]["w_mean"] - (64 + 1) * mu) < 5.0 * se
    # the itinerary is a fair coin, so the all-ones word clusters with p = 1/2
    pred = predict_for(_cfg(DOUBLING_DOC).build_system(), CylinderTarget((1,) * 6), 1.0)
    assert pred.family == "polya-aeppli" and pred.params["p"] == 0.5


def test_failed_write_leaves_no_partial_report(tmp_path, monkeypatch):
    report = run_experiment(_cfg(), "compare")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"schema": 1, "results": [')
        raise OSError("disk full")

    monkeypatch.setattr(runner.json, "dump", broken_dump)
    with pytest.raises(OSError):
        write_report(copy.deepcopy(report), tmp_path, "compare")
    with pytest.raises(OSError):
        write_report({"results": []}, tmp_path, "bound")
    assert not list(tmp_path.glob("*_report.json"))
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    write_report(copy.deepcopy(report), tmp_path, "compare")
    good = (tmp_path / "compare_report.json").read_text()
    assert json.loads(good)["schema"] == 1
    # a failed rewrite keeps the previous complete report
    monkeypatch.setattr(runner.json, "dump", broken_dump)
    with pytest.raises(OSError):
        write_report(copy.deepcopy(report), tmp_path, "compare")
    assert (tmp_path / "compare_report.json").read_text() == good
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    # so does a pmf CSV whose writer fails mid-table
    tables = {p.name: p.read_text() for p in tmp_path.glob("*_pmf_*.csv")}
    real_writer = csv.writer

    def failing_writer(fh, *args, **kwargs):
        inner = real_writer(fh, *args, **kwargs)

        class Failing:
            rows = 0

            def writerow(self, row):
                self.rows += 1
                if self.rows > 3:
                    raise OSError("disk full")
                inner.writerow(row)

        return Failing()

    monkeypatch.setattr(csv, "writer", failing_writer)
    with pytest.raises(OSError):
        write_report(report, tmp_path, "compare")
    assert len(tables) == 2 and all(text.count("\n") > 4 for text in tables.values())
    assert {p.name: p.read_text() for p in tmp_path.glob("*_pmf_*.csv")} == tables
    assert not list(tmp_path.glob("*.tmp"))


def test_write_report_leaves_the_report_intact(tmp_path):
    doc = {
        "experiment": {"t": 1.0, "samples": 300, "seed": 2},
        "system": {"kind": "regenerative", "symbols": [0, 1, 2], "probs": [0.5, 0.3, 0.2],
                   "lengths": {"model": "shared", "law": [0.5, 0.3, 0.2]}},
        "target": {"kind": "half-line", "sweep": [2]},
    }
    report = run_experiment(_cfg(doc), "simulate")
    before = copy.deepcopy(report)
    first = write_report(report, tmp_path / "a", "simulate")
    second = write_report(report, tmp_path / "b", "simulate")
    assert report == before
    names = [Path(p).name for p in first]
    assert names == [Path(p).name for p in second] == ["empirical_pmf_2.csv", "simulate_report.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_few_hits_leave_only_alpha_tabulated():
    # 40 trajectories with windows 2 and 16: alpha counts enough hits, the others do not
    doc = _GATE._COMPARE_CASES["cluster tables, some insufficient"]
    tables = run_experiment(_cfg(doc), "compare")["results"][0]["tables"]
    assert {k: v.get("insufficient_data", False) for k, v in tables.items()} == {
        "alpha": False, "alpha_hat": True, "lambda_tilde": True,
    }


# two blocks (4096 + 4 trajectories) of 1116-step paths (horizon 1077, the
# window pad 8 and the word 31), so that the first block samples two chunks
# (_CHUNK_ELEMS // 1116 = 3758 paths, then 338)
_TRACE_DOC = {
    "experiment": {"t": 1.0, "samples": 4100, "seed": 4, "workers": 1,
                   "window_forward": 8, "window_two_sided": 8},
    "system": {"kind": "markov", "matrix": MATRIX},
    "target": {"kind": "cylinder", "word_cycle": [1], "sweep": [31]},
}


def test_benchmark_trace_reenacts_compare(tmp_path, monkeypatch):
    # perfbench/traced.py re-enacts the block and chunk loop from the names
    # it reads in visitlab; its pmfs must equal the report's, chunk for chunk
    path = Path(__file__).parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    chunks = []

    def recorded(chain, n, rngs):
        chunks.append((len(rngs), n))
        return sample_chain(chain, n, rngs)

    monkeypatch.setitem(systems._SAMPLERS, FiniteMarkovSpec, recorded)
    cfg_path = tmp_path / "trace.yaml"
    cfg_path.write_text(yaml.safe_dump(_TRACE_DOC))
    report = run_experiment(load_config(str(cfg_path)), "compare")
    assert chunks == [(3758, 1116), (338, 1116), (4, 1116)]
    counts, pmfs = traced.reenact(str(cfg_path), 4, str(tmp_path), report, traced.Tracer(0))
    assert pmfs == [entry["empirical"]["pmf"] for entry in report["results"]]
    assert chunks[3:] == chunks[:3]
    assert (counts["runner.blocks"], counts["runner.chunks"], counts["systems.rows"]) == (2, 3, 4100)
    assert counts["stats.bootstrap_resamples"] > 0


def test_setup_probe_runs_from_a_checkout():
    # perfbench/setup_probe.py imports load_config, runner.predict_for and
    # targets.measure; the benchmark's setup_s comes from this one JSON line
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", "src", "perfbench/workloads/sign-short.yaml", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    (line,) = run.stdout.splitlines()
    assert sorted(json.loads(line)) == sorted(
        ["setup_s", "import_s", "config.load_s", "targets.measure_s", "predictions.predict_s"]
    )


def test_report_gate_names_every_case():
    names = list(_GATE_CASES)
    assert len(set(names)) == len(names)
    tables = (
        _GATE._PAIR_CONFIGS, _GATE._SIGN_CASES, _GATE._RUN_LENGTH_CASES, _GATE._ISOLATED_CASES,
        _GATE._LONG_CLUSTER_CASES, _GATE._ROUTE_CASES, _GATE._MONTE_CARLO_CASES,
        _GATE._COMPARE_CASES, _WORKLOAD_EXITS,
    )
    assert sorted(names) == sorted(name for table in tables for name in table)
    # the committed digests hold the same cases, in the gate's order
    saved = [line.split("\t")[0] for line in _DIGESTS.read_text().splitlines()]
    assert list(dict.fromkeys(saved)) == names


@pytest.mark.parametrize("case", list(_GATE_CASES))
def test_report_gate_runs_every_case(case):
    lines = list(_GATE.digests(*_GATE_CASES[case]))
    keys = [line[1:3] for line in lines]
    assert len(set(keys)) == len(keys)
    assert {code for *_, code, _ in lines} <= {0, 2, 3}
    bodies = {verb: code for _, verb, artifact, code, _ in lines if artifact == "report_body"}
    if case in _WORKLOAD_EXITS:
        assert bodies == {"compare": _WORKLOAD_EXITS[case]}
    else:
        assert tuple(bodies) == (("compare",) if case in _GATE._COMPARE_CASES else runner.VERBS)
    saved = [line for line in _DIGESTS.read_text().splitlines() if line.split("\t")[0] == case]
    moved = _GATE.differ(saved, [_GATE.line(digest) for digest in lines])
    # a change that moves report bodies on purpose records the file again
    assert not moved, "report digests moved from tests/report_digests.txt:\n" + "\n".join(moved)


def test_report_gate_prints_the_lines_that_differ(monkeypatch, tmp_path, capsys):
    lines = [("case", "predict", "report_body", 0, "ab"), ("case", "compare", "report_body", 2, "cd")]
    monkeypatch.setattr(_GATE, "all_digests", lambda configs: iter(lines))
    assert _GATE.run([]) == 0
    saved = tmp_path / "digests.txt"
    saved.write_text(capsys.readouterr().out)
    assert _GATE.run(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == f"all 2 lines match {saved}\n"
    lines[1] = ("case", "compare", "report_body", 0, "cd")
    assert _GATE.run(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "- case\tcompare\treport_body\t2\tcd",
        "+ case\tcompare\treport_body\t0\tcd",
    ]


def test_merge_ranges_joins_49_parts_as_pairwise_merges():
    rng = np.random.default_rng(4)
    ind = rng.random((49 * 3, 30)) < 0.3
    parts = [
        (collect_w(ind[i : i + 3], 20, start_index=i),
         collect_cluster_stats(ind[i : i + 3], 2, 4, cap=5, start_index=i))
        for i in range(0, 49 * 3, 3)
    ]
    w_all, stats_all = runner._merge_ranges(parts)
    w_pair = functools.reduce(WSampleSet.merge, [w for w, _ in parts])
    st_pair = functools.reduce(ClusterStats.merge, [st for _, st in parts])
    assert (w_all.start, w_all.total) == (0, 49 * 3)
    assert np.array_equal(w_all.values, w_pair.values)
    assert (stats_all.start, stats_all.total) == (st_pair.start, st_pair.total)
    for name in ("after_l", "after_k", "around"):
        assert np.array_equal(getattr(stats_all, name), getattr(st_pair, name)), name
    w_only, none = runner._merge_ranges([(w, None) for w, _ in parts])
    assert none is None and np.array_equal(w_only.values, w_pair.values)
    # each part must start where the one before it ends, with equal windows and cap
    end = 49 * 3
    w_end = collect_w(ind[:3], 20, start_index=end)
    for first, window_k, cap in ((end + 1, 4, 5), (end - 1, 4, 5), (end, 3, 5), (end, 4, 6)):
        bad = collect_cluster_stats(ind[:3], 2, window_k, cap=cap, start_index=first)
        with pytest.raises(SpecError):
            runner._merge_ranges(parts + [(w_end, bad)])
    w_gap = collect_w(ind[:3], 20, start_index=end + 1)
    with pytest.raises(SpecError):
        runner._merge_ranges([(w, None) for w, _ in parts] + [(w_gap, None)])
