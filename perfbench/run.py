"""visitlab benchmark: ``visitlab compare`` end to end, and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload runlength-long --seed 1 --seconds 25 --trace 0

``--trace 0`` calls ``visitlab.cli.main(["compare", ...])`` in-process,
once to warm up and then repeatedly for ``--seconds``, and reports the
end-to-end metrics: median wall, ns per simulated step, CPU per call, peak
RSS, and the median of several cold-start set-ups in fresh interpreters.
``--trace 1`` alternates real calls with a traced re-enactment of the same
run (``traced.py``) and reports the per-layer metrics.

Every compare call is checked: its exit code must be the workload's verdict,
E[W] = (horizon + 1) * mu must hold within 5 standard errors, and the report
body must be byte-identical across the calls of one run.  A traced run must
reproduce the report's empirical pmf exactly and repeat its counts.

The workloads are described in ``workloads.json``; the metric names and units
come from ``BENCHMARK.json``.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the full record (environment,
body digests, spans) is written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_CALLS = 3
PROBE_TIMEOUT_S = 60


def _fail(msg: str):
    raise SystemExit(f"perfbench: {msg}")


def load_spec() -> tuple:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        with open(HERE / "workloads.json") as fh:
            workloads = {w["name"]: w for w in json.load(fh)["workloads"]}
    except OSError as exc:
        _fail(f"cannot read the benchmark description: {exc}")
    return bench, workloads


def import_visitlab():
    src = ROOT / "src"
    if not (src / "visitlab" / "__init__.py").is_file():
        _fail(f"no visitlab sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import visitlab
    import visitlab.cli
    import visitlab.runner
    import traced

    if Path(visitlab.__file__).resolve().parent != src.resolve() / "visitlab":
        _fail(f"imported visitlab from {visitlab.__file__}, not from {src}")
    return visitlab, traced, numpy, scipy


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _steal_ticks():
    """Steal time of all CPUs in clock ticks, or None where /proc is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def environment(numpy, scipy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# compare calls and their checks
# ---------------------------------------------------------------------------


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def check_report(report: dict, code: int, expected_exit: int) -> list:
    """Problems with one compare result; an empty list means it passed."""
    problems = []
    if code != expected_exit:
        problems.append(f"exit code {code}, expected {expected_exit}")
    for entry in report["results"]:
        emp = entry["empirical"]
        m = emp["samples"]
        mean = sum(k * p for k, p in enumerate(emp["pmf"]))
        var = sum(k * k * p for k, p in enumerate(emp["pmf"])) - mean * mean
        expected = (entry["horizon"] + 1) * entry["measure"]["value"]
        if abs(emp["w_mean"] - expected) > 5.0 * math.sqrt(max(var, 0.0) / m):
            problems.append(
                f"w_mean {emp['w_mean']:.6f} is not (horizon+1)*mu = {expected:.6f} "
                f"within 5 standard errors at sweep value {entry['sweep_value']}"
            )
    return problems


class Caller:
    """Runs checked compare calls for one workload and keeps their record."""

    def __init__(self, visitlab, cfg_path: Path, seed: int, expected_exit: int, work: Path):
        self.cli = visitlab.cli
        self.runner = visitlab.runner
        self.cfg_path = cfg_path
        self.seed = seed
        self.expected_exit = expected_exit
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.body = None
        self.digests = set()
        self.problems = []

    def call(self, jobs=None):
        """One compare call; returns (wall_s, cpu_s, report or None)."""
        out_dir = self.work / ("compare" if jobs is None else f"compare-jobs{jobs}")
        argv = ["compare", "--config", str(self.cfg_path), "--seed", str(self.seed),
                "--out-dir", str(out_dir)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        gc.collect()
        sink = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # a raising call is a failed call, not a crash
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            self.record([f"compare raised:\n{traceback.format_exc()}"])
            return wall, cpu, None
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        with open(out_dir / "compare_report.json") as fh:
            report = json.load(fh)
        problems = check_report(report, code, self.expected_exit)
        body = self.runner.report_body(report)
        self.digests.add(hashlib.sha256(body.encode()).hexdigest())
        if self.body is None:
            self.body = body
        elif body != self.body:
            problems.append("report body differs from the first call of this run")
        self.record(problems)
        return wall, cpu, report

    def record(self, problems: list):
        """Count one checked operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        for p in problems:
            print(f"perfbench: FAILED CHECK: {p}", file=sys.stderr)


def setup_probe(cfg_path: Path, seed: int) -> dict:
    """One cold start in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"),
         str(cfg_path), str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        _fail(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def measure_end_to_end(caller: Caller, seconds: float, cfg_path: Path) -> tuple:
    """Timed compare calls with the set-up probes spread evenly among them.

    Spreading the probes lets them sample the same machine conditions as
    the calls.  A probe's peak RSS stays below that of this process, which
    imports everything the probe does, so it cannot raise peak_rss_mb.
    Peak RSS is read after the warm-up and MIN_CALLS timed calls, because
    heap fragmentation lets it creep up with the number of calls made.
    """
    _, _, report = caller.call()  # warm-up: imports, caches, page faults
    walls, cpus, probes = [], [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(setup_probe(cfg_path, caller.seed))
        elif elapsed < seconds or len(walls) < MIN_CALLS:
            wall, cpu, rep = caller.call()
            walls.append(wall)
            cpus.append(cpu)
            report = rep or report
            if len(walls) == MIN_CALLS:
                peak_rss = _peak_rss_mb()
        else:
            break
    if report is None:
        _fail("every compare call raised; see the messages above")
    steps = sum(e["simulated_steps"] for e in report["results"])
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": wall_s,
        "ns_per_step": wall_s / steps * 1e9,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss,
    }
    detail = {"walls_s": walls, "cpus_s": cpus, "setup_probes": probes,
              "simulated_steps": steps, "wall_tail": _tail(walls)}
    return metrics, detail


def _tail(samples: list) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    k = n - 10  # 1-based rank of the order statistic with ten samples above
    if k <= n // 2:
        return {"samples": n, "percentile": None, "value": None}
    return {"samples": n, "percentile": round(100.0 * k / n, 1),
            "value": sorted(samples)[k - 1]}


def measure_layers(caller: Caller, seconds: float, cfg_path: Path, workers: int,
                   traced) -> tuple:
    _, _, real = caller.call()  # warm-up, and the report the trace must reproduce
    if real is None:
        _fail("the warm-up compare call raised; see the messages above")
    real_pmfs = [e["empirical"]["pmf"] for e in real["results"]]
    walls, serial_walls, reps, spans = [], [], [], []
    first_counts = None
    trace_dir = caller.work / "trace"
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not reps:
        wall, _, _ = caller.call()
        walls.append(wall)
        if workers > 1:  # the traced run is serial, so its baseline is too
            wall, _, _ = caller.call(jobs=1)
        serial_walls.append(wall)
        tr = traced.Tracer(len(reps))
        gc.collect()
        counts, pmfs = traced.reenact(str(cfg_path), caller.seed, str(trace_dir), real, tr)
        spans.extend(tr.spans)
        first_counts = first_counts or counts
        problems = []
        if pmfs != real_pmfs:
            problems.append("traced empirical pmf differs from the report's pmf")
        if counts != first_counts:
            problems.append(f"traced counts changed between repetitions: {counts} vs {first_counts}")
        caller.record(problems)
        reps.append(_layer_values(traced, tr, counts))
    metrics = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
    metrics.update(first_counts)  # exact, so no median (which would turn them into floats)
    metrics["runner.pool_efficiency"] = statistics.median(
        r["layers_s"] for r in reps) / (workers * statistics.median(walls))
    metrics["trace.overhead_frac"] = statistics.median(
        r["traced_wall_s"] for r in reps) / statistics.median(serial_walls)
    detail = {"walls_s": walls, "serial_walls_s": serial_walls, "counts": first_counts,
              "repetitions": reps, "spans": spans}
    return metrics, detail


def _layer_values(traced, tr, counts: dict) -> dict:
    """Per-layer times and rates of one traced repetition."""
    layer = {name: tr.total(name) for name in traced.LAYER_SPANS}
    traced_wall = tr.total("trace")
    layers_s = sum(layer.values())
    tracing_s = sum(tr.total(name) for name in traced.TRACER_SPANS)
    rows, steps = counts["systems.rows"], counts["systems.steps"]
    values = {f"{name}_s": t for name, t in layer.items()}
    values.update({name: counts[name] for name in traced.EXACT_COUNTS})
    values.update({
        "systems.rng_us_per_traj": layer["systems.rng"] / rows * 1e6,
        "systems.sample_ns_per_step": layer["systems.sample"] / steps * 1e9,
        "targets.hits_ns_per_step": layer["targets.hits"] / steps * 1e9,
        "targets.hit_rate": counts["targets.hit_count"] / counts["targets.windows"],
        "runner.other_s": traced_wall - layers_s - tracing_s,
        "traced_wall_s": traced_wall,
        "layers_s": layers_s,
    })
    return values


def select(values: dict, declared: list) -> dict:
    """The declared metrics, with their units, in declaration order."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _load_and_steal() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks()}


def parse_args(argv, names, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(names))
    ap.add_argument("--seed", type=int, default=None,
                    help="experiment seed (default: the workload config's seed)")
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="how long the measured loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: traced per-layer metrics")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    bench, workloads = load_spec()
    args = parse_args(argv, workloads, bench["run_seconds"])
    wl = workloads[args.workload]
    visitlab, traced, numpy, scipy = import_visitlab()
    cfg_path = HERE / wl["config"]
    cfg = visitlab.config.load_config(str(cfg_path))
    seed = cfg.seed if args.seed is None else args.seed
    work = OUT / f"work-{os.getpid()}"
    before = _load_and_steal()
    caller = Caller(visitlab, cfg_path, seed, wl["expected_exit"], work)
    try:
        if args.trace:
            values, detail = measure_layers(caller, args.seconds, cfg_path, cfg.workers, traced)
            metrics = select(values, bench["per_layer"])
        else:
            values, detail = measure_end_to_end(caller, args.seconds, cfg_path)
            metrics = select(values, bench["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = _load_and_steal()
    env = environment(numpy, scipy)
    env["loadavg_before"], env["loadavg_after"] = before["loadavg"], after["loadavg"]
    if before["steal_ticks"] is not None and after["steal_ticks"] is not None:
        env["steal_ticks_delta"] = after["steal_ticks"] - before["steal_ticks"]
    result = {
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                  seconds=args.seconds, environment=env,
                  body_sha256=sorted(caller.digests), problems=caller.problems,
                  detail=detail)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "wall_tail" in detail:
        tail = detail["wall_tail"]
        high = (f"p{tail['percentile']} = {tail['value']:.6g} s" if tail["value"] is not None
                else "too few for a percentile with ten samples beyond it")
        print(f"{args.workload} wall_s samples = {tail['samples']}, {high}")
    rate = caller.failed / caller.attempted
    print(f"{args.workload} error_rate = {rate:.6g} ({caller.failed} of {caller.attempted} calls failed)")
    print(f"{args.workload} environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
