import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from visitlab import (
    FiniteMarkovSpec,
    HalfLineTarget,
    UnsupportedPairError,
    predict_for,
    runner,
    targets,
)
from visitlab.cli import build_parser, main
from visitlab.predictions import PAIRS

CONFIG = """\
experiment:
  t: 2.0
  samples: 4000
  seed: 3
  tolerance: 0.06
  window_forward: 8
  window_two_sided: 8
system:
  kind: house-of-cards
  reset: 0.5
target:
  kind: run-length
  level: 1
  sweep: [6]
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG)
    return path


def _body(path):
    report = json.loads(path.read_text())
    report.pop("meta")
    return report


def test_parser_exposes_all_verbs():
    parser = build_parser()
    actions = {a.dest: a for a in parser._subparsers._group_actions}
    assert set(actions["verb"].choices) == {
        "predict",
        "simulate",
        "compare",
        "bound",
    }


def test_sweep_is_no_longer_a_verb(config_path, capsys):
    assert main(["sweep", "--config", str(config_path)]) == 3
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def test_predict_writes_report(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["predict", "--config", str(config_path), "--out-dir", str(out)])
    assert code == 0
    assert (out / "predict_report.json").exists()
    assert (out / "predicted_pmf_6.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_compare_exit_codes(config_path, tmp_path):
    ok = main(
        ["compare", "--config", str(config_path), "--out-dir", str(tmp_path / "a")]
    )
    assert ok == 0
    strict = main(
        [
            "compare",
            "--config",
            str(config_path),
            "--out-dir",
            str(tmp_path / "b"),
            "--tolerance",
            "0.000001",
        ]
    )
    assert strict == 2


def test_jobs_flag_does_not_change_the_report(config_path, tmp_path):
    for jobs, name in ((1, "one"), (2, "two")):
        code = main(
            [
                "compare",
                "--config",
                str(config_path),
                "--jobs",
                str(jobs),
                "--out-dir",
                str(tmp_path / name),
            ]
        )
        assert code == 0
    assert _body(tmp_path / "one" / "compare_report.json") == _body(
        tmp_path / "two" / "compare_report.json"
    )


def test_config_errors_exit_three(tmp_path, capsys):
    assert main(["predict", "--config", str(tmp_path / "nope.yaml")]) == 3
    bad = tmp_path / "bad.yaml"
    bad.write_text("system: {kind: teapot}\n")
    assert main(["predict", "--config", str(bad)]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_infinite_time_scale_exits_three(tmp_path, capsys):
    cfg = tmp_path / "inf.yaml"
    cfg.write_text(CONFIG.replace("t: 2.0", "t: .inf"))
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert "experiment.t" in capsys.readouterr().err


def test_negative_seed_exits_three(tmp_path, capsys):
    cfg = tmp_path / "neg.yaml"
    cfg.write_text(CONFIG.replace("seed: 3", "seed: -1"))
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert "experiment.seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--config", "x.yaml", "--seed", "abc"], "invalid int value: 'abc'"),
        (["compare"], "the following arguments are required: --config"),
        (["frobnicate", "--config", "x.yaml"], "invalid choice: 'frobnicate'"),
    ],
    ids=["bad seed", "no config", "unknown verb"],
)
def test_usage_errors_exit_three(argv, message, capsys):
    # exit 2 means a comparison exceeded its tolerance, so usage errors may not use it
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: visitlab") and message in captured.err
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["compare", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_resource_guard_exits_four(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(CONFIG.replace("sweep: [6]", "sweep: [40]"))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
    assert "resource guard" in capsys.readouterr().err
    # a Monte-Carlo measure of 16384 paths of 800008 steps is refused before
    # any path is drawn
    def no_paths(*args, **kwargs):
        raise AssertionError("paths were drawn before the step guard")

    monkeypatch.setattr(targets, "path_chunks", no_paths)
    cfg.write_text(
        "experiment: {t: 2.0, samples: 16384, seed: 707}\n"
        "system: {kind: markov, matrix: [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]}\n"
        "target: {kind: run-length, level: 1, sweep: [100000]}\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource guard: Monte-Carlo measure needs 1.31e+10 simulated steps")


def test_sweep_and_bound_outputs(config_path, tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        CONFIG.replace("sweep: [6]", "sweep: [5, 6]")
        + "stein:\n  profile: {kind: geometric, scale: 1.0, rate: 0.5}\n"
        "  mode: phi\n  window_policy: half\n"
    )
    out = tmp_path / "compare-out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "sweep_value,mu,tv,tolerance,pass,bracket"
    assert [row.split(",")[0] for row in summary[1:]] == ["5", "6"]
    bout = tmp_path / "bound-out"
    assert main(["bound", "--config", str(cfg), "--out-dir", str(bout)]) == 0
    table = (bout / "bound_table.csv").read_text().splitlines()
    assert len(table) == 3


def test_seed_override_changes_results(config_path, tmp_path):
    for seed, name in ((3, "s3"), (4, "s4")):
        main(
            [
                "compare",
                "--config",
                str(config_path),
                "--seed",
                str(seed),
                "--out-dir",
                str(tmp_path / name),
            ]
        )
    a = _body(tmp_path / "s3" / "compare_report.json")
    b = _body(tmp_path / "s4" / "compare_report.json")
    assert a != b and a["config_hash"] != b["config_hash"]


def test_zero_measure_target_exits_three_without_monte_carlo(tmp_path, capsys, monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran for a target whose exact measure is 0")

    monkeypatch.setattr(targets, "measure_mc", no_monte_carlo)
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(CONFIG.replace("reset: 0.5", "reset: 1"))
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep value 6: ") and "zero stationary measure" in err


@pytest.mark.parametrize("verb", ["predict", "compare"])
def test_unsupported_pair_exits_three_before_measuring(verb, tmp_path, capsys, monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo ran for a pair that has no prediction rule")

    monkeypatch.setattr(targets, "measure_mc", no_monte_carlo)
    cfg = tmp_path / "unsupported.yaml"
    cfg.write_text(
        "experiment: {t: 2.0, samples: 200000, seed: 1}\n"
        "system: {kind: markov, matrix: [[0.4, 0.6], [0.2, 0.8]]}\n"
        "target: {kind: run-length, level: 1, sweep: [40]}\n"
    )
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: no prediction rule for FiniteMarkovSpec + RunLengthTarget")


@pytest.mark.parametrize("verb", ["predict", "compare"])
def test_underflowing_measure_exits_three_naming_the_sweep_value(verb, tmp_path, capsys):
    # 0.7**1999 is a subnormal float, so t / mu overflows to infinity
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(
        "experiment: {t: 2.0, samples: 64, seed: 1, tolerance: 0.1}\n"
        "system: {kind: markov, matrix: [[0.5, 0.5], [0.3, 0.7]]}\n"
        "target: {kind: cylinder, word_cycle: [1], sweep: [2000]}\n"
    )
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep value 2000: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", ["predict", "compare"])
def test_absurd_target_size_exits_three(verb, tmp_path, capsys):
    cfg = tmp_path / "absurd.yaml"
    cfg.write_text(CONFIG.replace("sweep: [6]", "sweep: [1e300]"))
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: target.sweep: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", ["predict", "simulate", "compare"])
def test_huge_run_length_level_exits_three(verb, tmp_path, capsys):
    cfg = tmp_path / "level.yaml"
    cfg.write_text(CONFIG.replace("level: 1", "level: 1e300"))
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: target.level: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", ["predict", "simulate", "compare"])
def test_regenerative_symbol_beyond_int64_exits_three(verb, tmp_path, capsys):
    cfg = tmp_path / "symbols.yaml"
    cfg.write_text(
        "experiment: {t: 1.0, samples: 400, seed: 2, tolerance: 0.1}\n"
        + _PAIR_CONFIGS["regenerative + half-line"].replace("symbols: [0, 1, 2]", "symbols: [0, 1, 1e300]")
    )
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "int64" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("verb", ["compare", "bound"])
def test_unusable_out_dir_exits_three_before_simulating(verb, tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the output directory was checked")

    monkeypatch.setattr(runner, "_run_simulation", no_simulation)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        CONFIG + "stein:\n  profile: {kind: geometric, scale: 1.0, rate: 0.5}\n"
        "  mode: phi\n  window_policy: half\n"
    )
    regular = tmp_path / "report.txt"
    regular.write_text("not a directory\n")
    for out in (regular, regular / "sub"):
        assert main([verb, "--config", str(cfg), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert regular.read_text() == "not a directory\n"


@pytest.mark.parametrize("message, named", [
    ("Unable to allocate 15.6 GiB for an array with shape (1, 2094633399) and data type float64",
     "15.6 GiB"),
    ("", "an allocation failed"),
])
def test_out_of_memory_exits_four(message, named, config_path, tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(runner, "_run_simulation", no_memory)
    assert main(["compare", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource guard: out of memory (") and named in err
    assert "shrink samples or the target" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "compare_report.json").exists()


# one tiny config per entry of the pair table
_PAIR_CONFIGS = {
    "house-of-cards + run-length": """\
system: {kind: house-of-cards, reset: 0.5}
target: {kind: run-length, level: 1, sweep: [3]}
""",
    "regenerative + half-line": """\
system:
  kind: regenerative
  symbols: [0, 1, 2]
  probs: [0.5, 0.3, 0.2]
  lengths: {model: shared, law: [0.5, 0.3, 0.2]}
target: {kind: half-line, sweep: [2]}
""",
    "markov + cylinder": """\
system: {kind: markov, matrix: [[0.4, 0.6], [0.2, 0.8]]}
target: {kind: cylinder, word_cycle: [1], sweep: [3]}
""",
    "interval-map + cylinder": """\
system:
  kind: interval-map
  breaks: [0, 1/3, 2/3, 1]
  slopes: [3, -2, 3]
  intercepts: [0, 5/3, -2]
target: {kind: cylinder, word_cycle: [2], sweep: [3]}
""",
    "product-chain + sync-cylinder": """\
system:
  kind: product-chain
  components: [[[0.2, 0.8], [0.3, 0.7]], [[0.8, 0.2], [0.1, 0.9]]]
target: {kind: sync-cylinder, sweep: [2]}
""",
    "doeblin + geo-diagonal": """\
system: {kind: doeblin, eta: 0.5}
target: {kind: geo-diagonal, sweep: [0.05]}
""",
    "sign-product + sign-cylinder": """\
system: {kind: sign-product, plus_prob: 0.3}
target: {kind: sign-cylinder, word_cycle: [1], sweep: [4]}
""",
}

# the integer W histogram of each pair config above (samples 400, seed 2):
# it pins the random streams, so a change of draw order fails here
_PAIR_W_COUNTS = {
    "house-of-cards + run-length": [194, 74, 66, 26, 14, 14, 7, 3, 1, 0, 0, 0, 1],
    "regenerative + half-line": [174, 89, 75, 42, 17, 3],
    "markov + cylinder": [126, 85, 69, 120],
    "interval-map + cylinder": [187, 104, 58, 34, 8, 7, 2],
    "product-chain + sync-cylinder": [150, 126, 60, 64],
    "doeblin + geo-diagonal": [138, 158, 72, 23, 8, 1],
    "sign-product + sign-cylinder": [221, 65, 53, 24, 20, 6, 11],
}


@pytest.mark.parametrize("name", [pair.name for pair in PAIRS.values()])
def test_every_table_pair_compares(name, tmp_path):
    cfg = tmp_path / "pair.yaml"
    cfg.write_text("experiment: {t: 1.0, samples: 400, seed: 2, tolerance: 0.1}\n" + _PAIR_CONFIGS[name])
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) in (0, 2)
    empirical = json.loads((tmp_path / "compare_report.json").read_text())["results"][0]["empirical"]
    counts = np.asarray(empirical["pmf"]) * empirical["samples"]
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9)
    assert np.round(counts).astype(int).tolist() == _PAIR_W_COUNTS[name]
    # the refusal for any other pair lists exactly the table's pairs
    chain = FiniteMarkovSpec(np.array([[0.4, 0.6], [0.2, 0.8]]))
    with pytest.raises(UnsupportedPairError) as refused:
        predict_for(chain, HalfLineTarget(1), 1.0)
    listed = str(refused.value).split("supported pairs: ")[1].split(", ")
    assert listed == [pair.name for pair in PAIRS.values()]
    assert sorted(_PAIR_CONFIGS) == sorted(listed)


_COLD_START = """\
import os
import sys
from pathlib import Path

import visitlab
from visitlab.cli import main

# two usable CPUs, so only the work cap keeps the two-block run in-process
os.sched_getaffinity = lambda pid: {0, 1}
out = Path(sys.argv[1])
chain = "system: {kind: markov, matrix: [[0.4, 0.6], [0.2, 0.8]]}\\n"
runs = (("pa", "[1]", 64, 1), ("poisson", "[0, 1, 1]", 64, 1), ("two-blocks", "[1]", 8192, 2))
for name, word, samples, workers in runs:
    cfg = out / (name + ".yaml")
    cfg.write_text(
        f"experiment: {{t: 1.0, samples: {samples}, seed: 2, tolerance: 0.5, workers: {workers}}}\\n"
        + chain
        + "target: {kind: cylinder, word_cycle: " + word + ", sweep: [3]}\\n"
    )
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out / name)]) in (0, 2)
    assert (out / name / "compare_report.json").exists()
loaded = sorted(m for m in sys.modules if m.startswith("scipy") or m == "concurrent.futures.process")
assert not loaded, loaded
"""


def test_compare_does_not_import_scipy(tmp_path):
    # scipy costs about 0.3 s of cold start and visitlab does not depend on it;
    # the process pool's modules cost about 20 ms and only a pooled run needs
    # them: a workers: 2 run of two blocks but few steps stays in-process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    reports = [json.loads((tmp_path / n / "compare_report.json").read_text())
               for n in ("pa", "poisson", "two-blocks")]
    assert [r["results"][0]["prediction"]["family"] for r in reports] == ["polya-aeppli", "poisson", "polya-aeppli"]
    assert [r["meta"]["pool_workers"] for r in reports] == [[1], [1], [1]]


_IMPORT_SET = """\
import sys
from pathlib import Path

import visitlab.cli

unused = ("concurrent.futures", "multiprocessing", "numpy.ma", "scipy")


def loaded():
    return sorted(m for m in sys.modules if m in unused or m.startswith(tuple(u + "." for u in unused)))


assert not loaded(), ("import", loaded())
root, out = Path(sys.argv[1]), Path(sys.argv[2])
for workload in ("runlength-long", "sign-short", "markov-pool"):
    cfg = root / "perfbench" / "workloads" / (workload + ".yaml")
    args = ["compare", "--config", str(cfg), "--jobs", "1", "--out-dir", str(out / workload)]
    assert visitlab.cli.main(args) in (0, 2), workload
    assert not loaded(), (workload, loaded())
"""


def test_serial_benchmark_compares_load_no_unused_module(tmp_path):
    # setup_s, the benchmark's cold start, is almost all import: importing the
    # CLI loads no pool, no scipy and no numpy.ma, and a serial compare of each
    # workload loads none of them either (np.unique and np.percentile would
    # import numpy.ma, 1-2 MB of RSS and about 15 ms, on their first call)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET, str(root), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    for workload in ("runlength-long", "sign-short", "markov-pool"):
        assert (tmp_path / workload / "compare_report.json").exists()


_STEIN = "stein:\n  profile: {kind: geometric, scale: 1.0, rate: 0.5}\n  mode: phi\n  window_policy: half\n"


@pytest.mark.parametrize("stein_sweep", ["", "  sweep: [3]\n"], ids=["default sweep", "integer sweep"])
@pytest.mark.parametrize("verb", runner.VERBS)
def test_geo_diagonal_refuses_a_stein_section(verb, stein_sweep, tmp_path, capsys):
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(
        "experiment: {t: 1.0, samples: 64, seed: 2, tolerance: 0.1}\n"
        + _PAIR_CONFIGS["doeblin + geo-diagonal"] + _STEIN + stein_sweep
    )
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: stein: geo-diagonal targets have no Stein bracket")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "name, verb, code, message",
    [
        # 0.3**2000 underflows to a subnormal float, so t / mu overflows
        ("sign-product + sign-cylinder", "bound", 3, "configuration error: sweep value 2000: "),
        # mu is about 1.4e-194, so t / mu is finite but beyond a 64-bit integer
        ("markov + cylinder", "predict", 0, None),
        ("markov + cylinder", "bound", 3, "configuration error: bracket at n=2000: "),
    ],
    ids=["sign-cylinder bound", "markov predict", "markov bound"],
)
def test_deep_targets_keep_the_exit_contract(name, verb, code, message, tmp_path, capsys):
    cfg = tmp_path / "deep.yaml"
    body = re.sub(r"sweep: \[\d+\]", "sweep: [2000]", _PAIR_CONFIGS[name])
    cfg.write_text("experiment: {t: 1.0, samples: 64, seed: 2, tolerance: 0.1}\n" + body + _STEIN)
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is None:
        (entry,) = json.loads((tmp_path / "out" / f"{verb}_report.json").read_text())["results"]
        assert "64-bit integer" in entry["stein"]["error"] and entry["stein"]["k_window"] == 1000
    else:
        assert err.startswith(message) and len(err.strip().splitlines()) == 1


# a maximal coupling whose diagonal kernel [[0, 0.9], [0.1, 0]] has the
# peripheral eigenvalues 0.3 and -0.3: the sync-cylinder measure alternates
# with the parity of n, so there is no limit law to predict
_OSCILLATING_SYNC = """\
system:
  kind: product-chain
  coupling: maximal
  components: [[[0, 1], [0.1, 0.9]], [[0.1, 0.9], [1, 0]]]
target: {kind: sync-cylinder, sweep: [6]}
"""

# nu(k + 2)/nu(k) of the sign cycle (1, -1) runs through 0.21, 0.152, 0.21
# and 0.29 with k mod 4, so its cylinders have no limit law
_OSCILLATING_SIGN = """\
system: {kind: sign-product, plus_prob: 0.3}
target: {kind: sign-cylinder, word_cycle: [1, -1], sweep: [8]}
"""


def _assert_refused_without_limit(config, verb, code, tmp_path, capsys, says="no limit"):
    cfg = tmp_path / "oscillating.yaml"
    cfg.write_text("experiment: {t: 1.0, samples: 64, seed: 2, tolerance: 0.1}\n" + config)
    assert main([verb, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("configuration error: ") and says in err
        assert len(err.strip().splitlines()) == 1
    else:
        assert err == ""
        assert (tmp_path / "out" / "simulate_report.json").exists()


_REFUSALS = [("predict", 3), ("compare", 3), ("simulate", 0)]


@pytest.mark.parametrize("verb, code", _REFUSALS)
def test_oscillating_sync_law_is_refused(verb, code, tmp_path, capsys):
    _assert_refused_without_limit(_OSCILLATING_SYNC, verb, code, tmp_path, capsys)


@pytest.mark.parametrize("verb, code", _REFUSALS)
def test_oscillating_sign_law_is_refused(verb, code, tmp_path, capsys):
    _assert_refused_without_limit(_OSCILLATING_SIGN, verb, code, tmp_path, capsys)


# a chain that follows its cycle with probability 1 (transition product 1)
# visits the cycle's cylinders at a fixed pace: no compound-Poisson law
_CERTAIN_CYCLES = {
    "two-state swap": ("[[0, 1], [1, 0]]", (0, 1)),
    "three-state rotation": ("[[0, 1, 0], [0, 0, 1], [1, 0, 0]]", (0, 1, 2)),
}


@pytest.mark.parametrize("verb, code", _REFUSALS)
@pytest.mark.parametrize("name", list(_CERTAIN_CYCLES))
def test_certain_cycle_is_refused_by_name(name, verb, code, tmp_path, capsys):
    matrix, word = _CERTAIN_CYCLES[name]
    config = (
        f"system: {{kind: markov, matrix: {matrix}}}\n"
        f"target: {{kind: cylinder, word_cycle: {list(word)}, sweep: [{len(word) + 1}]}}\n"
    )
    says = f"around the cycle word {word} is 1.0: the chain repeats the cycle forever"
    _assert_refused_without_limit(config, verb, code, tmp_path, capsys, says)


@pytest.mark.parametrize(
    "verb, squatted", [("compare", "compare_report.json"), ("predict", "predicted_pmf_6.csv")]
)
def test_unwritable_report_path_exits_three(verb, squatted, config_path, tmp_path, capsys):
    out = tmp_path / "out"
    (out / squatted).mkdir(parents=True)
    assert main([verb, "--config", str(config_path), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write report: ") and squatted in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not list(out.glob("*.tmp")) and (out / squatted).is_dir()
