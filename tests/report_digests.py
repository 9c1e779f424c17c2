"""Digests of the reports that a change meant to keep report bodies must keep.

Prints one tab-separated line per case, verb and artifact: the case, the
verb, the artifact (``report_body`` or a CSV file name), the exit code and
the artifact's sha256 (``-`` for a run that wrote no report).  The cases are

* every pair config of ``test_cli._PAIR_CONFIGS`` under every verb, at
  400 samples, seed 2, with ``test_cli._STEIN`` where the target takes it;
* every verb on the sign cylinders of ``_SIGN_CASES`` at depth 8, which
  run both branches of the exact sign checks: the all-plus word at two plus
  probabilities, a steady cycle and a cycle whose law is refused;
* every verb on the run-length targets of ``_RUN_LENGTH_CASES``, with the
  stein section, so the outer sets down to n = 0 are measured too: dyadic
  resets, where the measure and the Kac horizon are exact, and others, down
  to reset 0.05, whose stated mean cluster 20 a 32-term alpha table cuts to
  16.13, and alternating resets, which have no limiting law to predict;
* every verb on the non-self-overlapping words of ``_ISOLATED_CASES``,
  whose visit law is Poisson(t): one on a Markov chain, one on an interval
  map and one sign word;
* every verb on ``_LONG_CLUSTER_CASES``, a regenerative half-line whose
  compound law has clusters of up to 51 steps;
* every verb on ``_ROUTE_CASES``: the two-point length model and the
  threshold route of the finite-chain sampler;
* every verb on the pairs of ``_MONTE_CARLO_CASES``, which the pair table
  does not list: their targets and outer sets are measured by Monte Carlo,
  and only ``simulate`` and ``bound`` write a report;
* ``compare`` on each config of ``_COMPARE_CASES``, with its own experiment
  block: cluster windows, so the bootstrap's tables, and the sampler routes;
* ``compare --jobs 1`` on each benchmark workload in ``perfbench/workloads``,
  which it only reads;
* every verb on every config file named on the command line.

``tests/report_digests.txt`` holds the lines of every case but the command
line's, and tier-1 compares each case with it
(``test_runner.py::test_report_gate_runs_every_case``).  A change that moves
report bodies on purpose records the file again and shows its diff::

    python3 tests/report_digests.py > tests/report_digests.txt

Run it at one commit, then at another with ``--against``, which prints the
lines that differ (``-`` saved, ``+`` now) and exits 1 when any do::

    python3 tests/report_digests.py [config.yaml ...] > digests.txt
    python3 tests/report_digests.py [config.yaml ...] --against digests.txt

Its name does not match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_cli import _PAIR_CONFIGS, _STEIN  # noqa: E402
from visitlab.cli import main  # noqa: E402
from visitlab.runner import VERBS  # noqa: E402

_EXPERIMENT = "experiment: {t: 1.0, samples: 400, seed: 2, tolerance: 0.1}\n"

# case -> (plus_prob, word_cycle) of a depth-8 sign cylinder
_SIGN_CASES = {
    "sign (1,) at 0.1": (0.1, [1]),
    "sign (1,) at 0.7": (0.7, [1]),
    "sign cycle (-1, 1)": (0.3, [-1, 1]),
    "sign cycle (1, -1), refused": (0.3, [1, -1]),
}

# case -> (house-of-cards system section, run-length sweep) at level 1
_RUN_LENGTH_CASES = {
    "run-length at reset 0.5": ("{kind: house-of-cards, reset: 0.5}", [5, 6]),
    "run-length at reset 0.3": ("{kind: house-of-cards, reset: 0.3}", [8]),
    "run-length at reset 0.05": ("{kind: house-of-cards, reset: 0.05}", [3]),
    "run-length at drifting reset (0.5, 0.3)": (
        "{kind: house-of-cards, reset_limit: 0.5, reset_drift: 0.3}", [4],
    ),
    # predict and compare refuse it: no limiting visit law
    "run-length at alternating reset (0.3, 0.7)": (
        "{kind: house-of-cards, reset_even: 0.3, reset_odd: 0.7}", [4],
    ),
}


# case -> (system section, target section) of a word that cannot overlap itself
_ISOLATED_CASES = {
    "markov word (1, 2, 2)": (
        "{kind: markov, matrix: [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]}",
        "{kind: cylinder, word: [1, 2, 2], sweep: [3]}",
    ),
    "interval-map word (0, 1, 2)": (
        "{kind: interval-map, breaks: [0, 1/3, 2/3, 1], slopes: [3, -2, 3], "
        "intercepts: [0, 5/3, -2]}",
        "{kind: cylinder, word: [0, 1, 2], sweep: [3]}",
    ),
    "sign word (-1, 1, 1, 1, 1, 1, 1, 1)": (
        "{kind: sign-product, plus_prob: 0.3}",
        "{kind: sign-cylinder, word: [-1, 1, 1, 1, 1, 1, 1, 1], sweep: [8]}",
    ),
}


# case -> (system section, target section) of a compound law whose clusters
# run past 32: blocks of 51 steps give a 51-row alpha table
_LONG_CLUSTER_CASES = {
    "regenerative two-point [1, 2, 50]": (
        "{kind: regenerative, symbols: [1, 2, 50], probs: [0.3, 0.3, 0.4], "
        "lengths: {model: two-point}}",
        "{kind: half-line, sweep: [2]}",
    ),
}


# case -> (system section, target section) of a road no pair config takes
_ROUTE_CASES = {
    # the two-point length model, whose clusters mix residual laws of different symbols
    "regenerative two-point + half-line": (
        "{kind: regenerative, symbols: [1, 2, 3], probs: [0.5, 0.3, 0.2], "
        "lengths: {model: two-point}}",
        "{kind: half-line, sweep: [2]}",
    ),
    # 9 tuple states and no bucket table: _step_columns' threshold route
    "product-chain + sync-cylinder, 9 states": (
        "{kind: product-chain, components: [[[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]], "
        "[[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]]]}",
        "{kind: sync-cylinder, sweep: [3]}",
    ),
}


# case -> (system section, target section) of a pair the pair table does not list
_MONTE_CARLO_CASES = {
    "markov + run-length": (
        "{kind: markov, matrix: [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]}",
        "{kind: run-length, level: 2, sweep: [2]}",
    ),
    "house-of-cards + cylinder": (
        "{kind: house-of-cards, reset: 0.5}",
        "{kind: cylinder, word: [0, 1, 2, 3], sweep: [3]}",
    ),
    "house-of-cards + half-line": ("{kind: house-of-cards, reset: 0.3}", "{kind: half-line, sweep: [4]}"),
    "interval-map + run-length": (
        "{kind: interval-map, breaks: [0, 1/3, 2/3, 1], slopes: [3, -2, 3], "
        "intercepts: [0, 5/3, -2]}",
        "{kind: run-length, level: 2, sweep: [2]}",
    ),
    "sign-product + run-length": (
        "{kind: sign-product, plus_prob: 0.3}",
        "{kind: run-length, level: 1, sweep: [3]}",
    ),
    "product-chain + geo-diagonal": (
        "{kind: product-chain, components: [[[0.2, 0.8], [0.3, 0.7]], [[0.8, 0.2], [0.1, 0.9]]]}",
        "{kind: geo-diagonal, sweep: [0.5]}",
    ),
}


# case -> config of a compare with its own experiment block: cluster tables
# whose forward and two-sided windows differ, where only alpha has enough
# counted hits, and of the smith regenerative system, whose alpha and
# alpha_hat share one window; then each finite-chain sampler route
# (systems._step_columns' lookup and row-gather) and the constant-reset
# house-of-cards scan
_COMPARE_CASES = {
    "cluster tables, run-length, L != K": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 5, "tolerance": 0.1,
                       "window_forward": 4, "window_two_sided": 9},
        "system": {"kind": "house-of-cards", "reset": 0.5},
        "target": {"kind": "run-length", "level": 1, "sweep": [5]},
    },
    "cluster tables, some insufficient": {
        "experiment": {"t": 2.0, "samples": 40, "seed": 8, "tolerance": 0.5,
                       "window_forward": 2, "window_two_sided": 16},
        "system": {"kind": "house-of-cards", "reset": 0.5},
        "target": {"kind": "run-length", "level": 1, "sweep": [4]},
    },
    "cluster tables, smith regenerative": {
        "experiment": {"t": 2.0, "samples": 2000, "seed": 6, "tolerance": 0.1,
                       "window_forward": 10, "window_two_sided": 10},
        "system": {"kind": "regenerative", "symbols": [1, 2, 3, 4, 5, 6, 7, 8],
                   "probs": [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625,
                             0.0078125, 0.0078125],
                   "lengths": {"model": "two-point"}},
        "target": {"kind": "half-line", "sweep": [5]},
    },
    "chain route, house-of-cards scan": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1,
                       "window_forward": 20, "window_two_sided": 20},
        "system": {"kind": "house-of-cards", "reset": 0.5},
        "target": {"kind": "run-length", "level": 1, "sweep": [6]},
    },
    "chain route, criterion 07's chain": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "markov",
                   "matrix": [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]]},
        "target": {"kind": "cylinder", "word_cycle": [1], "sweep": [6]},
    },
    "chain route, dense 6-state chain": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "markov",
                   "matrix": [[0.3, 0.1, 0.2, 0.1, 0.2, 0.1],
                              [0.15, 0.25, 0.05, 0.2, 0.1, 0.25],
                              [0.1, 0.1, 0.4, 0.1, 0.15, 0.15],
                              [0.05, 0.3, 0.1, 0.35, 0.1, 0.1],
                              [0.2, 0.05, 0.15, 0.1, 0.45, 0.05],
                              [0.1, 0.2, 0.1, 0.25, 0.05, 0.3]]},
        "target": {"kind": "cylinder", "word_cycle": [4], "sweep": [3]},
    },
    "chain route, interval map": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "interval-map", "breaks": [0, "1/3", "2/3", 1],
                   "slopes": [3, -2, 3], "intercepts": [0, "5/3", -2]},
        "target": {"kind": "cylinder", "word_cycle": [2], "sweep": [4]},
    },
    "chain route, maximal coupling": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "product-chain", "coupling": "maximal",
                   "components": [[[0.2, 0.8], [0.3, 0.7]], [[0.8, 0.2], [0.1, 0.9]]]},
        "target": {"kind": "sync-cylinder", "sweep": [4]},
    },
    "chain route, parametrized coupling": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "product-chain", "coupling": "parametrized", "gamma": 0.25,
                   "components": [[[0.2, 0.8], [0.3, 0.7]], [[0.8, 0.2], [0.1, 0.9]]]},
        "target": {"kind": "sync-cylinder", "sweep": [4]},
    },
    "chain route, 3-chain independent product": {
        "experiment": {"t": 2.0, "samples": 3000, "seed": 7, "tolerance": 0.1},
        "system": {"kind": "product-chain",
                   "components": [[[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
                                  [[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]],
                                  [[0.7, 0.2, 0.1], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]]]},
        "target": {"kind": "sync-cylinder", "sweep": [3]},
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases(extra_configs=()):
    """Yield ``(case, config text, verbs, extra arguments)`` for each case."""
    for name, body in sorted(_PAIR_CONFIGS.items()):
        stein = "" if name == "doeblin + geo-diagonal" else _STEIN
        yield name, _EXPERIMENT + body + stein, VERBS, ()
    for name, (plus_prob, cycle) in _SIGN_CASES.items():
        yield name, (
            _EXPERIMENT
            + f"system: {{kind: sign-product, plus_prob: {plus_prob}}}\n"
            + f"target: {{kind: sign-cylinder, word_cycle: {cycle}, sweep: [8]}}\n"
            + _STEIN
        ), VERBS, ()
    for name, (system, sweep) in _RUN_LENGTH_CASES.items():
        yield name, (
            _EXPERIMENT
            + f"system: {system}\n"
            + f"target: {{kind: run-length, level: 1, sweep: {sweep}}}\n"
            + _STEIN
        ), VERBS, ()
    for name, (system, target) in {**_ISOLATED_CASES, **_LONG_CLUSTER_CASES, **_ROUTE_CASES, **_MONTE_CARLO_CASES}.items():
        # a geo-diagonal target refuses a stein section
        stein = "" if "geo-diagonal" in target else _STEIN
        yield name, _EXPERIMENT + f"system: {system}\ntarget: {target}\n" + stein, VERBS, ()
    for name, doc in _COMPARE_CASES.items():
        # JSON is YAML
        yield name, json.dumps(doc), ("compare",), ()
    for workload in sorted((HERE.parent / "perfbench" / "workloads").glob("*.yaml")):
        yield workload.stem, workload.read_text(), ("compare",), ("--jobs", "1")
    for path in extra_configs:
        yield path, Path(path).read_text(), VERBS, ()


def digests(case: str, config: str, verbs, args=()):
    """Yield ``(case, verb, artifact, exit code, sha256)`` for each verb's run."""
    for verb in verbs:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            path.write_text(config)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([verb, "--config", str(path), "--out-dir", str(out), *args])
            report = out / f"{verb}_report.json"
            body = "-"
            if report.exists():
                # the written report is report_body's JSON plus the meta block
                doc = json.loads(report.read_text())
                doc.pop("meta")
                body = _sha256(json.dumps(doc, sort_keys=True).encode())
            yield case, verb, "report_body", code, body
            for csv in sorted(out.glob("*.csv")):
                yield case, verb, csv.name, code, _sha256(csv.read_bytes())


def all_digests(extra_configs=()):
    for case in cases(extra_configs):
        yield from digests(*case)


def line(digest) -> str:
    return "\t".join(str(field) for field in digest)


def differ(saved, now) -> list:
    """The lines of ``saved`` missing from ``now`` (``-``), then the new ones (``+``)."""
    return [f"- {x}" for x in saved if x not in now] + [f"+ {x}" for x in now if x not in saved]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="further config files, run under every verb")
    parser.add_argument("--against", metavar="FILE", help="a saved run to compare with")
    args = parser.parse_args(argv)
    lines = map(line, all_digests(args.configs))
    if args.against is None:
        for text in lines:
            print(text, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    now = list(lines)
    moved = differ(saved, now)
    print("\n".join(moved) if moved else f"all {len(now)} lines match {args.against}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(run())
