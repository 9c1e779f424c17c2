"""Digests of the reports that a change meant to keep report bodies must keep.

Prints one tab-separated line per case, verb and artifact: the case, the
verb, the artifact (``report_body`` or a CSV file name), the exit code and
the artifact's sha256 (``-`` for a run that wrote no report).  The cases are

* every pair config of ``test_cli._PAIR_CONFIGS`` under all five verbs, with
  the experiment block and stein section of ``test_predict_bodies_are_pinned``;
* all five verbs on the sign cylinders of ``_SIGN_CASES`` at depth 8, which
  run both branches of the exact sign checks: the all-plus word at two plus
  probabilities, a steady cycle and a cycle whose law is refused;
* all five verbs on the run-length targets of ``_RUN_LENGTH_CASES``, with the
  stein section, so the outer sets down to n = 0 are measured too: dyadic
  resets, where the measure and the Kac horizon are exact, and others, down
  to reset 0.05, whose stated mean cluster 20 a 32-term alpha table cuts to
  16.13;
* all five verbs on the non-self-overlapping words of ``_ISOLATED_CASES``,
  whose visit law is Poisson(t): one on a Markov chain, one on an interval
  map and one sign word;
* all five verbs on ``_LONG_CLUSTER_CASES``, a regenerative half-line whose
  compound law has clusters of up to 51 steps;
* ``compare --jobs 1`` on each benchmark workload in ``perfbench/workloads``,
  which it only reads;
* all five verbs on every config file named on the command line.

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, config: Path, verbs, *args: str):
    """Yield ``(case, verb, artifact, exit code, sha256)`` for each verb's run."""
    for verb in verbs:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([verb, "--config", str(config), "--out-dir", str(out), *args])
            report = out / f"{verb}_report.json"
            body = "-"
            if report.exists():
                # the written report is report_body's JSON plus the meta block
                doc = json.loads(report.read_text())
                doc.pop("meta")
                body = _sha256(json.dumps(doc, sort_keys=True).encode())
            yield case, verb, "report_body", code, body
            for path in sorted(out.glob("*.csv")):
                yield case, verb, path.name, code, _sha256(path.read_bytes())


def all_digests(extra_configs):
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, body) in enumerate(sorted(_PAIR_CONFIGS.items())):
            config = Path(tmp) / f"pair{i}.yaml"
            stein = "" if name == "doeblin + geo-diagonal" else _STEIN
            config.write_text(_EXPERIMENT + body + stein)
            yield from digests(name, config, VERBS)
        for name, (plus_prob, cycle) in _SIGN_CASES.items():
            config = Path(tmp) / f"{name}.yaml"
            config.write_text(
                _EXPERIMENT
                + f"system: {{kind: sign-product, plus_prob: {plus_prob}}}\n"
                + f"target: {{kind: sign-cylinder, word_cycle: {cycle}, sweep: [8]}}\n"
                + _STEIN
            )
            yield from digests(name, config, VERBS)
        for name, (system, sweep) in _RUN_LENGTH_CASES.items():
            config = Path(tmp) / f"{name}.yaml"
            config.write_text(
                _EXPERIMENT
                + f"system: {system}\n"
                + f"target: {{kind: run-length, level: 1, sweep: {sweep}}}\n"
                + _STEIN
            )
            yield from digests(name, config, VERBS)
        for name, (system, target) in {**_ISOLATED_CASES, **_LONG_CLUSTER_CASES}.items():
            config = Path(tmp) / f"{name}.yaml"
            config.write_text(_EXPERIMENT + f"system: {system}\ntarget: {target}\n" + _STEIN)
            yield from digests(name, config, VERBS)
    for workload in sorted((HERE.parent / "perfbench" / "workloads").glob("*.yaml")):
        yield from digests(workload.stem, workload, ["compare"], "--jobs", "1")
    for path in extra_configs:
        yield from digests(path, Path(path), VERBS)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", help="further config files, run under all five verbs")
    parser.add_argument("--against", metavar="FILE", help="a saved run to compare with")
    args = parser.parse_args(argv)
    lines = ("\t".join(str(field) for field in line) for line in all_digests(args.configs))
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    saved = Path(args.against).read_text().splitlines()
    now = list(lines)
    differ = [f"- {line}" for line in saved if line not in now]
    differ += [f"+ {line}" for line in now if line not in saved]
    print("\n".join(differ) if differ else f"all {len(now)} lines match {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(run())
