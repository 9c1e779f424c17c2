"""Command-line front end.

Verbs:
  predict    closed-form visit law only (JSON report + predicted PMF CSV)
  simulate   empirical visit statistics only
  compare    prediction vs simulation with TV pass/fail
  bound      error-bracket table over n (needs a stein config section)
  sweep      compare across the sweep list plus a consolidated summary CSV

Exit codes: 0 pass, 2 tolerance fail, 3 config or usage error, 4 resource guard.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ResourceLimitError, VisitlabError
from .config import load_config
from .runner import VERBS, exit_code_for, run_experiment, write_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visitlab",
        description="Predict and verify visit-count laws for shrinking targets.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help=f"run the {verb} pipeline")
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--seed", type=int, default=None, help="override experiment.seed")
        p.add_argument("--samples", type=int, default=None, help="override experiment.samples")
        p.add_argument("--jobs", type=int, default=None, help="override experiment.workers")
        p.add_argument("--out-dir", default=None, help="override experiment.out_dir")
        p.add_argument(
            "--tolerance", type=float, default=None, help="override experiment.tolerance"
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error to stderr; a usage error is a
        # configuration error (exit 3), while --help exits 0
        return 3 if exc.code else 0
    try:
        cfg = load_config(
            args.config,
            overrides={
                "seed": args.seed,
                "samples": args.samples,
                "workers": args.jobs,
                "out_dir": args.out_dir,
                "tolerance": args.tolerance,
            },
        )
        out_dir = cfg.out_dir or "."
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use {out_dir!r} as the output directory: {exc.strerror}"
            ) from exc
        report = run_experiment(cfg, args.verb)
        try:
            written = write_report(report, out_dir, args.verb)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
        for path in written:
            print(f"wrote {path}")
        code = exit_code_for(report)
        if code == 2:
            print("comparison FAILED the configured tolerance", file=sys.stderr)
        return code
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy's message names the allocation it could not make
        failed = str(exc) or "an allocation failed"
        print(f"resource guard: out of memory ({failed}); shrink samples or the target",
              file=sys.stderr)
        return 4
    except VisitlabError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
