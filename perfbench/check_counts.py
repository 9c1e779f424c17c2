"""The benchmark's own test: traced counts repeat exactly between two runs.

    python3 perfbench/check_counts.py [--seed N]

For each workload it runs ``run.py --trace 1`` twice with the same seed and
fails (exit 1) unless both runs are correct and every count in
``traced.EXACT_COUNTS`` is identical.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from traced import EXACT_COUNTS  # noqa: E402  (needs the paths above)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(HERE / "workloads.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    failures = 0
    for name in names:
        first, second = traced_run(name, args.seed), traced_run(name, args.seed)
        problems = [f"a traced run was not correct: {run}"
                    for run in (first, second) if not run["correct"]]
        for count in EXACT_COUNTS:
            a, b = first["metrics"][count]["value"], second["metrics"][count]["value"]
            if a != b or not isinstance(a, int):
                problems.append(f"{count} = {a!r} then {b!r}")
        for p in problems:
            print(f"FAIL {name}: {p}")
        failures += len(problems)
        if not problems:
            print(f"ok {name}: " + ", ".join(
                f"{c}={first['metrics'][c]['value']}" for c in EXACT_COUNTS))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
