"""Cold-start probe: time from a fresh interpreter to the point where
simulation can begin.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG SEED

It times importing ``visitlab``, ``load_config`` with ``build_system`` and
``build_target``, and the first ``measure`` and ``predict_for`` calls, and
prints the times in seconds as one JSON line.
"""

import json
import sys
import time


def main(argv) -> int:
    src, cfg_path, seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from visitlab.config import load_config
    from visitlab.runner import predict_for
    from visitlab.targets import measure

    t_import = time.perf_counter()
    cfg = load_config(cfg_path, overrides={"seed": seed})
    system = cfg.build_system()
    targets = [cfg.build_target(v) for v in cfg.sweep]
    t_load = time.perf_counter()
    for target in targets:
        measure(target, system, samples=min(cfg.samples, 200_000), seed=cfg.seed)
    t_measure = time.perf_counter()
    for target in targets:
        predict_for(system, target, cfg.t)
    t_end = time.perf_counter()
    print(json.dumps({
        "setup_s": t_end - t0,
        "import_s": t_import - t0,
        "config.load_s": t_load - t_import,
        "targets.measure_s": t_measure - t_load,
        "predictions.predict_s": t_end - t_measure,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
