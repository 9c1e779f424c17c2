"""Experiment configuration: one YAML file drives every CLI verb.

Schema (all numeric scalars accept decimal literals or rational strings like
"1/3"):

    experiment:
      t: 2.0                  # time scale of the visit window
      samples: 200000         # trajectories M
      seed: 1                 # root seed for the whole run
      workers: 4              # upper bound on worker processes: the pool gets
                              # min(workers, usable CPUs, 4096-row blocks, one
                              # per 0.03 s of the run's projected in-process
                              # simulation), and 1 runs in-process
      tolerance: 0.03         # TV pass threshold for compare/sweep
      window_forward: 200     # L, forward cluster window (optional)
      window_two_sided: 48    # K, two-sided cluster window (optional)
      cluster_cap: 48         # histogram cap for cluster sizes (optional)
      out_dir: reports/run    # optional; CLI --out-dir overrides
    system:
      kind: house-of-cards | markov | product-chain | regenerative |
            interval-map | doeblin | sign-product
      ... kind-specific keys, see SYSTEM_KINDS ...
    target:
      kind: run-length | half-line | cylinder | sign-cylinder |
            sync-cylinder | geo-diagonal
      sweep: [10, 12]         # target sizes n (deltas for geo-diagonal)
      ... kind-specific keys ...
    stein:                    # optional, needed by the bound verb; not for geo-diagonal
      profile: {kind: geometric, scale: 1.0, rate: 0.5}
      mode: phi | psi
      window_policy: half     # K = n // 2, or an integer for fixed K
      sweep: [20, 30, 40]     # defaults to target sweep
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import yaml

from .errors import ConfigError, SpecError
from .predictions import MixingProfile
from .systems import (
    DoeblinChainSpec,
    FactorProductSpec,
    FiniteMarkovSpec,
    HouseOfCardsSpec,
    IntervalMapSpec,
    ProductChainSpec,
    RegenerativeSpec,
)
from .targets import (
    CylinderTarget,
    GeoDiagonalTarget,
    HalfLineTarget,
    RunLengthTarget,
    SyncCylinderTarget,
)


# Largest target size (and run-length level): a target's measure and its
# windows walk it one step at a time, so a size far beyond any path the step
# guard admits would only exhaust time or memory before the run is refused.
_MAX_TARGET_SIZE = 1_000_000


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _require_walkable(sizes: tuple, path: str) -> None:
    if any(v > _MAX_TARGET_SIZE for v in sizes):
        _fail(path, f"target sizes above {_MAX_TARGET_SIZE:,} are refused")


def _as_fraction(value, path: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value.strip())
        # YAML reads true/yes/false/no as bools, which Python counts as ints
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    _fail(path, f"expected a finite number or rational string, got {value!r}")


def _as_float(value, path: str) -> float:
    return float(_as_fraction(value, path))


def _as_int(value, path: str) -> int:
    f = _as_fraction(value, path)
    if f.denominator != 1:
        _fail(path, f"expected an integer, got {value!r}")
    return int(f)


def _as_list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        _fail(path, "expected a nonempty list")
    return list(value)


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected a mapping")
    return value


def _matrix(value, path: str) -> np.ndarray:
    rows = _as_list(value, path)
    return np.array(
        [[_as_float(x, f"{path}[{i}][{j}]") for j, x in enumerate(_as_list(r, f"{path}[{i}]"))]
         for i, r in enumerate(rows)]
    )


@dataclass(frozen=True)
class SteinSection:
    profile: MixingProfile
    mode: str
    window_policy: object  # "half" or a fixed int
    sweep: tuple

    def window_for(self, n: int) -> int:
        if self.window_policy == "half":
            return max(1, n // 2)
        return int(self.window_policy)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, override-applied experiment description."""

    normalized: dict
    t: float
    samples: int
    seed: int
    workers: int
    tolerance: float
    window_forward: int | None  # L and K, each defaulting to the other
    window_two_sided: int | None
    cluster_cap: int
    out_dir: str | None
    sweep: tuple
    stein: SteinSection | None

    def canonical_hash(self) -> str:
        blob = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- builders ----------------------------------------------------------

    def build_system(self):
        return _build("system", self.normalized["system"], SYSTEM_KINDS)

    def build_target(self, sweep_value):
        return _build("target", self.normalized["target"], TARGET_KINDS, sweep_value)


def _normalize(node, path: str):
    """YAML node -> plain json-serializable structure, numbers canonicalized."""
    if isinstance(node, dict):
        out = {}
        for key in node:
            if not isinstance(key, str):
                _fail(path, f"keys must be strings, got {key!r}")
            out[key] = _normalize(node[key], f"{path}.{key}")
        return out
    if isinstance(node, (list, tuple)):
        return [_normalize(x, f"{path}[{i}]") for i, x in enumerate(node)]
    if isinstance(node, bool) or node is None:
        return node
    if isinstance(node, (int, float)):
        return node
    if isinstance(node, str):
        return node
    _fail(path, f"unsupported value {node!r}")


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read, override, validate.  ``overrides`` holds CLI flag values."""
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    return config_from_mapping(doc, overrides)


def config_from_mapping(doc, overrides: dict | None = None) -> ExperimentConfig:
    doc = _as_map(doc if doc is not None else {}, "config")
    doc = _normalize(doc, "config")
    exp = _as_map(doc.get("experiment", {}), "experiment")
    overrides = overrides or {}
    for flag in ("seed", "samples", "workers", "tolerance", "out_dir"):
        if overrides.get(flag) is not None:
            exp[flag] = overrides[flag]
    doc["experiment"] = exp

    workers = _as_int(exp.get("workers", 1), "experiment.workers")
    if workers < 1:
        _fail("experiment.workers", "need at least one worker")
    out_dir = exp.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        _fail("experiment.out_dir", "expected a path string")
    # exclude execution plumbing from the experiment's identity: the report
    # body (and its hash) must not depend on fan-out or output location
    exp = {k: v for k, v in exp.items() if k not in ("workers", "out_dir")}
    doc["experiment"] = exp

    t = _as_float(exp.get("t", 1.0), "experiment.t")
    if t <= 0:
        _fail("experiment.t", "time scale must be positive")
    samples = _as_int(exp.get("samples", 10_000), "experiment.samples")
    if samples < 1:
        _fail("experiment.samples", "need at least one trajectory")
    seed = _as_int(exp.get("seed", 0), "experiment.seed")
    if seed < 0:
        _fail("experiment.seed", "seed must be nonnegative")
    tolerance = _as_float(exp.get("tolerance", 0.03), "experiment.tolerance")
    if tolerance <= 0:
        _fail("experiment.tolerance", "tolerance must be positive")
    wf = exp.get("window_forward")
    wf = None if wf is None else _as_int(wf, "experiment.window_forward")
    wk = exp.get("window_two_sided")
    wk = None if wk is None else _as_int(wk, "experiment.window_two_sided")
    for name, w in (("window_forward", wf), ("window_two_sided", wk)):
        if w is not None and w < 1:
            _fail(f"experiment.{name}", "windows must be >= 1")
    # K defaults to L and L to K; the normalized document keeps what was written
    wf, wk = wf or wk, wk or wf
    cap = _as_int(exp.get("cluster_cap", 16), "experiment.cluster_cap")
    if cap < 1:
        _fail("experiment.cluster_cap", "cluster cap must be >= 1")

    system = _as_map(doc.get("system"), "system") if "system" in doc else None
    target = _as_map(doc.get("target"), "target") if "target" in doc else None
    if system is None:
        _fail("system", "section is required")
    if target is None:
        _fail("target", "section is required")
    sk = system.get("kind")
    if sk not in SYSTEM_KINDS:
        _fail("system.kind", f"unknown kind {sk!r}; known: {', '.join(SYSTEM_KINDS)}")
    tk = target.get("kind")
    if tk not in TARGET_KINDS:
        _fail("target.kind", f"unknown kind {tk!r}; known: {', '.join(TARGET_KINDS)}")
    sweep_raw = _as_list(target.get("sweep"), "target.sweep") if "sweep" in target else None
    if sweep_raw is None:
        _fail("target.sweep", "section is required (list of target sizes)")
    if tk == "geo-diagonal":
        sweep = tuple(_as_float(v, f"target.sweep[{i}]") for i, v in enumerate(sweep_raw))
        if any(not (0 < d < 1) for d in sweep):
            _fail("target.sweep", "strip widths must lie in (0, 1)")
    else:
        sweep = tuple(_as_int(v, f"target.sweep[{i}]") for i, v in enumerate(sweep_raw))
        if any(v < 1 for v in sweep):
            _fail("target.sweep", "target sizes must be >= 1")
        _require_walkable(sweep, "target.sweep")

    stein = None
    if "stein" in doc:
        if tk == "geo-diagonal":
            _fail("stein", "geo-diagonal targets have no Stein bracket; remove the section")
        sec = _as_map(doc["stein"], "stein")
        prof = _as_map(sec.get("profile"), "stein.profile") if "profile" in sec else None
        if prof is None:
            _fail("stein.profile", "mixing profile is required for bound runs")
        kind = prof.get("kind")
        if kind not in ("geometric", "polynomial"):
            _fail("stein.profile.kind", f"unknown profile kind {kind!r}")
        try:
            profile = MixingProfile(
                kind,
                _as_float(prof.get("scale", 1.0), "stein.profile.scale"),
                _as_float(prof.get("rate"), "stein.profile.rate"),
            )
        except Exception as exc:
            raise ConfigError(f"stein.profile: {exc}")
        mode = sec.get("mode", "phi")
        if mode not in ("phi", "psi"):
            _fail("stein.mode", f"expected phi or psi, got {mode!r}")
        policy = sec.get("window_policy", "half")
        if policy != "half":
            policy = _as_int(policy, "stein.window_policy")
            if policy < 1:
                _fail("stein.window_policy", "fixed window must be >= 1")
        ssweep = tuple(
            _as_int(v, f"stein.sweep[{i}]")
            for i, v in enumerate(_as_list(sec.get("sweep", list(sweep)), "stein.sweep"))
        )
        _require_walkable(ssweep, "stein.sweep")
        stein = SteinSection(profile=profile, mode=mode, window_policy=policy, sweep=ssweep)

    cfg = ExperimentConfig(
        normalized=doc,
        t=t,
        samples=samples,
        seed=seed,
        workers=workers,
        tolerance=tolerance,
        window_forward=wf,
        window_two_sided=wk,
        cluster_cap=cap,
        out_dir=out_dir,
        sweep=sweep,
        stein=stein,
    )
    # construction errors should surface at load time, not mid-run
    cfg.build_system()
    for v in sweep:
        cfg.build_target(v)
    return cfg


def _house_of_cards(sec: dict):
    if "reset" in sec:
        return HouseOfCardsSpec.constant(_as_float(sec["reset"], "system.reset"))
    if "reset_limit" in sec:
        return HouseOfCardsSpec.drifting(
            _as_float(sec["reset_limit"], "system.reset_limit"),
            _as_float(sec.get("reset_drift", 0.0), "system.reset_drift"),
        )
    if "reset_even" in sec:
        return HouseOfCardsSpec.alternating(
            _as_float(sec["reset_even"], "system.reset_even"),
            _as_float(sec["reset_odd"], "system.reset_odd"),
        )
    _fail("system", "house-of-cards needs reset, reset_limit, or reset_even/odd")


def _product_chain(sec: dict):
    comps = _as_list(sec.get("components"), "system.components")
    chains = tuple(
        FiniteMarkovSpec(_matrix(c, f"system.components[{i}]"))
        for i, c in enumerate(comps)
    )
    coupling = sec.get("coupling", "independent")
    gamma = sec.get("gamma")
    gamma = None if gamma is None else _as_float(gamma, "system.gamma")
    return ProductChainSpec(chains, coupling, gamma=gamma)


def _regenerative(sec: dict):
    symbols = [_as_int(s, "system.symbols") for s in _as_list(sec.get("symbols"), "system.symbols")]
    probs = [_as_float(p, "system.probs") for p in _as_list(sec.get("probs"), "system.probs")]
    lengths = _as_map(sec.get("lengths"), "system.lengths")
    model = lengths.get("model")
    if model == "shared":
        law = [_as_float(x, "system.lengths.law") for x in _as_list(lengths.get("law"), "system.lengths.law")]
        return RegenerativeSpec.with_shared_lengths(symbols, probs, np.array(law))
    if model == "shared-geometric":
        rate = _as_float(lengths.get("rate"), "system.lengths.rate")
        tail = _as_float(lengths.get("tail", 1e-12), "system.lengths.tail")
        if not (0 < rate < 1):
            _fail("system.lengths.rate", "geometric rate must lie in (0, 1)")
        k = int(np.ceil(np.log(tail) / np.log(1.0 - rate)))
        law = rate * (1.0 - rate) ** np.arange(k)
        return RegenerativeSpec.with_shared_lengths(symbols, probs, law / law.sum())
    if model == "two-point":
        return RegenerativeSpec.smith(symbols, probs)
    _fail("system.lengths.model", f"unknown model {model!r}")


def _fractions(sec: dict, key: str) -> tuple:
    return tuple(_as_fraction(x, f"system.{key}") for x in _as_list(sec.get(key), f"system.{key}"))


# system.kind -> builder of the spec from the system section
SYSTEM_KINDS = {
    "house-of-cards": _house_of_cards,
    "markov": lambda sec: FiniteMarkovSpec(_matrix(sec.get("matrix"), "system.matrix")),
    "product-chain": _product_chain,
    "regenerative": _regenerative,
    "interval-map": lambda sec: IntervalMapSpec(*(_fractions(sec, k) for k in ("breaks", "slopes", "intercepts"))),
    "doeblin": lambda sec: DoeblinChainSpec(_as_float(sec.get("eta"), "system.eta")),
    "sign-product": lambda sec: FactorProductSpec(_as_float(sec.get("plus_prob"), "system.plus_prob")),
}


def _word_for(sec: dict, n: int, path: str) -> tuple:
    """Explicit word prefix or cycled base word, at sweep length n."""
    if "word" in sec and "word_cycle" in sec:
        _fail(path, "give either word or word_cycle, not both")
    if "word" in sec:
        word = tuple(_as_int(x, f"{path}.word") for x in _as_list(sec["word"], f"{path}.word"))
        if n > len(word):
            _fail(f"{path}.word", f"sweep value {n} exceeds the word length {len(word)}")
        return word[:n]
    if "word_cycle" in sec:
        base = tuple(_as_int(x, f"{path}.word_cycle") for x in _as_list(sec["word_cycle"], f"{path}.word_cycle"))
        return tuple(base[i % len(base)] for i in range(n))
    _fail(path, "cylinder targets need word or word_cycle")


def _run_length(sec: dict, n):
    level = _as_int(sec.get("level", 1), "target.level")
    if level > _MAX_TARGET_SIZE:
        _fail("target.level", f"run-length levels above {_MAX_TARGET_SIZE:,} are refused")
    return RunLengthTarget(int(n), level)


def _cylinder(sec: dict, n):
    word = _word_for(sec, int(n), "target")
    if min(word) < 0:
        raise SpecError("cylinder word must be nonempty over nonnegative symbols")
    return CylinderTarget(word)


def _sign_cylinder(sec: dict, n):
    word = _word_for(sec, int(n), "target")
    if not set(word) <= {-1, 1}:
        raise SpecError("sign word must be nonempty over {-1, +1}")
    return CylinderTarget(word)


# target.kind -> builder of the target from the target section and a sweep value
TARGET_KINDS = {
    "run-length": _run_length,
    "half-line": lambda sec, n: HalfLineTarget(int(n)),
    "cylinder": _cylinder,
    "sign-cylinder": _sign_cylinder,
    "sync-cylinder": lambda sec, n: SyncCylinderTarget(int(n)),
    "geo-diagonal": lambda sec, delta: GeoDiagonalTarget(float(delta)),
}


def _build(section: str, sec: dict, kinds: dict, *args):
    """The section's kind builder applied to it; a failure becomes a ConfigError."""
    try:
        return kinds[sec["kind"]](sec, *args)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{section}: invalid {sec['kind']} parameters: {exc}")
