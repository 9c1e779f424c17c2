"""Property test of the CLI's exit contract: 0, 2, 3 or 4, never a traceback.

Each case takes the tiny config of one pair of the pair table at one target
size, valid, large or absurd, plus a stein section with a geometric
mixing profile.  Its first example runs that config as it is; the others
overwrite one more leaf of the document, stein leaves included, with a value
from a pool of extreme and malformed values, and run one of ``runner.VERBS``
on at most 64 trajectories.  A second test runs every (system kind, target
kind) pair of the config schema, listed in the pair table or not.
"""

import copy
import itertools
import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import _PAIR_CONFIGS
from visitlab import runner
from visitlab.cli import main
from visitlab.config import SYSTEM_KINDS, TARGET_KINDS

_EXPERIMENT = {"t": 1.0, "seed": 2, "tolerance": 0.1, "workers": 1,
               "window_forward": 3, "window_two_sided": 3}
_STEIN = {"profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5},
          "mode": "phi", "window_policy": "half"}
_SIZES = (3, 2000, 1e300)
_VALUES = (0, -1, 2, 0.5, 2000, 1e300, float("inf"), float("nan"), "1/3", "x", True, None, [])
_FIXED = ("kind", "samples", "workers")


def _leaves(node, path=()):
    """Paths of every scalar leaf of a YAML document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def _mutations(draw, name, size):
    doc = yaml.safe_load(_PAIR_CONFIGS[name])
    doc["experiment"] = dict(_EXPERIMENT, samples=draw(st.sampled_from((64, 2, 1))))
    doc["stein"] = copy.deepcopy(_STEIN)
    _put(doc, ("target", "sweep", 0), size)
    leaves = [p for p in _leaves(doc) if p[-1] not in _FIXED]
    if draw(st.booleans()):
        _put(doc, draw(st.sampled_from(leaves)), draw(st.sampled_from(_VALUES)))
    return draw(st.sampled_from(runner.VERBS)), doc


@pytest.mark.parametrize("size", _SIZES)
@pytest.mark.parametrize("name", sorted(_PAIR_CONFIGS))
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_hold_for_mutated_configs(name, size, data):
    verb, doc = data.draw(_mutations(name, size))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code = main([verb, "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), (code, doc)


# the system kinds whose paths hold several components per step, and the
# target kinds that read such paths; the other targets read one symbol per step
_COMPONENT_SYSTEMS = {"product-chain", "doeblin"}
_COMPONENT_TARGETS = {"sync-cylinder", "geo-diagonal"}


def _sections(part):
    """One small valid section per kind, from the pair configs."""
    docs = (yaml.safe_load(body)[part] for body in _PAIR_CONFIGS.values())
    return {sec["kind"]: sec for sec in docs}


@pytest.mark.parametrize("system_kind, target_kind", itertools.product(SYSTEM_KINDS, TARGET_KINDS))
def test_every_kind_pair_keeps_the_exit_contract(system_kind, target_kind, tmp_path, capsys):
    systems, targets = _sections("system"), _sections("target")
    assert system_kind in systems and target_kind in targets, "a kind has no section"
    doc = {"experiment": dict(_EXPERIMENT, samples=64),
           "system": systems[system_kind], "target": targets[target_kind]}
    if target_kind != "geo-diagonal":  # a geo-diagonal target refuses a stein section
        doc["stein"] = _STEIN
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    mismatched = (system_kind in _COMPONENT_SYSTEMS) != (target_kind in _COMPONENT_TARGETS)
    for verb in ("simulate", "bound"):
        code = main([verb, "--config", str(cfg), "--out-dir", str(tmp_path / verb)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (verb, code, err)
        if mismatched:
            assert code == 3, (verb, err)
        if system_kind in _COMPONENT_SYSTEMS and target_kind not in _COMPONENT_TARGETS:
            assert "reads one symbol per step and cannot read paths of 2 components" in err
