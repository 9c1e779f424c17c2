import copy
import re

import pytest

from visitlab import (
    ConfigError,
    CylinderTarget,
    HouseOfCardsSpec,
    IntervalMapSpec,
    RegenerativeSpec,
    config_from_mapping,
    load_config,
)

BASE = {
    "experiment": {"t": 2.0, "samples": 1000, "seed": 7},
    "system": {"kind": "house-of-cards", "reset": 0.5},
    "target": {"kind": "run-length", "level": 1, "sweep": [4, 8]},
}


def _doc(**updates):
    doc = copy.deepcopy(BASE)
    for key, val in updates.items():
        doc[key] = val
    return doc


def test_minimal_document_round_trip():
    cfg = config_from_mapping(_doc())
    assert cfg.t == 2.0 and cfg.samples == 1000 and cfg.seed == 7
    assert cfg.normalized["system"]["kind"] == "house-of-cards"
    assert cfg.sweep == (4, 8)
    system = cfg.build_system()
    assert isinstance(system, HouseOfCardsSpec)
    target = cfg.build_target(4)
    assert target.n == 4 and target.level == 1


def test_yaml_file_and_overrides(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "experiment: {t: 2.0, samples: 1000, seed: 7}\n"
        "system: {kind: house-of-cards, reset: 0.5}\n"
        "target: {kind: run-length, level: 1, sweep: [4]}\n"
    )
    cfg = load_config(path, {"seed": 99, "samples": 50, "workers": 3})
    assert cfg.seed == 99 and cfg.samples == 50 and cfg.workers == 3
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "broken.yaml"
    bad.write_text("experiment: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_hash_ignores_execution_plumbing():
    plain = config_from_mapping(_doc())
    jobs = config_from_mapping(_doc(), {"workers": 8, "out_dir": "elsewhere"})
    assert plain.canonical_hash() == jobs.canonical_hash()
    reseeded = config_from_mapping(_doc(), {"seed": 8})
    assert plain.canonical_hash() != reseeded.canonical_hash()


def test_hash_stable_under_key_order():
    doc = _doc()
    shuffled = {
        "target": dict(reversed(list(doc["target"].items()))),
        "system": doc["system"],
        "experiment": dict(reversed(list(doc["experiment"].items()))),
    }
    assert (
        config_from_mapping(doc).canonical_hash()
        == config_from_mapping(shuffled).canonical_hash()
    )


def test_rational_strings_reach_exact_arithmetic():
    doc = _doc(
        system={
            "kind": "interval-map",
            "breaks": ["0", "1/3", "2/3", "1"],
            "slopes": ["3", "-2", "3"],
            "intercepts": ["0", "5/3", "-2"],
        },
        target={"kind": "cylinder", "word_cycle": [0], "sweep": [3]},
    )
    system = config_from_mapping(doc).build_system()
    assert isinstance(system, IntervalMapSpec)
    from fractions import Fraction

    assert system.breaks[1] == Fraction(1, 3)
    assert system.intercepts[1] == Fraction(5, 3)


def test_word_cycle_expansion_and_exclusivity():
    doc = _doc(
        system={"kind": "markov", "matrix": [[0.4, 0.6], [0.2, 0.8]]},
        target={"kind": "cylinder", "word_cycle": [0, 1], "sweep": [5]},
    )
    target = config_from_mapping(doc).build_target(5)
    assert isinstance(target, CylinderTarget)
    assert target.word == (0, 1, 0, 1, 0)
    both = _doc(
        system={"kind": "markov", "matrix": [[0.4, 0.6], [0.2, 0.8]]},
        target={"kind": "cylinder", "word": [0, 1], "word_cycle": [0], "sweep": [2]},
    )
    with pytest.raises(ConfigError):
        config_from_mapping(both)


def test_explicit_word_is_a_prefix_family():
    doc = _doc(
        system={"kind": "markov", "matrix": [[0.4, 0.6], [0.2, 0.8]]},
        target={"kind": "cylinder", "word": [0, 1, 1, 0], "sweep": [2, 4]},
    )
    cfg = config_from_mapping(doc)
    assert cfg.build_target(2).word == (0, 1)
    with pytest.raises(ConfigError):
        cfg.build_target(5)


def test_shared_geometric_truncation():
    doc = _doc(
        system={
            "kind": "regenerative",
            "symbols": [5, 6, 7],
            "probs": [0.25, 0.25, 0.5],
            "lengths": {"model": "shared-geometric", "rate": 0.5, "tail": 1e-12},
        },
        target={"kind": "half-line", "sweep": [6]},
    )
    system = config_from_mapping(doc).build_system()
    assert isinstance(system, RegenerativeSpec)
    assert system.length_model == "shared"
    assert system.shared_q.size >= 40
    assert abs(system.mean_block() - 2.0) < 1e-9


def test_validation_failures_name_the_path():
    with pytest.raises(ConfigError, match="system.kind"):
        config_from_mapping(_doc(system={"kind": "teapot"}))
    with pytest.raises(ConfigError, match="experiment.t"):
        config_from_mapping(_doc(experiment={"t": -1.0, "samples": 10, "seed": 0}))
    with pytest.raises(ConfigError, match="sweep"):
        config_from_mapping(
            _doc(target={"kind": "run-length", "level": 1, "sweep": []})
        )
    with pytest.raises(ConfigError, match="sweep"):
        config_from_mapping(
            _doc(target={"kind": "run-length", "level": 1, "sweep": [0]})
        )


def test_cylinder_kinds_check_their_alphabets(tmp_path, capsys):
    from visitlab.cli import main

    signs = {"kind": "sign-product", "plus_prob": 0.3}
    with pytest.raises(ConfigError, match=re.escape(
        "target: invalid cylinder parameters: cylinder word must be nonempty over nonnegative symbols"
    )):
        config_from_mapping(_doc(system=signs, target={"kind": "cylinder", "word": [1, -1], "sweep": [2]}))
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(
        "system: {kind: sign-product, plus_prob: 0.3}\n"
        "target: {kind: sign-cylinder, word: [0, 1], sweep: [2]}\n"
    )
    assert main(["predict", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "configuration error: target: invalid sign-cylinder parameters: "
        "sign word must be nonempty over {-1, +1}\n"
    )


@pytest.mark.parametrize(
    "doc, path",
    [
        (_doc(experiment={"t": 2.0, "samples": 1000, "seed": True}), "experiment.seed"),
        (_doc(experiment={"t": 2.0, "samples": True, "seed": 7}), "experiment.samples"),
        (_doc(system={"kind": "sign-product", "plus_prob": False},
              target={"kind": "sign-cylinder", "word_cycle": [1], "sweep": [4]}), "system.plus_prob"),
        (_doc(target={"kind": "run-length", "level": 1, "sweep": [4, True]}), "target.sweep[1]"),
    ],
)
def test_yaml_booleans_are_not_numbers(doc, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_mapping(doc)


def test_yaml_boolean_file_exits_three(tmp_path, capsys):
    from visitlab.cli import main

    cfg = tmp_path / "bool.yaml"
    cfg.write_text(
        "experiment: {t: 2.0, samples: 100, seed: yes}\n"
        "system: {kind: house-of-cards, reset: 0.5}\n"
        "target: {kind: run-length, level: 1, sweep: [4]}\n"
    )
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "experiment.seed" in err and "Traceback" not in err


def test_geo_sweep_takes_floats_others_ints():
    doc = _doc(
        system={"kind": "doeblin", "eta": 0.5},
        target={"kind": "geo-diagonal", "sweep": [0.02, 0.01]},
    )
    cfg = config_from_mapping(doc)
    assert cfg.sweep == (0.02, 0.01)
    bad = _doc(
        system={"kind": "doeblin", "eta": 0.5},
        target={"kind": "geo-diagonal", "sweep": [2]},
    )
    with pytest.raises(ConfigError):
        config_from_mapping(bad)


def test_target_sizes_are_bounded():
    # a cylinder of 10**300 letters would be built letter by letter at load time
    word = {"kind": "cylinder", "word_cycle": [1]}
    chain = {"kind": "markov", "matrix": [[0.5, 0.5], [0.3, 0.7]]}
    assert config_from_mapping(_doc(system=chain, target={**word, "sweep": [1_000_000]})).sweep == (
        1_000_000,
    )
    with pytest.raises(ConfigError, match=r"^target\.sweep: target sizes above 1,000,000"):
        config_from_mapping(_doc(system=chain, target={**word, "sweep": [1e300]}))
    profile = {"profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5}}
    with pytest.raises(ConfigError, match=r"^stein\.sweep: target sizes above 1,000,000"):
        config_from_mapping(_doc(stein={**profile, "sweep": [4, 1_000_001]}))


def test_system_construction_errors_become_config_errors():
    doc = _doc(system={"kind": "house-of-cards", "reset": 1.7})
    with pytest.raises(ConfigError):
        config_from_mapping(doc)
    # eager validation covers every sweep value up front
    doc = _doc(
        system={"kind": "markov", "matrix": [[0.4, 0.6], [0.2, 0.8]]},
        target={"kind": "cylinder", "word": [0, 1], "sweep": [2, 9]},
    )
    with pytest.raises(ConfigError):
        config_from_mapping(doc)


def test_stein_section_window_policy():
    doc = _doc(
        stein={
            "profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5},
            "mode": "phi",
            "window_policy": "half",
        }
    )
    cfg = config_from_mapping(doc)
    assert cfg.stein is not None
    assert cfg.stein.window_for(40) == 20
    fixed = config_from_mapping(
        _doc(
            stein={
                "profile": {"kind": "geometric", "scale": 1.0, "rate": 0.5},
                "mode": "psi",
                "window_policy": 7,
            }
        )
    )
    assert fixed.stein.window_for(40) == 7
    with pytest.raises(ConfigError):
        config_from_mapping(_doc(stein={"profile": {"kind": "nope"}}))


def test_polynomial_profile_exits_three(tmp_path, capsys):
    from visitlab.cli import main

    cfg = tmp_path / "poly.yaml"
    cfg.write_text(
        "experiment: {t: 2.0, samples: 100, seed: 7}\n"
        "system: {kind: house-of-cards, reset: 0.5}\n"
        "target: {kind: run-length, level: 1, sweep: [4]}\n"
        "stein: {profile: {kind: polynomial, scale: 1.0, rate: 2.0}}\n"
    )
    assert main(["bound", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: stein.profile.kind: unknown profile kind 'polynomial'")


def test_defaults_are_recorded():
    cfg = config_from_mapping(_doc())
    assert cfg.workers == 1
    assert cfg.tolerance == 0.03
    assert cfg.out_dir is None
    assert cfg.stein is None
