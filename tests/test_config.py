"""Flat config parsing, overrides, and run manifests."""

import json
import platform

import numpy as np
import pytest

from pairsieve.config import (
    CONFIG_SCHEMA,
    ConfigError,
    TrainConfig,
    apply_overrides,
    corpus_spec_from,
    load_config,
    parse_config_text,
    train_config_from,
    write_manifest,
)


def test_schema_covers_both_dataclasses():
    assert "corpus_seed" in CONFIG_SCHEMA  # corpus seed is renamed
    assert "seed" in CONFIG_SCHEMA         # training seed keeps its name
    for key in ("n_train", "frac_noise", "lr", "batch_size", "attention_kind",
                "discriminator_enabled", "loss_kind", "tau"):
        assert key in CONFIG_SCHEMA, key


def test_parse_key_value_lines():
    values = parse_config_text(
        """
        # an experiment
        lr = 0.05
        batch_size = 8   # inline comment
        attention_kind = additive
        discriminator_enabled = false
        n_train = 100
        """
    )
    assert values == {
        "lr": 0.05, "batch_size": 8, "attention_kind": "additive",
        "discriminator_enabled": False, "n_train": 100,
    }


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("not_a_key = 3")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("lr = 0.1\nlr = 0.2")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("batch_size = sixty")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("discriminator_enabled = maybe")


def test_overrides_win_over_file_values():
    base = {"lr": 0.1, "batch_size": 8}
    out = apply_overrides(base, ["lr=0.5", "seed=3"])
    assert out == {"lr": 0.5, "batch_size": 8, "seed": 3}
    assert base["lr"] == 0.1  # input untouched
    with pytest.raises(ConfigError):
        apply_overrides({}, ["lr"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["bogus=1"])


def test_build_spec_and_config_with_seed_override():
    values = {"n_train": 50, "corpus_seed": 9, "lr": 0.2, "seed": 4}
    spec = corpus_spec_from(values)
    assert spec.n_train == 50 and spec.seed == 9
    spec = corpus_spec_from(values, seed_override=11)
    assert spec.seed == 11

    cfg = train_config_from(values)
    assert cfg.lr == 0.2 and cfg.seed == 4
    cfg = train_config_from(values, seed_override=12)
    assert cfg.seed == 12


def test_build_validates_ranges():
    with pytest.raises(ConfigError):
        train_config_from({"batch_size": 7})
    with pytest.raises(ConfigError):
        train_config_from({"tau": 0.0})
    with pytest.raises(ConfigError):
        train_config_from({"attention_kind": "bogus"})
    with pytest.raises(ConfigError):
        corpus_spec_from({"frac_clean": 0.9})  # fractions no longer sum to 1


def test_train_config_validate_direct():
    TrainConfig().validate()
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(freeze_epochs=0, joint_epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr_drop_factor=0.5).validate()


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("lr = 0.3\nn_f = 2\n")
    assert load_config(path) == {"lr": 0.3, "n_f": 2}


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, "train", {"lr": 0.1, "seed": 0},
                   {"metrics": "metrics.csv"}, "0.1.0")
    doc = json.loads(path.read_text())
    assert doc["format"] == "pairsieve-manifest" and doc["version"] == 1
    assert doc["command"] == "train"
    assert doc["config"] == {"lr": 0.1, "seed": 0}
    assert doc["artifacts"] == {"metrics": "metrics.csv"}
    assert doc["tool_version"] == "0.1.0"


def test_manifest_records_python_numpy_and_blas_versions(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, "train", {"lr": 0.1}, {"metrics": "metrics.csv"}, "0.1.0")
    env = json.loads(path.read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"


def test_manifest_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_manifest(path, "train", {"lr": 0.1}, {"metrics": "metrics.csv"}, "0.1.0")
    before = path.read_bytes()

    def dump_half(doc, fh, **kwargs):
        text = json.dumps(doc, **kwargs)
        fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        write_manifest(path, "train", {"lr": 0.2}, {"metrics": "metrics.csv"}, "0.1.0")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
