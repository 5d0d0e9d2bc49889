"""Flat key=value experiment configuration shared by every command.

One file can describe a whole experiment: corpus generation keys and
training keys live in a single namespace, and each command reads the
subset it needs. Typos are hard errors; every key must be known.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, CorpusSpec
from .files import read_text, write_atomically
from .model import ATTENTION_KINDS, INPUT_MODES, SAMPLER_KINDS

LOSS_KINDS = ("bce", "triplet")

MANIFEST_FORMAT = "pairsieve-manifest"
MANIFEST_VERSION = 1


class ConfigError(ValueError):
    """Unknown key, unparsable value, or out-of-range setting."""


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters and architecture switches."""

    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.001
    batch_size: int = 60
    n_f: int = 5
    freeze_epochs: int = 10
    joint_epochs: int = 20
    lr_drop_factor: float = 10.0
    bvf_count: int = 4
    tau: float = 1.0
    triplet_margin: float = 0.2
    d_emb: int = 32
    d_att: int = 0  # 0 means: use d_emb
    seed: int = 0
    discriminator_enabled: bool = True
    attention_kind: str = "dot"
    sampler_kind: str = "gumbel_hard"
    input_mode: str = "residual"
    loss_kind: str = "bce"

    def validate(self):
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.batch_size < 4 or self.batch_size % 2 != 0:
            raise ConfigError("batch_size must be even and >= 4")
        if self.n_f < 1:
            raise ConfigError("n_f must be >= 1")
        if self.freeze_epochs < 0 or self.joint_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.freeze_epochs + self.joint_epochs < 1:
            raise ConfigError("need at least one training epoch")
        if self.lr_drop_factor < 1:
            raise ConfigError("lr_drop_factor must be >= 1")
        if self.bvf_count < 1:
            raise ConfigError("bvf_count must be >= 1")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")
        if self.triplet_margin < 0:
            raise ConfigError("triplet_margin must be >= 0")
        if self.d_emb < 1:
            raise ConfigError("d_emb must be >= 1")
        if self.d_att < 0:
            raise ConfigError("d_att must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.attention_kind not in ATTENTION_KINDS:
            raise ConfigError(
                f"attention_kind must be one of {ATTENTION_KINDS}, got {self.attention_kind!r}"
            )
        if self.sampler_kind not in SAMPLER_KINDS:
            raise ConfigError(
                f"sampler_kind must be one of {SAMPLER_KINDS}, got {self.sampler_kind!r}"
            )
        if self.input_mode not in INPUT_MODES:
            raise ConfigError(
                f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )


def _schema():
    """key -> (python type, owning dataclass field) for every config key.

    The corpus generator's seed is exposed as corpus_seed so it cannot
    collide with the training seed.
    """
    schema = {}
    for f in dataclasses.fields(CorpusSpec):
        key = "corpus_seed" if f.name == "seed" else f.name
        schema[key] = (type(f.default), ("corpus", f.name))
    for f in dataclasses.fields(TrainConfig):
        schema[f.name] = (type(f.default), ("train", f.name))
    return schema


CONFIG_SCHEMA = _schema()


def parse_value(key, text):
    """Parse text as a value of config key key, of the type CONFIG_SCHEMA gives it.

    An unknown key is a KeyError: callers check the key first.
    """
    typ = CONFIG_SCHEMA[key][0]
    text = text.strip()
    if typ is bool:
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {text!r}")
    if typ is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {text!r}") from None
    if typ is float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: expected a finite number, got {text!r}")
        return value
    return text


def parse_config_text(text):
    """Parse `key = value` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = parse_value(key, val)
    return values


def load_config(path):
    return parse_config_text(read_text(path, ConfigError))


def apply_overrides(values, assignments):
    """Apply --set key=value pairs on top of file values (overrides win)."""
    out = dict(values)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        out[key] = parse_value(key, val)
    return out


def _build(values, which, cls, seed_override=None):
    kwargs = {}
    for key, (_, (owner, field_name)) in CONFIG_SCHEMA.items():
        if owner != which:
            continue
        if key in values:
            kwargs[field_name] = values[key]
    if seed_override is not None:
        kwargs["seed"] = int(seed_override)
    obj = cls(**kwargs)
    try:
        obj.validate()
    except CorpusError as exc:
        raise ConfigError(str(exc)) from exc
    return obj


def resolved_values(obj, owner):
    """Flatten a CorpusSpec ("corpus") or TrainConfig ("train") back into config keys."""
    return {key: getattr(obj, field_name)
            for key, (_, (own, field_name)) in CONFIG_SCHEMA.items() if own == owner}


def corpus_spec_from(values, seed_override=None):
    return _build(values, "corpus", CorpusSpec, seed_override)


def train_config_from(values, seed_override=None):
    return _build(values, "train", TrainConfig, seed_override)


def _environment():
    """The Python, numpy and BLAS versions this process runs on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def write_manifest(path, command, values, artifacts, tool_version):
    """Record how an artifact was produced; enough to rerun the command.

    The environment entry names the Python, numpy and BLAS versions, as
    other builds round differently. The file is replaced atomically
    (files.write_atomically).
    """
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "tool_version": tool_version,
        "command": command,
        "config": dict(sorted(values.items())),
        "artifacts": artifacts,
        "environment": _environment(),
    }
    with write_atomically(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
