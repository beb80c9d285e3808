"""Flat key=value run configuration: defaults, parsing, validation, and the
builders that turn a parsed config into the typed module configs.

Every key is a field of a config dataclass (DatasetSpec, TrainConfig,
ProbeConfig, RetrievalConfig), spelled `section.field` as
formats.flatten_config names it; its default and its parser follow from the
field's default value. Unknown keys are an error. The canonical rendering
(sorted key=value lines) is what checkpoint headers embed, and re-parsing plus
re-rendering the echo reproduces it byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import fields, is_dataclass
from pathlib import Path

from .evaluate import ProbeConfig, RetrievalConfig
from .formats import config_key, flatten_config
from .synth import DatasetSpec
from .trainer import TrainConfig

CONFIG_PATH_ENV = "VIDSEG_CONFIG_PATH"

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _parse_bool(text):
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got '{text}'") from None


def _parse_int_tuple(text):
    values = tuple(int(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("expected a comma-separated list of integers, got none")
    return values


# the default of every config dataclass; the train one holds the dataset's
_TRAIN, _PROBE, _RETRIEVAL = TrainConfig(dataset=DatasetSpec()), ProbeConfig(), RetrievalConfig()
DEFAULTS = {**flatten_config(_TRAIN), **flatten_config(_PROBE), **flatten_config(_RETRIEVAL)}
_PARSE_BY_TYPE = {bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_int_tuple}
_PARSERS = {key: _PARSE_BY_TYPE[type(value)] for key, value in DEFAULTS.items()}
# keys that older checkpoint echoes carry and nothing reads any more
_RETIRED_KEYS = {"probe.seed", "train.frame_source", "train.share_tuple_augment",
                 "train.order_positive_uses_key", "train.normalize_order_embeddings"}


def _typed(key, text):
    """The value of `key` parsed from text; a ValueError names the key."""
    if key not in _PARSERS:
        raise ValueError(f"unknown config key '{key}'")
    try:
        return _PARSERS[key](text.strip())
    except ValueError as err:
        raise ValueError(f"bad value for '{key}': {err}") from None


def parse_config_text(text, source=None):
    """Parse key=value lines (blank lines and # comments allowed) into a
    complete flat config with defaults filled in. A key given on two lines is
    an error naming both. Errors start `{source}:{line}: ` when the text
    came from the file source, else `line {line}: `."""
    flat = dict(DEFAULTS)
    key_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}" if source is not None else f"line {lineno}"
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{where}: expected key=value, got '{raw}'")
        first = key_lines.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"{where}: config key '{key}' repeats line {first}")
        try:
            flat[key] = _typed(key, value)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return flat


def resolve_config_path(path):
    """The path itself, or the same name under $VIDSEG_CONFIG_PATH."""
    candidate = Path(path)
    if candidate.exists():
        return candidate
    search = os.environ.get(CONFIG_PATH_ENV)
    if search:
        fallback = Path(search) / path
        if fallback.exists():
            return fallback
    raise FileNotFoundError(f"config file '{path}' not found"
                            + (f" (also tried ${CONFIG_PATH_ENV})" if search else ""))


def load_config(path):
    """The flat config of a file, found by resolve_config_path, with every
    section built and validated; parse and validation errors name the
    resolved path."""
    resolved = resolve_config_path(path)
    flat = parse_config_text(resolved.read_text(), source=resolved)
    try:
        build_configs(flat)
    except ValueError as err:
        raise ValueError(f"{resolved}: {err}") from None
    return flat


def parse_flat_strings(flat_strings):
    """Re-typed flat config from string values (e.g. a checkpoint echo).
    Retired keys, which older echoes still carry, are dropped."""
    flat = dict(DEFAULTS)
    for key, value in flat_strings.items():
        if key not in _RETIRED_KEYS:
            flat[key] = _typed(key, str(value))
    return flat


def _build(default, flat):
    """A config dataclass of default's type with every field read from its
    key in flat; a field holding a config dataclass is rebuilt the same way."""
    values = {}
    for field in fields(default):
        value = getattr(default, field.name)
        values[field.name] = (_build(value, flat) if is_dataclass(value)
                              else flat[config_key(default, field)])
    return type(default)(**values)


def build_train_config(flat) -> TrainConfig:
    return _build(_TRAIN, flat)


def build_probe_config(flat) -> ProbeConfig:
    return _build(_PROBE, flat)


def build_retrieval_config(flat) -> RetrievalConfig:
    return _build(_RETRIEVAL, flat)


def build_configs(flat):
    """The (train, probe, retrieval) configs of a flat config, each
    validated; an error names the key at fault."""
    train = build_train_config(flat)
    train.validate()
    return train, build_probe_config(flat), build_retrieval_config(flat)
