"""Run configuration: flat "dotted.key = value" text files plus CLI overrides.

The resolved configuration of every run is copied into the output directory
so any result can be reproduced from that single file.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .evaluation import SplitConfig
from .model import ModelConfig
from .preprocess import AugmentConfig
from .training import TrainConfig

DATASET_ROOT_ENV = "SLEEPSTAGE_DATASET_ROOT"
DEFAULT_CHANNEL = "EEG Fpz-Cz"


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def format_kv(values: dict[str, str]) -> str:
    return "".join(f"{k} = {values[k]}\n" for k in sorted(values))


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}") from None


def _to_int_tuple(key: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in value.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {value!r}") from None


def _to_path(key: str, value: str) -> Path:
    if "\0" in value:  # no file system takes it
        raise ConfigError(f"{key}: a path cannot hold a NUL character")
    return Path(value)


# The model.*, train.*, augment.* and split.* keys are the fields of these
# dataclasses, parsed and formatted by the type of each field's default; a
# None default marks an optional integer, left out while unset. The seed
# fields are not keys of their own: they follow the top-level `seed`.
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "augment": AugmentConfig,
             "split": SplitConfig}
_SEED_FIELDS = {"seed", "rng_seed"}
_PARSERS = {int: _to_int, float: _to_float, tuple: _to_int_tuple, Path: _to_path,
            str: lambda key, value: value, type(None): _to_int}
_FORMATTERS = {int: str, float: repr, tuple: lambda v: ",".join(map(str, v)),
               str: str, type(None): str}
# The top-level keys and the RunConfig field each one sets, parsed by the
# field's type and formatted with str().
_TOP_LEVEL = {"dataset.root": "dataset_root", "dataset.channel": "channel",
              "cache.dir": "cache_dir", "output.dir": "output_dir", "seed": "seed"}


def section_fields(prefix: str) -> list[str]:
    """The fields of section `prefix` that are keys of their own."""
    return [f.name for f in fields(_SECTIONS[prefix]) if f.name not in _SEED_FIELDS]


def format_section(prefix: str, section, names) -> dict[str, str]:
    """`prefix.name` -> text for each named field that is set."""
    return {f"{prefix}.{f.name}": _FORMATTERS[type(f.default)](getattr(section, f.name))
            for f in fields(section) if f.name in names and getattr(section, f.name) is not None}


def build_section(prefix: str, values: dict[str, str], seed_key: str = "seed"):
    """The section from the `prefix.<field>` values present; a seed field reads `seed_key`."""
    kwargs = {}
    for f in fields(_SECTIONS[prefix]):
        key = seed_key if f.name in _SEED_FIELDS else f"{prefix}.{f.name}"
        if key in values:
            kwargs[f.name] = _PARSERS[type(f.default)](key, values[key])
    try:
        return _SECTIONS[prefix](**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    dataset_root: Path
    output_dir: Path
    cache_dir: Path
    channel: str = DEFAULT_CHANNEL
    seed: int = 0
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    augment: AugmentConfig = AugmentConfig()
    split: SplitConfig = SplitConfig()

    def resolved(self) -> dict[str, str]:
        values = {key: str(getattr(self, name)) for key, name in _TOP_LEVEL.items()}
        for prefix in _SECTIONS:
            values.update(format_section(prefix, getattr(self, prefix), section_fields(prefix)))
        return values


def build_run_config(file_values: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge config file values and CLI overrides into a validated RunConfig."""
    values: dict[str, str] = {}
    values.update(file_values or {})
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})

    known = set(_TOP_LEVEL) | {f"{p}.{name}" for p in _SECTIONS for name in section_fields(p)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    types = get_type_hints(RunConfig)
    top = {name: _PARSERS[types[name]](key, values[key])
           for key, name in _TOP_LEVEL.items() if key in values}
    if not values.get("dataset.root"):
        root = os.environ.get(DATASET_ROOT_ENV)
        if not root:
            raise ConfigError(
                f"dataset.root missing (set it in the config or via ${DATASET_ROOT_ENV})")
        top["dataset_root"] = Path(root)
    top.setdefault("output_dir", Path("out"))
    top.setdefault("cache_dir", top["dataset_root"] / "cache")
    sections = {prefix: build_section(prefix, values) for prefix in _SECTIONS}
    return RunConfig(**top, **sections)


def load_run_config(path: str | Path | None,
                    overrides: dict[str, str] | None = None) -> RunConfig:
    file_values = None
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file {p} does not exist")
        try:
            text = p.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from None
        file_values = parse_kv_text(text, source=str(p))
    return build_run_config(file_values, overrides)
