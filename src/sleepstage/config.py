"""Run configuration: flat "dotted.key = value" text files plus CLI overrides.

The resolved configuration of every run is copied into the output directory
so any result can be reproduced from that single file.
"""
from __future__ import annotations

import os
from dataclasses import Field, dataclass, fields
from pathlib import Path

from .errors import ConfigError
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


# The model.*, train.* and augment.* keys are the fields of these dataclasses,
# parsed and formatted by the type of each field's default. The seed fields
# are not keys of their own: they follow the top-level `seed`.
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "augment": AugmentConfig}
_SEED_FIELDS = {"seed", "rng_seed"}
_PARSERS = {int: _to_int, float: _to_float, tuple: _to_int_tuple}
_FORMATTERS = {int: str, float: repr, tuple: lambda v: ",".join(map(str, v))}
_TOP_LEVEL_KEYS = {
    "dataset.root", "dataset.channel", "cache.dir", "output.dir",
    "split.kind", "split.k", "split.ratio", "split.fold", "seed", "augment.enabled",
}


def _section_keys(prefix: str) -> dict[str, Field]:
    return {f"{prefix}.{f.name}": f for f in fields(_SECTIONS[prefix])
            if f.name not in _SEED_FIELDS}


@dataclass(frozen=True)
class RunConfig:
    dataset_root: Path
    output_dir: Path
    cache_dir: Path
    channel: str = DEFAULT_CHANNEL
    split_kind: str = "kfold"        # "kfold" | "holdout"
    split_k: int = 5
    split_ratio: float = 0.8
    fold: int | None = None          # restrict k-fold training to one fold
    seed: int = 0
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    augment: AugmentConfig = AugmentConfig()
    augment_enabled: bool = True

    def resolved(self) -> dict[str, str]:
        values = {
            "dataset.root": str(self.dataset_root),
            "dataset.channel": self.channel,
            "cache.dir": str(self.cache_dir),
            "output.dir": str(self.output_dir),
            "split.kind": self.split_kind,
            "split.k": str(self.split_k),
            "split.ratio": repr(self.split_ratio),
            "seed": str(self.seed),
            "augment.enabled": str(self.augment_enabled).lower(),
        }
        for prefix in _SECTIONS:
            section = getattr(self, prefix)
            for key, f in _section_keys(prefix).items():
                values[key] = _FORMATTERS[type(f.default)](getattr(section, f.name))
        if self.fold is not None:
            values["split.fold"] = str(self.fold)
        return values


def _build_section(prefix: str, values: dict[str, str]):
    kwargs = {}
    for f in fields(_SECTIONS[prefix]):
        key = "seed" if f.name in _SEED_FIELDS else f"{prefix}.{f.name}"
        if key in values:
            kwargs[f.name] = _PARSERS[type(f.default)](key, values[key])
    return _SECTIONS[prefix](**kwargs)


def build_run_config(file_values: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge config file values and CLI overrides into a validated RunConfig."""
    values: dict[str, str] = {}
    values.update(file_values or {})
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})

    known = _TOP_LEVEL_KEYS.union(*(_section_keys(p) for p in _SECTIONS))
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    root = values.get("dataset.root") or os.environ.get(DATASET_ROOT_ENV)
    if not root:
        raise ConfigError(
            f"dataset.root missing (set it in the config or via ${DATASET_ROOT_ENV})")
    dataset_root = Path(root)
    output_dir = Path(values.get("output.dir", "out"))
    cache_dir = Path(values["cache.dir"]) if "cache.dir" in values else dataset_root / "cache"

    split_kind = values.get("split.kind", "kfold")
    if split_kind not in ("kfold", "holdout"):
        raise ConfigError(f"split.kind must be kfold or holdout, got {split_kind!r}")

    try:
        sections = {prefix: _build_section(prefix, values) for prefix in _SECTIONS}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    enabled_text = values.get("augment.enabled", "true").lower()
    if enabled_text not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError(f"augment.enabled: expected boolean, got {enabled_text!r}")

    split_k = _to_int("split.k", values.get("split.k", "5"))
    if split_k < 1:
        raise ConfigError(f"split.k must be >= 1, got {split_k}")
    split_ratio = _to_float("split.ratio", values.get("split.ratio", "0.8"))
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split.ratio must lie in (0, 1), got {split_ratio!r}")

    return RunConfig(
        dataset_root=dataset_root,
        output_dir=output_dir,
        cache_dir=cache_dir,
        channel=values.get("dataset.channel", DEFAULT_CHANNEL),
        split_kind=split_kind,
        split_k=split_k,
        split_ratio=split_ratio,
        fold=_to_int("split.fold", values["split.fold"]) if "split.fold" in values else None,
        seed=_to_int("seed", values.get("seed", "0")),
        augment_enabled=enabled_text in ("true", "1", "yes"),
        **sections,
    )


def load_run_config(path: str | Path | None,
                    overrides: dict[str, str] | None = None) -> RunConfig:
    file_values = None
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file {p} does not exist")
        file_values = parse_kv_text(p.read_text(), source=str(p))
    return build_run_config(file_values, overrides)
