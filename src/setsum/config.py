"""Run configuration files: UTF-8 ``key=value`` lines, ``#`` comments, dotted sections.

Every key has a documented default except ``output_dir`` and
``data.image_extent``; the fully resolved configuration (all defaults
filled in) is echoed next to a run's outputs, and feeding that echo back
in reproduces the run exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .augment import AugmentationConfig
from .data import LABEL_KINDS, SyntheticConfig
from .regressor import LOSS_KINDS, ArchitectureConfig
from .trainer import METHODS, TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "parse_config_file", "config_text"]


class ConfigError(Exception):
    """A configuration file could not be parsed or resolved."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


# -- raw parsing -------------------------------------------------------------

def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})", lineno)
        entries[key] = (value, lineno)
    return entries


def _bool(v: str) -> bool:
    if v not in ("true", "false"):
        raise ValueError(f"expected true or false, got {v!r}")
    return v == "true"


def _int_tuple(v: str) -> tuple[int, ...]:
    if not v:
        return ()
    return tuple(int(x) for x in v.split(","))


def _float_pair(v: str) -> tuple[float, float]:
    parts = v.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {v!r}")
    return float(parts[0]), float(parts[1])


def _int_pair(v: str) -> tuple[int, int]:
    parts = v.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {v!r}")
    return int(parts[0]), int(parts[1])


def _pair_list(v: str) -> tuple[tuple[int, int], ...]:
    if not v:
        return ()
    out = []
    for item in v.split(","):
        a, _, b = item.partition(":")
        out.append((int(a), int(b)))
    return tuple(out)


def _str_tuple(v: str) -> tuple[str, ...]:
    if not v:
        return ()
    return tuple(x.strip() for x in v.split(","))


def _optional(fn: Callable):
    return lambda v: None if v == "none" else fn(v)


_MISSING = object()

# key -> (parser, default); _MISSING marks required keys
_SCHEMA: dict[str, tuple[Callable, object]] = {
    "seed": (int, 0),
    "output_dir": (str, _MISSING),
    "data.image_extent": (_int_tuple, _MISSING),
    "data.dims": (int, 2),
    "data.blob_count_range": (_int_pair, (0, 8)),
    "data.blob_sigma_range": (_float_pair, (0.6, 0.9)),
    "data.intensity_range": (_float_pair, (0.8, 1.2)),
    "data.noise_sigma": (float, 0.05),
    "data.volume_threshold": (float, 0.3),
    "data.num_train": (int, 30),
    "data.num_val": (int, 5),
    "data.num_test": (int, 100),
    "data.crop_extent": (_optional(_int_tuple), None),
    "data.rescale": (_bool, True),
    "data.label_kind": (str, "count"),
    "data.manifest": (_optional(str), None),
    "arch.conv_blocks": (_pair_list, ((8, 3), (16, 3), (24, 3), (32, 3))),
    "arch.skip_connections": (_pair_list, ((1, 3),)),
    "arch.dropout_rate": (_optional(float), None),
    "augment.enabled": (_bool, True),
    "augment.flip_axes": (lambda v: v if v == "all" else _int_tuple(v), "all"),
    "augment.rotation_range": (float, 0.2),
    "augment.translation_range": (int, 2),
    "train.method": (str, "setsum"),
    "train.epochs": (int, 150),
    "train.n": (int, 4),
    "train.p": (float, 0.1),
    "train.loss": (str, "mse"),
    "train.batch_size": (_optional(int), None),
    "train.init_model": (_optional(str), None),
    "curve.sizes": (_int_tuple, (12, 24)),
    "curve.methods": (_str_tuple, ("setsum", "baseline")),
    "curve.num_seeds": (int, 5),
    "curve.epochs": (_optional(int), None),
}


@dataclass
class RunConfig:
    """Fully resolved configuration for every CLI command."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # -- derived module configs -------------------------------------------

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def output_dir(self) -> str:
        return self.values["output_dir"]

    @property
    def input_extent(self) -> tuple[int, ...]:
        crop = self.values["data.crop_extent"]
        return crop if crop is not None else self.values["data.image_extent"]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return (1,) + tuple(self.input_extent)

    def synthetic_config(self) -> SyntheticConfig:
        v = self.values
        return SyntheticConfig(
            image_extent=tuple(v["data.image_extent"]),
            blob_count_range=v["data.blob_count_range"],
            blob_sigma_range=v["data.blob_sigma_range"],
            intensity_range=v["data.intensity_range"],
            noise_sigma=v["data.noise_sigma"],
            volume_threshold=v["data.volume_threshold"],
            seed=v["seed"],
        )

    def architecture(self, model_seed: int) -> ArchitectureConfig:
        v = self.values
        return ArchitectureConfig(
            input_shape=self.input_shape,
            conv_blocks=v["arch.conv_blocks"],
            skip_connections=v["arch.skip_connections"],
            dropout_rate=v["arch.dropout_rate"],
            seed=model_seed,
        )

    def augmentation(self) -> Optional[AugmentationConfig]:
        v = self.values
        if not v["augment.enabled"]:
            return None
        axes = v["augment.flip_axes"]
        if axes == "all":
            axes = tuple(range(v["data.dims"]))
        return AugmentationConfig(
            flip_axes=tuple(axes),
            rotation_range_radians=v["augment.rotation_range"],
            translation_range_voxels=v["augment.translation_range"],
        )

    def train_config(self, epochs: int | None = None) -> TrainConfig:
        v = self.values
        method = v["train.method"]
        batch = v["train.batch_size"]
        if batch is None:
            # _validate has already tied an explicit setsum batch size to train.n
            batch = v["train.n"] if method == "setsum" else 4
        return TrainConfig(
            epochs=v["train.epochs"] if epochs is None else epochs,
            method=method,
            n=v["train.n"],
            p=v["train.p"],
            loss_kind=v["train.loss"],
            batch_size=batch,
            augmentation=self.augmentation(),
        )


def parse_config_text(text: str, seed_override: int | None = None) -> RunConfig:
    entries = _parse_lines(text)
    unknown = [k for k in entries if k not in _SCHEMA]
    if unknown:
        key = unknown[0]
        raise ConfigError(f"unknown key {key!r}", entries[key][1])
    values: dict = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in entries:
            raw, lineno = entries[key]
            try:
                values[key] = parser(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}", lineno) from None
        elif default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default
    if seed_override is not None:
        values["seed"] = seed_override
    _validate(values)
    return RunConfig(values)


def parse_config_file(path, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, seed_override)


def _validate(values: dict) -> None:
    if values["data.label_kind"] not in LABEL_KINDS:
        raise ConfigError(f"data.label_kind must be one of {LABEL_KINDS}, "
                          f"got {values['data.label_kind']!r}")
    if values["train.method"] not in METHODS:
        raise ConfigError(f"train.method must be one of {METHODS}, "
                          f"got {values['train.method']!r}")
    for method in values["curve.methods"]:
        if method not in METHODS:
            raise ConfigError(f"curve.methods contains unknown method {method!r}")
    if values["train.loss"] not in LOSS_KINDS:
        raise ConfigError(f"train.loss must be one of {LOSS_KINDS}, got {values['train.loss']!r}")
    dims = values["data.dims"]
    if len(values["data.image_extent"]) != dims:
        raise ConfigError(f"data.image_extent {values['data.image_extent']} does not "
                          f"match data.dims={dims}")
    crop = values["data.crop_extent"]
    if crop is not None and len(crop) != dims:
        raise ConfigError(f"data.crop_extent {crop} does not match data.dims={dims}")
    axes = values["augment.flip_axes"]
    if axes != "all" and any(not 0 <= a < dims for a in axes):
        raise ConfigError(f"augment.flip_axes {axes} out of range for dims={dims}")
    batch = values["train.batch_size"]
    if (values["train.method"] == "setsum" and batch is not None
            and batch != values["train.n"]):
        raise ConfigError(f"train.batch_size={batch} conflicts with "
                          f"train.n={values['train.n']}: the setsum method ties "
                          f"batch size to branch count")


def _format_value(key: str, value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(str(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(config: RunConfig) -> str:
    """Canonical echo of a resolved configuration; parsing it back is the identity."""
    lines = [f"{key}={_format_value(key, config.values[key])}" for key in _SCHEMA]
    return "\n".join(lines) + "\n"
