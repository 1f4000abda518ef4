"""Run configuration files: UTF-8 ``key=value`` lines, ``#`` comments, dotted sections.

Every key has a documented default except ``output_dir`` and
``data.image_extent``; the fully resolved configuration (all defaults
filled in) is echoed next to a run's outputs, and feeding that echo back
in reproduces the run exactly.

Values use the syntax shared with the model file (see :mod:`setsum.data`;
floats must be finite).  The module configs are built here, once, so each
value they check is rejected before any command writes, and so is a curve
grid that fails :func:`setsum.trainer.check_curve_grid` or a ``curve.methods``
entry that ``TrainConfig`` rejects.  This module checks what ties keys
together; the only single keys it checks are ``data.label_kind`` and the
split sizes ``data.num_*``, which no module config built at parse holds.
``train.batch_size`` is the baseline and mixup batch; unset, it is
``train.n``, whatever ``train.method`` says, so a curve job's batch does
not depend on the method it replaces.  ``augment.flip_axes=all`` flips
every axis of ``data.image_extent``.  ``augment.translation_range`` must be
below each stored extent (the crop's, if any), so no shift empties an image.
The ``augment.*`` ranges are checked whatever ``augment.enabled`` says;
with ``augment.enabled=false`` training gets the identity
``AugmentationConfig()``.  A curve job trains with ``train.*`` and its
method.  A key that fills a field of
``SyntheticConfig``, ``ArchitectureConfig`` or ``TrainConfig`` takes that
field's default from the class; the ``seed``, ``train.epochs`` and
``augment.*`` defaults are the CLI's own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .augment import AugmentationConfig
from .data import (LABEL_KINDS, SyntheticConfig, format_value, parse_bool, parse_float,
                   parse_key_values, parse_list, parse_optional, parse_pair, parse_pair_list)
from .regressor import ArchitectureConfig
from .trainer import TrainConfig, check_curve_grid

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "parse_config_file", "config_text"]


class ConfigError(ValueError):
    """A configuration file could not be parsed or resolved."""


_MISSING = object()

# key -> (parser, default); _MISSING marks required keys
_SCHEMA: dict[str, tuple[Callable, object]] = {
    "seed": (int, 0),
    "output_dir": (str, _MISSING),
    "data.image_extent": (parse_list(int), _MISSING),
    "data.dims": (int, 2),
    "data.blob_count_range": (parse_pair(int), SyntheticConfig.blob_count_range),
    "data.blob_sigma_range": (parse_pair(parse_float), SyntheticConfig.blob_sigma_range),
    "data.intensity_range": (parse_pair(parse_float), SyntheticConfig.intensity_range),
    "data.noise_sigma": (parse_float, SyntheticConfig.noise_sigma),
    "data.volume_threshold": (parse_float, SyntheticConfig.volume_threshold),
    "data.num_train": (int, 30),
    "data.num_val": (int, 5),
    "data.num_test": (int, 100),
    "data.crop_extent": (parse_optional(parse_list(int)), None),
    "data.rescale": (parse_bool, True),
    "data.label_kind": (str, "count"),
    "data.manifest": (parse_optional(str), None),
    "arch.conv_blocks": (parse_pair_list, ArchitectureConfig.conv_blocks),
    "arch.skip_connections": (parse_pair_list, ArchitectureConfig.skip_connections),
    "arch.dropout_rate": (parse_optional(parse_float), ArchitectureConfig.dropout_rate),
    "augment.enabled": (parse_bool, True),
    "augment.flip_axes": (lambda v: v if v == "all" else parse_list(int)(v), "all"),
    "augment.rotation_range": (parse_float, 0.2),
    "augment.translation_range": (int, 2),
    "train.method": (str, TrainConfig.method),
    "train.epochs": (int, 150),
    "train.n": (int, TrainConfig.n),
    "train.p": (parse_float, TrainConfig.p),
    "train.loss": (str, TrainConfig.loss_kind),
    "train.batch_size": (parse_optional(int), TrainConfig.batch_size),
    "train.init_model": (parse_optional(str), None),
    "curve.sizes": (parse_list(int), (12, 24)),
    "curve.methods": (parse_list(str.strip), ("setsum", "baseline")),
    "curve.num_seeds": (int, 5),
}


@dataclass
class RunConfig:
    """Fully resolved configuration for every CLI command: the parsed value of
    every key, and the module configs built from them at parse."""

    values: dict
    synthetic: SyntheticConfig
    arch: ArchitectureConfig
    train: TrainConfig

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def synthetic_config(self) -> SyntheticConfig:
        return self.synthetic

    def architecture(self, model_seed: int) -> ArchitectureConfig:
        return replace(self.arch, seed=model_seed)

    def train_config(self) -> TrainConfig:
        return self.train


def _build(section: str, make: Callable, **kwargs):
    """``make(**kwargs)``; its ValueError becomes a ConfigError naming ``section``."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def parse_config_text(text: str, seed_override: int | None = None) -> RunConfig:
    try:
        entries = parse_key_values(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    unknown = [k for k in entries if k not in _SCHEMA]
    if unknown:
        key = unknown[0]
        raise ConfigError(f"line {entries[key][1]}: unknown key {key!r}")
    v: dict = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in entries:
            raw, lineno = entries[key]
            try:
                v[key] = parser(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        elif default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        else:
            v[key] = default
    if seed_override is not None:
        v["seed"] = seed_override
    _validate(v)
    synthetic = _build(
        "data", SyntheticConfig,
        image_extent=v["data.image_extent"],
        blob_count_range=v["data.blob_count_range"],
        blob_sigma_range=v["data.blob_sigma_range"],
        intensity_range=v["data.intensity_range"],
        noise_sigma=v["data.noise_sigma"],
        volume_threshold=v["data.volume_threshold"],
        seed=v["seed"])
    crop = v["data.crop_extent"]
    arch = _build(
        "arch", ArchitectureConfig,
        input_shape=(1,) + (v["data.image_extent"] if crop is None else crop),
        conv_blocks=v["arch.conv_blocks"],
        skip_connections=v["arch.skip_connections"],
        dropout_rate=v["arch.dropout_rate"])
    axes = v["augment.flip_axes"]
    augment = _build(
        "augment", AugmentationConfig,
        flip_axes=tuple(range(len(v["data.image_extent"]))) if axes == "all" else axes,
        rotation_range_radians=v["augment.rotation_range"],
        translation_range_voxels=v["augment.translation_range"])
    train = _build(
        "train", TrainConfig,
        epochs=v["train.epochs"],
        method=v["train.method"],
        n=v["train.n"],
        p=v["train.p"],
        loss_kind=v["train.loss"],
        batch_size=v["train.batch_size"],
        augmentation=augment if v["augment.enabled"] else AugmentationConfig())
    _build("curve", check_curve_grid, sizes=v["curve.sizes"], methods=v["curve.methods"],
           num_seeds=v["curve.num_seeds"])
    for method in v["curve.methods"]:
        _build("curve", partial(replace, train), method=method)
    return RunConfig(v, synthetic, arch, train)


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
    for key in ("data.num_train", "data.num_val", "data.num_test"):
        if values[key] < 0:
            raise ConfigError(f"{key} must be non-negative, got {values[key]}")
    dims, extent = values["data.dims"], values["data.image_extent"]
    if len(extent) != dims:
        raise ConfigError(f"data.image_extent {extent} does not match data.dims={dims}")
    crop = values["data.crop_extent"]
    if crop is not None and len(crop) != dims:
        raise ConfigError(f"data.crop_extent {crop} does not match data.dims={dims}")
    if crop is not None and any(not 1 <= c <= e for c, e in zip(crop, extent)):
        raise ConfigError(f"data.crop_extent {crop} must lie between 1 and "
                          f"data.image_extent {extent} on each axis")
    shift, stored = values["augment.translation_range"], extent if crop is None else crop
    if any(shift >= e for e in stored):
        raise ConfigError(f"augment.translation_range={shift} must be below each stored "
                          f"image extent {stored}")
    axes = values["augment.flip_axes"]
    if axes != "all" and any(not 0 <= a < dims for a in axes):
        raise ConfigError(f"augment.flip_axes {axes} out of range for dims={dims}")


def config_text(config: RunConfig) -> str:
    """Canonical echo of a resolved configuration; parsing it back is the identity."""
    lines = [f"{key}={format_value(config.values[key])}" for key in _SCHEMA]
    return "\n".join(lines) + "\n"
