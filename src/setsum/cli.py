"""Command-line entry point: generate | train | eval | curve.

Every command takes one config file and is fully reproducible: the config
plus the master seed determine all outputs byte for byte.  The resolved
configuration is echoed to the output directory so any run can be repeated
from its own artifacts.

Exit codes: 0 success, 2 config/input error, 3 IO failure, 4 numerical
divergence.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import ConfigError, RunConfig, config_text, parse_config_file
from .metrics import evaluate_pairs
from .regressor import build_base_regressor, load_model, save_model
from .trainer import (TrainingDiverged, _derive_seed, infer, learning_curve_experiment,
                      pad_heap_top, train, write_aggregate_csv, write_job_csv)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="setsum",
        description="Count/volume regression with set-sum label recombination")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed from the config")
    sub.choices["eval"].add_argument("--model", default=None,
                                     help="model file (default: <output_dir>/train/model.ssrm)")
    sub.choices["curve"].add_argument("--jobs", type=int, default=1,
                                      help="parallel worker processes, at least 1 (default 1)")
    return parser.parse_args(argv)


def _load_manifest(config: RunConfig) -> data_mod.DatasetManifest:
    explicit = config["data.manifest"]
    path = (Path(config["output_dir"]) / "dataset" / "manifest.csv" if explicit is None
            else Path(explicit))
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path} (run `setsum generate` first "
                          f"or set data.manifest)")
    return data_mod.read_manifest(path, label_kind=config["data.label_kind"])


def _echo_config(config: RunConfig, name: str) -> Path:
    """Write the resolved config to ``output_dir``, then create and return the
    command's output directory ``output_dir/name``.  Every command calls it
    only once its work has succeeded, so one that fails leaves the echo of
    the run whose artifacts the directory holds."""
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_atomic(out / "config_resolved.cfg", config_text(config).encode("utf-8"))
    (out / name).mkdir(exist_ok=True)
    return out / name


def _build_or_resume(config: RunConfig):
    init = config["train.init_model"]
    if init is not None:
        if not Path(init).is_file():
            raise ConfigError(f"train.init_model not found: {init}")
        model = load_model(init)
        saved = model.architecture
        wanted = config.architecture(model_seed=saved.seed)
        differ = [f"{f.name} (saved {getattr(saved, f.name)}, config {getattr(wanted, f.name)})"
                  for f in fields(saved) if getattr(saved, f.name) != getattr(wanted, f.name)]
        if differ:
            raise ConfigError(f"train.init_model {init} does not match the config's "
                              f"architecture: {'; '.join(differ)}")
        return model
    arch = config.architecture(model_seed=_derive_seed(config.seed, 2))
    return build_base_regressor(arch)


def cmd_generate(config: RunConfig, args) -> int:
    out_dir = Path(config["output_dir"]) / "dataset"
    manifest = data_mod.generate_dataset(
        out_dir, config.synthetic,
        config["data.num_train"], config["data.num_val"], config["data.num_test"],
        crop_extent=config["data.crop_extent"],
        rescale=config["data.rescale"],
        label_kind=config["data.label_kind"])
    _echo_config(config, "dataset")
    print(f"generated {len(manifest.records)} records under {out_dir}")
    return EXIT_OK


def cmd_train(config: RunConfig, args) -> int:
    manifest = _load_manifest(config)
    model = _build_or_resume(config)
    train_config = config.train
    started = time.perf_counter()
    model, history = train(model, manifest, train_config,
                           np.random.default_rng([config.seed, 3]))
    elapsed = time.perf_counter() - started
    out_dir = _echo_config(config, "train")
    save_model(model, out_dir / "model.ssrm")
    data_mod.write_csv(out_dir / "history.csv", ["epoch", "train_loss", "val_mse"],
                       zip(range(train_config.epochs), history.train_loss, history.val_mse))
    print(f"trained {train_config.epochs} epochs ({train_config.method}); "
          f"best epoch {history.best_epoch} "
          f"with validation MSE {history.val_mse[history.best_epoch]:.6f}")
    print(f"wall time {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_eval(config: RunConfig, args) -> int:
    manifest = _load_manifest(config)
    model_path = Path(args.model or Path(config["output_dir"]) / "train" / "model.ssrm")
    if not model_path.is_file():
        raise ConfigError(f"model not found: {model_path}")
    model = load_model(model_path)
    records = manifest.split_records("test")
    if not records:
        raise ConfigError("manifest has no test records")
    predictions = infer(model, manifest, "test")
    truths = [manifest.label_of(r) for r in records]
    report = evaluate_pairs(truths, predictions)
    out_dir = _echo_config(config, "eval")
    data_mod.write_csv(out_dir / "predictions.csv", ["path", "truth", "prediction"],
                       zip((r.path for r in records), truths, predictions))
    data_mod.write_csv(out_dir / "metrics.csv", ["mse", "mae", "icc", "n"],
                       [(report.mse, report.mae, report.icc, report.n)])
    print(report)
    return EXIT_OK


def cmd_curve(config: RunConfig, args) -> int:
    manifest = _load_manifest(config)
    sizes = config["curve.sizes"]
    methods = config["curve.methods"]
    started = time.perf_counter()
    results = learning_curve_experiment(
        manifest, sizes, methods, config["curve.num_seeds"],
        arch=config.arch, config=config.train, master_seed=config.seed,
        jobs=args.jobs)
    elapsed = time.perf_counter() - started
    out_dir = _echo_config(config, "curve")
    write_job_csv(out_dir / "curve_jobs.csv", results)
    write_aggregate_csv(out_dir / "curve_aggregate.csv", results)
    print(f"{len(results)} jobs over sizes {list(sizes)} and methods {list(methods)} "
          f"-> {out_dir}")
    print(f"wall time {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "generate": ("generate a synthetic dataset and manifest", cmd_generate),
    "train": ("train one model on the generated dataset", cmd_train),
    "eval": ("evaluate a trained model on the test split", cmd_eval),
    "curve": ("run the learning-curve experiment grid", cmd_curve),
}


def main(argv=None) -> int:
    pad_heap_top()
    args = _parse_args(argv)
    try:
        config = parse_config_file(args.config, seed_override=args.seed)
        return _COMMANDS[args.command][1](config, args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
