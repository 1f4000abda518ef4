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
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import ConfigError, RunConfig, config_text, parse_config_file
from .metrics import evaluate_pairs
from .regressor import build_base_regressor, load_model, save_model
from .trainer import (TrainingDiverged, _derive_seed, format_float, infer,
                      learning_curve_experiment, train, write_aggregate_csv, write_job_csv)

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
    specs = {
        "generate": "generate a synthetic dataset and manifest",
        "train": "train one model on the generated dataset",
        "eval": "evaluate a trained model on the test split",
        "curve": "run the learning-curve experiment grid",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed from the config")
    sub.choices["eval"].add_argument("--model", default=None,
                                     help="model file (default: <output_dir>/train/model.ssrm)")
    sub.choices["curve"].add_argument("--jobs", type=int, default=1,
                                      help="parallel worker processes (default 1)")
    return parser.parse_args(argv)


def _manifest_path(config: RunConfig) -> Path:
    explicit = config.values["data.manifest"]
    if explicit is not None:
        return Path(explicit)
    return Path(config.output_dir) / "dataset" / "manifest.csv"


def _load_manifest(config: RunConfig) -> data_mod.DatasetManifest:
    path = _manifest_path(config)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path} (run `setsum generate` first "
                          f"or set data.manifest)")
    return data_mod.read_manifest(path, label_kind=config.values["data.label_kind"])


def _echo_config(config: RunConfig) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.cfg").write_text(config_text(config), encoding="utf-8")


def _build_or_resume(config: RunConfig):
    init = config.values["train.init_model"]
    if init is not None:
        if not Path(init).is_file():
            raise ConfigError(f"train.init_model not found: {init}")
        return load_model(init)
    arch = config.architecture(model_seed=_derive_seed(config.seed, 2))
    return build_base_regressor(arch)


def cmd_generate(config: RunConfig, args) -> int:
    _echo_config(config)
    out_dir = Path(config.output_dir) / "dataset"
    manifest = data_mod.generate_dataset(
        out_dir, config.synthetic_config(),
        config.values["data.num_train"], config.values["data.num_val"],
        config.values["data.num_test"],
        crop_extent=config.values["data.crop_extent"],
        rescale=config.values["data.rescale"],
        label_kind=config.values["data.label_kind"])
    print(f"generated {len(manifest.records)} records under {out_dir}")
    return EXIT_OK


def cmd_train(config: RunConfig, args) -> int:
    _echo_config(config)
    manifest = _load_manifest(config)
    model = _build_or_resume(config)
    train_config = config.train_config()
    started = time.perf_counter()
    model, history = train(model, manifest, train_config,
                           np.random.default_rng([config.seed, 3]))
    elapsed = time.perf_counter() - started
    out_dir = Path(config.output_dir) / "train"
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.ssrm")
    with open(out_dir / "history.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mse", "seconds"])
        for epoch, (loss, val) in enumerate(zip(history.train_loss, history.val_mse)):
            writer.writerow([epoch, format_float(loss), format_float(val),
                             format_float(history.seconds[epoch])])
    print(f"trained {train_config.epochs} epochs ({train_config.method}); "
          f"best epoch {history.best_epoch} "
          f"with validation MSE {history.val_mse[history.best_epoch]:.6f}")
    print(f"wall time {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_eval(config: RunConfig, args) -> int:
    _echo_config(config)
    manifest = _load_manifest(config)
    model_path = Path(args.model) if args.model else Path(config.output_dir) / "train" / "model.ssrm"
    if not model_path.is_file():
        raise ConfigError(f"model not found: {model_path}")
    model = load_model(model_path)
    records = manifest.split_records("test")
    if not records:
        raise ConfigError("manifest has no test records")
    predictions = infer(model, manifest, "test")
    truths = [manifest.label_of(r) for r in records]
    out_dir = Path(config.output_dir) / "eval"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "truth", "prediction"])
        for rec, truth, pred in zip(records, truths, predictions):
            writer.writerow([rec.path, format_float(truth), format_float(pred)])
    report = evaluate_pairs(truths, predictions)
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mse", "mae", "icc", "n"])
        writer.writerow([format_float(report.mse), format_float(report.mae),
                         format_float(report.icc), report.n])
    print(report)
    return EXIT_OK


def cmd_curve(config: RunConfig, args) -> int:
    _echo_config(config)
    manifest = _load_manifest(config)
    sizes = config.values["curve.sizes"]
    methods = config.values["curve.methods"]
    epochs = config.values["curve.epochs"]
    base = config.train_config(epochs=epochs)
    arch = config.architecture(model_seed=0)  # reseeded per job
    started = time.perf_counter()
    results, points = learning_curve_experiment(
        manifest, sizes, methods, config.values["curve.num_seeds"],
        arch=arch, config=base, master_seed=config.seed,
        jobs=max(1, args.jobs))
    elapsed = time.perf_counter() - started
    out_dir = Path(config.output_dir) / "curve"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_job_csv(out_dir / "curve_jobs.csv", results)
    write_aggregate_csv(out_dir / "curve_aggregate.csv", points)
    print(f"{len(results)} jobs over sizes {list(sizes)} and methods {list(methods)} "
          f"-> {out_dir}")
    print(f"wall time {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "curve": cmd_curve,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = parse_config_file(args.config, seed_override=args.seed)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
