"""Training loops, inference, and the learning-curve experiment harness.

Three training methods share one loop skeleton and one optimizer cadence:

* ``setsum``: each epoch partitions a fresh permutation of the training
  images into sets of ``n`` (black-padded, black-substituted with
  probability ``p``), computes one grouped loss per set against the summed
  label, and takes one Adadelta step per set (ceil(m/n) steps per epoch).
* ``baseline``: standard per-sample losses averaged over mini-batches of
  ``batch_size`` (ceil(m/b) steps per epoch; equal cadence when b = n).
* ``mixup``: per batch, samples are paired with a shuffled partner and
  linearly combined with lambda ~ uniform(0, 1).

Every run returns the parameters of the epoch with the lowest validation
MSE.  All randomness flows through one generator, so a fixed seed gives a
bit-identical run; the recorded per-epoch ``seconds`` are written as 0.0
(reserved) so histories and derived CSV files stay byte-reproducible.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from .augment import (AugmentationConfig, SetSamplerConfig, make_epoch_sets, mixup_pair,
                      random_geometric_augment)
from .autodiff import backpropagate
from .data import DatasetManifest, load_split
from .metrics import icc as _icc
from .metrics import mse as _mse
from .optim import AdadeltaState, adadelta_step
from .regressor import (ArchitectureConfig, RegressorModel, build_base_regressor,
                        hydra_loss, predict)

__all__ = [
    "METHODS",
    "TrainingDiverged",
    "TrainConfig",
    "TrainHistory",
    "CurveJobResult",
    "LearningCurvePoint",
    "train",
    "infer",
    "stratified_subsample",
    "learning_curve_experiment",
    "write_job_csv",
    "write_aggregate_csv",
    "format_float",
]

METHODS = ("setsum", "baseline", "mixup")


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, where: str):
        super().__init__(f"non-finite {where} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """One training job.

    For the ``setsum`` method the batch size is tied to the branch count
    (b = n): one set of n slots per optimizer step.
    """

    epochs: int
    method: str = "setsum"
    n: int = 4
    p: float = 0.1
    loss_kind: str = "mse"
    batch_size: int = 4
    augmentation: Optional[AugmentationConfig] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.n < 1 or self.batch_size < 1:
            raise ValueError("n and batch_size must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.method == "setsum" and self.batch_size != self.n:
            raise ValueError(f"setsum ties batch_size to the branch count: "
                             f"batch_size={self.batch_size} but n={self.n}")


@dataclass
class TrainHistory:
    """Per-epoch curves; ``seconds`` is reserved and always 0.0 (see module doc)."""

    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0


def _augmented(image: np.ndarray, aug: Optional[AugmentationConfig],
               rng: np.random.Generator) -> np.ndarray:
    return image if aug is None else random_geometric_augment(image, aug, rng)


def _check_finite(value: float, epoch: int, where: str) -> float:
    if not math.isfinite(value):
        raise TrainingDiverged(epoch, where)
    return value


def _step(model: RegressorModel, loss_node, state: AdadeltaState,
          epoch: int) -> float:
    value = _check_finite(loss_node.item(), epoch, "training loss")
    grads = backpropagate(loss_node)
    adadelta_step(model.parameters, grads, state)
    return value


def _setsum_epoch(model, images, labels, sampler, config, state, rng, epoch):
    losses = []
    for s in make_epoch_sets(labels, sampler, rng):
        slots = [None if idx is None else _augmented(images[idx], config.augmentation, rng)
                 for idx in s.slots]
        loss = hydra_loss(model, slots, s.virtual_label, config.loss_kind,
                          training=True, rng=rng)
        losses.append(_step(model, loss, state, epoch))
    return losses


def _baseline_epoch(model, images, labels, config, state, rng, epoch):
    losses = []
    order = rng.permutation(len(images))
    for start in range(0, len(order), config.batch_size):
        batch = order[start:start + config.batch_size]
        nodes = []
        for idx in batch:
            img = _augmented(images[idx], config.augmentation, rng)
            nodes.append(hydra_loss(model, [img], labels[idx], config.loss_kind,
                                    training=True, rng=rng))
        total = nodes[0]
        for node in nodes[1:]:
            total = total + node
        losses.append(_step(model, total * (1.0 / len(batch)), state, epoch))
    return losses


def _mixup_epoch(model, images, labels, config, rng, epoch, state):
    losses = []
    order = rng.permutation(len(images))
    for start in range(0, len(order), config.batch_size):
        batch = order[start:start + config.batch_size]
        partners = batch[rng.permutation(len(batch))]
        nodes = []
        for a, b in zip(batch, partners):
            lam = float(rng.uniform(0.0, 1.0))
            xa = _augmented(images[a], config.augmentation, rng)
            xb = _augmented(images[b], config.augmentation, rng)
            x, y = mixup_pair(xa, labels[a], xb, labels[b], lam)
            nodes.append(hydra_loss(model, [x], y, config.loss_kind, training=True,
                                    rng=rng))
        total = nodes[0]
        for node in nodes[1:]:
            total = total + node
        losses.append(_step(model, total * (1.0 / len(batch)), state, epoch))
    return losses


def train(model: RegressorModel, manifest: DatasetManifest, config: TrainConfig,
          rng: np.random.Generator) -> tuple[RegressorModel, TrainHistory]:
    """Optimize ``model`` in place; it ends up holding the parameters of the
    epoch with the lowest validation MSE."""
    train_imgs, train_labels = load_split(manifest, "train")
    val_imgs, val_labels = load_split(manifest, "val")
    if not train_imgs:
        raise ValueError("manifest has no train records")
    if not val_imgs:
        raise ValueError("manifest has no val records")
    state = AdadeltaState()
    history = TrainHistory()
    best_val = math.inf
    best_params = model.copy_parameter_data()
    sampler = SetSamplerConfig(n=config.n, p=config.p)
    for epoch in range(config.epochs):
        if config.method == "setsum":
            losses = _setsum_epoch(model, train_imgs, train_labels, sampler, config,
                                   state, rng, epoch)
        elif config.method == "baseline":
            losses = _baseline_epoch(model, train_imgs, train_labels, config, state,
                                     rng, epoch)
        else:
            losses = _mixup_epoch(model, train_imgs, train_labels, config, rng, epoch,
                                  state)
        history.train_loss.append(float(np.mean(losses)))
        val_pred = np.array([predict(model, im) for im in val_imgs])
        val_mse = _check_finite(float(np.mean((val_pred - val_labels) ** 2)), epoch,
                                "validation MSE")
        history.val_mse.append(val_mse)
        history.seconds.append(0.0)
        if val_mse < best_val:
            best_val = val_mse
            history.best_epoch = epoch
            best_params = model.copy_parameter_data()
    model.load_parameter_data(best_params)
    return model, history


def infer(model: RegressorModel, manifest: DatasetManifest,
          split: str = "test") -> list[float]:
    """Per-image predictions for one split, in manifest order; no augmentation,
    no dropout."""
    images, _ = load_split(manifest, split)
    return [predict(model, im) for im in images]


# ---------------------------------------------------------------------------
# learning-curve experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveJobResult:
    """One (training size, method, seed) run."""

    size: int
    method: str
    seed: int
    test_mse: float
    test_icc: Optional[float]
    train_seconds: float = 0.0


@dataclass(frozen=True)
class LearningCurvePoint:
    """Per-seed results and aggregate statistics for one (size, method) cell.

    Standard deviations are population standard deviations (ddof=0), so a
    single-seed point has std 0 and every statistic is recomputable from the
    per-seed values.
    """

    training_set_size: int
    method: str
    seeds: tuple[int, ...]
    mse_values: tuple[float, ...]
    icc_values: tuple[Optional[float], ...]

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.mse_values))

    @property
    def std_mse(self) -> float:
        return float(np.std(self.mse_values))

    @property
    def mean_icc(self) -> Optional[float]:
        vals = [v for v in self.icc_values if v is not None]
        return float(np.mean(vals)) if vals else None

    @property
    def std_icc(self) -> Optional[float]:
        vals = [v for v in self.icc_values if v is not None]
        return float(np.std(vals)) if vals else None


def stratified_subsample(labels: Sequence[float], size: int,
                         rng: np.random.Generator) -> list[int]:
    """Pick ``size`` indices whose labels cover the pool pseudo-uniformly.

    The pool is sorted by label (ties broken by index) and split into
    ``size`` contiguous quantile bins; one random member is taken from each
    bin, so every bin contributes and the label range stays covered as the
    subsample shrinks.
    """
    m = len(labels)
    if not 1 <= size <= m:
        raise ValueError(f"subsample size {size} exceeds pool of {m}")
    order = np.argsort(np.asarray(labels), kind="stable")
    picks = [int(bin_[rng.integers(len(bin_))]) for bin_ in np.array_split(order, size)]
    return sorted(picks)


def _derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _CurveJob:
    manifest: DatasetManifest
    train_indices: tuple[int, ...]
    arch: ArchitectureConfig
    config: TrainConfig
    size: int
    method: str
    rep: int
    model_seed: int
    rng_key: tuple[int, ...]


def _run_curve_job(job: _CurveJob) -> CurveJobResult:
    pool = job.manifest.split_records("train")
    records = [pool[i] for i in job.train_indices]
    records += job.manifest.split_records("val")
    records += job.manifest.split_records("test")
    manifest = DatasetManifest(records, label_kind=job.manifest.label_kind,
                               base_dir=job.manifest.base_dir)
    model = build_base_regressor(replace(job.arch, seed=job.model_seed))
    model, _ = train(model, manifest, job.config, np.random.default_rng(list(job.rng_key)))
    predictions = infer(model, manifest, "test")
    truths = [manifest.label_of(r) for r in manifest.split_records("test")]
    test_mse = _mse(truths, predictions)
    test_icc = _icc(truths, predictions) if len(truths) >= 3 else None
    return CurveJobResult(job.size, job.method, job.rep, test_mse, test_icc)


def learning_curve_experiment(manifest: DatasetManifest, sizes: Sequence[int],
                              methods: Sequence[str], num_seeds: int, *,
                              arch: ArchitectureConfig, config: TrainConfig,
                              master_seed: int, jobs: int = 1,
                              ) -> tuple[list[CurveJobResult], list[LearningCurvePoint]]:
    """Train every (size, method, seed) job and aggregate per (size, method).

    For each size one stratified subsample is drawn from the training pool
    and shared by all methods and seeds of that size (seeds vary the weight
    initialization and the training-time randomness, as in repeated runs on
    a fixed split).  Jobs may run in parallel, on at most ``jobs`` workers
    and never more workers than jobs or CPUs; results are identical and in
    identical order regardless of ``jobs``.  Repeated sizes or methods are
    rejected: each (size, method) cell must own its seeds.
    """
    for name, values in (("sizes", sizes), ("methods", methods)):
        if len(set(values)) != len(values):
            raise ValueError(f"learning-curve {name} must not repeat, got {list(values)}")
    pool = manifest.split_records("train")
    pool_labels = [manifest.label_of(r) for r in pool]
    for size in sizes:
        if size > len(pool):
            raise ValueError(f"learning-curve size {size} exceeds training pool "
                             f"of {len(pool)}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if num_seeds < 1:
        raise ValueError("num_seeds must be positive")
    job_list = []
    for size in sizes:
        indices = stratified_subsample(pool_labels, size,
                                       np.random.default_rng([master_seed, 101, size]))
        for mi, method in enumerate(methods):
            cfg = replace(config, method=method,
                          batch_size=config.n if method == "setsum" else config.batch_size)
            for rep in range(num_seeds):
                job_list.append(_CurveJob(
                    manifest=manifest, train_indices=tuple(indices), arch=arch,
                    config=cfg, size=size, method=method, rep=rep,
                    model_seed=_derive_seed(master_seed, 7, size, mi, rep),
                    rng_key=(master_seed, 8, size, mi, rep)))
    workers = min(jobs, len(job_list), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn")) as pool_exec:
            results = list(pool_exec.map(_run_curve_job, job_list))
    else:
        results = [_run_curve_job(job) for job in job_list]
    points = []
    for size in sizes:
        for method in methods:
            cell = [r for r in results if r.size == size and r.method == method]
            points.append(LearningCurvePoint(
                training_set_size=size, method=method,
                seeds=tuple(r.seed for r in cell),
                mse_values=tuple(r.test_mse for r in cell),
                icc_values=tuple(r.test_icc for r in cell)))
    return results, points


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def format_float(value: Optional[float]) -> str:
    """Shortest round-trip decimal form; None becomes ``NA``."""
    return "NA" if value is None else repr(float(value))


def write_job_csv(path, results: Sequence[CurveJobResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "method", "seed", "test_mse", "test_icc", "train_seconds"])
        for r in results:
            writer.writerow([r.size, r.method, r.seed, format_float(r.test_mse),
                             format_float(r.test_icc), format_float(r.train_seconds)])


def write_aggregate_csv(path, points: Sequence[LearningCurvePoint]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "method", "mean_mse", "std_mse", "mean_icc", "std_icc"])
        for p in points:
            writer.writerow([p.training_set_size, p.method, format_float(p.mean_mse),
                             format_float(p.std_mse), format_float(p.mean_icc),
                             format_float(p.std_icc)])
