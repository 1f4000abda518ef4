"""The training loop, inference, and the learning-curve experiment harness.

All three training methods run through one loop and one sampler.  Each
epoch, :func:`make_epoch_sets` splits a fresh permutation of the training
images into sets of ``n`` slots (black-padded, black-substituted with
probability ``p``), each scored against its summed label.  A step is ``b``
consecutive sets; its loss is the mean of their grouped losses, followed by
one Adadelta step.  The methods differ only in ``n``, ``p`` and ``b``:

* ``setsum``: ``n`` and ``p`` as configured, ``b = 1`` (ceil(m/n) steps).
* ``baseline``: ``n = 1``, ``p = 0``, ``b = batch_size`` (ceil(m/b) steps).
* ``mixup``: as baseline, but each image is mixed with a partner drawn
  uniformly from the other training images, lambda ~ uniform(0, 1).

Every run returns the parameters of the epoch with the lowest validation
MSE.  All randomness flows through one generator, so a fixed seed gives a
bit-identical run.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from .augment import AugmentationConfig, make_epoch_sets, mixup_pair, random_geometric_augment
from .autodiff import backpropagate
from .data import DatasetManifest, load_split, write_csv
from .metrics import evaluate_pairs
from .optim import AdadeltaState, adadelta_step
from .regressor import (LOSS_KINDS, ArchitectureConfig, RegressorModel, build_base_regressor,
                        hydra_loss, predict)

__all__ = [
    "METHODS",
    "TrainingDiverged",
    "TrainConfig",
    "TrainHistory",
    "CurveJobResult",
    "train",
    "infer",
    "stratified_subsample",
    "check_curve_grid",
    "learning_curve_experiment",
    "write_job_csv",
    "write_aggregate_csv",
]

METHODS = ("setsum", "baseline", "mixup")


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, where: str):
        super().__init__(f"non-finite {where} at epoch {epoch}")


@dataclass(frozen=True)
class TrainConfig:
    """One training job.

    A step is ``b`` sets of ``n`` slots: ``setsum`` steps one set of ``n``,
    whatever ``batch_size`` says; ``baseline`` and ``mixup`` step
    ``batch_size`` one-image sets, whatever ``n`` and ``p`` say.  Unset,
    ``batch_size`` is ``n`` whatever the method, so once built it holds the
    int that trains.
    ``mixup`` draws each image's partner from the other training images, so
    ``train`` needs at least 2 of them; any batch size works.
    Every real image goes through ``augmentation`` as its set is built; the
    default, the identity ``AugmentationConfig()``, trains on the images as
    stored.
    """

    epochs: int
    method: str = "setsum"
    n: int = 4
    p: float = 0.1
    loss_kind: str = "mse"
    batch_size: Optional[int] = None
    augmentation: AugmentationConfig = AugmentationConfig()

    def __post_init__(self):
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", self.n)
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, value in (("n", self.n), ("batch_size", self.batch_size)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 <= self.p < 1.0:  # at p = 1 every slot is black: no label, no gradient
            raise ValueError(f"p must be in [0, 1), got {self.p}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")


@dataclass
class TrainHistory:
    """Per-epoch curves."""

    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0


def _check_finite(value: float, epoch: int, where: str) -> float:
    if not math.isfinite(value):
        raise TrainingDiverged(epoch, where)
    return value


def _mixed(images, labels, a: int, aug: AugmentationConfig,
           rng: np.random.Generator) -> tuple[list[np.ndarray], float]:
    other = int(rng.integers(len(images) - 1))
    b = other + (other >= a)
    lam = float(rng.uniform(0.0, 1.0))
    xa = random_geometric_augment(images[a], aug, rng)
    xb = random_geometric_augment(images[b], aug, rng)
    x, y = mixup_pair(xa, labels[a], xb, labels[b], lam)
    return [x], y


def _epoch_steps(images, labels, config: TrainConfig, rng: np.random.Generator):
    """Yield one epoch's optimizer steps, each an iterable of ``(slots, label)`` sets.

    A step is ``b`` sets of ``n`` slots (``None`` is black), as the module
    docstring sets out.  Sets are built lazily, so each set's augmentation
    draws come just before the dropout draws of its loss; with dropout on,
    that order is what keeps baseline and mixup runs bit-identical to
    per-sample training.
    """
    aug = config.augmentation
    n, p, b = (config.n, config.p, 1) if config.method == "setsum" else (1, 0.0, config.batch_size)
    sets = make_epoch_sets(labels, n, p, rng)
    for start in range(0, len(sets), b):
        step = sets[start:start + b]
        if config.method == "mixup":
            yield (_mixed(images, labels, s.slots[0], aug, rng) for s in step)
        else:
            yield (([None if i is None else random_geometric_augment(images[i], aug, rng)
                     for i in s.slots],
                    s.virtual_label) for s in step)


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
    if config.method == "mixup" and len(train_imgs) < 2:
        raise ValueError(f"mixup needs at least 2 training images to pair, "
                         f"got {len(train_imgs)}")
    state = AdadeltaState()
    history = TrainHistory()
    best_val = math.inf  # a finite epoch-0 validation MSE always beats it
    for epoch in range(config.epochs):
        losses = []
        for sets in _epoch_steps(train_imgs, train_labels, config, rng):
            nodes = [hydra_loss(model, slots, label, config.loss_kind, rng)
                     for slots, label in sets]
            loss = sum(nodes[1:], nodes[0]) * (1.0 / len(nodes))
            losses.append(_check_finite(loss.item(), epoch, "training loss"))
            adadelta_step(model.parameters, backpropagate(loss), state)
        history.train_loss.append(float(np.mean(losses)))
        val_pred = np.array([predict(model, im) for im in val_imgs])
        val_mse = _check_finite(float(np.mean((val_pred - val_labels) ** 2)), epoch,
                                "validation MSE")
        history.val_mse.append(val_mse)
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


def stratified_subsample(labels: Sequence[float], size: int,
                         rng: np.random.Generator) -> list[int]:
    """Pick ``size`` indices whose labels cover the pool pseudo-uniformly.

    The pool is sorted by label (ties broken by index) and split into
    ``size`` contiguous quantile bins; one random member is taken from each
    bin, so every bin contributes and the label range stays covered as the
    subsample shrinks.
    """
    m = len(labels)
    if size < 1:
        raise ValueError(f"subsample size must be at least 1, got {size}")
    if size > m:
        raise ValueError(f"subsample size {size} exceeds pool of {m}")
    order = np.argsort(np.asarray(labels), kind="stable")
    picks = [int(bin_[rng.integers(len(bin_))]) for bin_ in np.array_split(order, size)]
    return sorted(picks)


def _derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _CurveJob:
    manifest: DatasetManifest  # the size's subsample, then every val and test record
    arch: ArchitectureConfig  # seeded for this job
    config: TrainConfig
    rep: int
    rng_key: tuple[int, ...]


def _run_curve_job(job: _CurveJob) -> CurveJobResult:
    model, _ = train(build_base_regressor(job.arch), job.manifest, job.config,
                     np.random.default_rng(list(job.rng_key)))
    truths = [job.manifest.label_of(r) for r in job.manifest.split_records("test")]
    report = evaluate_pairs(truths, infer(model, job.manifest, "test"))
    return CurveJobResult(len(job.manifest.split_records("train")), job.config.method,
                          job.rep, report.mse, report.icc)


def check_curve_grid(sizes: Sequence[int], methods: Sequence[str], num_seeds: int) -> None:
    """Reject a grid that is wrong whatever the manifest holds: an empty or
    repeating list (each (size, method) cell must own its seeds), or a size or
    ``num_seeds`` below 1."""
    for name, values in (("sizes", sizes), ("methods", methods)):
        if not values:
            raise ValueError(f"learning-curve {name} must not be empty")
        if len(set(values)) != len(values):
            raise ValueError(f"learning-curve {name} must not repeat, got {list(values)}")
    for size in sizes:
        if size < 1:
            raise ValueError(f"learning-curve size {size} must be at least 1")
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be positive, got {num_seeds}")


_M_TOP_PAD = -2  # mallopt parameter number, glibc <malloc.h>
_HEAP_TOP_PAD = 64 << 20  # bytes


def pad_heap_top() -> bool:
    """Make glibc keep 64 MiB free at the top of the heap.

    Without the pad, a desk-scale training step or predict returns the
    freed heap top to the system and faults it back in on the next call.
    The setting is process-wide, so it is made at process entry points:
    ``setsum``'s ``cli.main`` and the curve workers' pool initializer.
    Returns whether the pad was set; where the C library has no
    ``mallopt`` (not glibc) it changes nothing and returns False.
    """
    if os.name != "posix":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


def learning_curve_experiment(manifest: DatasetManifest, sizes: Sequence[int],
                              methods: Sequence[str], num_seeds: int, *,
                              arch: ArchitectureConfig, config: TrainConfig,
                              master_seed: int, jobs: int = 1) -> list[CurveJobResult]:
    """Train every (size, method, seed) job; one result row per job, in grid
    order (sizes, then methods, then seeds).

    For each size one stratified subsample is drawn from the training pool
    and shared by all methods and seeds of that size (seeds vary the weight
    initialization and the training-time randomness, as in repeated runs on
    a fixed split).  Jobs may run in parallel, on at most ``jobs`` workers
    and never more workers than jobs or CPUs; results are identical and in
    identical order regardless of ``jobs``.  The grid must pass
    :func:`check_curve_grid`, every size must fit the training pool, the
    test split must hold the 2 records a job's metrics need, and ``jobs``
    must be at least 1.
    """
    check_curve_grid(sizes, methods, num_seeds)
    pool = manifest.split_records("train")
    pool_labels = [manifest.label_of(r) for r in pool]
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    num_test = len(manifest.split_records("test"))
    if num_test < 2:
        raise ValueError(f"learning curve needs at least 2 test records, got {num_test}")
    held_out = manifest.split_records("val") + manifest.split_records("test")
    job_list = []
    for size in sizes:
        indices = stratified_subsample(pool_labels, size,
                                       np.random.default_rng([master_seed, 101, size]))
        subset = DatasetManifest([pool[i] for i in indices] + held_out,
                                 label_kind=manifest.label_kind, base_dir=manifest.base_dir)
        for mi, method in enumerate(methods):
            cfg = replace(config, method=method)
            for rep in range(num_seeds):
                job_list.append(_CurveJob(
                    manifest=subset,
                    arch=replace(arch, seed=_derive_seed(master_seed, 7, size, mi, rep)),
                    config=cfg, rep=rep, rng_key=(master_seed, 8, size, mi, rep)))
    workers = min(jobs, len(job_list), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"),
                                 initializer=pad_heap_top) as pool_exec:
            return list(pool_exec.map(_run_curve_job, job_list))
    return [_run_curve_job(job) for job in job_list]


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def write_job_csv(path, results: Sequence[CurveJobResult]) -> None:
    write_csv(path, [f.name for f in fields(CurveJobResult)], map(astuple, results))


def _mean_std(values: Sequence[float]) -> tuple[Optional[float], Optional[float]]:
    return (float(np.mean(values)), float(np.std(values))) if values else (None, None)


def write_aggregate_csv(path, results: Sequence[CurveJobResult]) -> None:
    """One row per (size, method) cell of the job rows, in first-seen (grid)
    order: the mean and population std (ddof=0) of the cell's test MSEs and of
    its defined test ICCs (``NA`` when none is), so one seed gives std 0."""
    cells: dict[tuple[int, str], list[CurveJobResult]] = {}
    for r in results:
        cells.setdefault((r.size, r.method), []).append(r)
    write_csv(path, ["size", "method", "mean_mse", "std_mse", "mean_icc", "std_icc"],
              ([size, method, *_mean_std([r.test_mse for r in cell]),
                *_mean_std([r.test_icc for r in cell if r.test_icc is not None])]
               for (size, method), cell in cells.items()))
