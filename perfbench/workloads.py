"""The benchmark's workloads and how one run of each is measured and checked.

Every workload is a setsum configuration (CLI config keys on top of the CLI
defaults) built from the run's seed, so the same seed gives the same dataset,
model initialization and training randomness.

* ``setsum_2d16`` — set-sum training at 16x16, 22 training images (one set
  per epoch is black-padded), 5 validation images, then ``infer`` over 100
  test images.  Per-op Python overhead and the n separate graphs per set
  dominate; about 17% of slots are black.
* ``baseline_3d12`` — baseline training on 12x12x12 volumes, batch 1,
  augmentation off, then ``infer`` over 100 test volumes.  GEMM-bound, no
  black slots, Adadelta and augmentation negligible; the only 3D conv path.

A run repeats identical rounds.  A round builds a fresh model from the same
seed, trains it with the same generator seed and infers on the test split,
so every round does exactly the same work.
"""

from __future__ import annotations

import gc
import resource
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import setsum
import setsum.trainer as trainer
from setsum.config import RunConfig, parse_config_text

from checks import (Ledger, gradient_mismatch, infer_mismatches, never_called,
                    set_sum_mismatch)
from instrument import Probe, Tracer
from stats import highest_reportable_percentile, percentile
from summarize import summarize

# end-to-end metrics: name -> unit (BENCHMARK.json lists them with bounds)
UNITS = {
    "setup_s": "s",
    "train_img_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "task_wall_s": "s",
    "peak_rss_mb": "MB",
}

# hard ceiling on the measuring loop, well inside the 180 s a run may take
MAX_MEASURE_S = 120.0

@dataclass(frozen=True)
class Workload:
    name: str
    config: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)   # config overrides for a smoke run
    min_samples: int = 100       # step and predict samples per round, enough for p90
    min_rounds: int = 2          # rounds behind each least-disturbed figure
    setup_repeats: int = 20

    def run_config(self, seed: int) -> RunConfig:
        keys = {"output_dir": ".", **self.config, "seed": str(seed)}
        return parse_config_text("\n".join(f"{k}={v}" for k, v in keys.items()))

    def smoke_variant(self) -> "Workload":
        """The same workload and code path with little work, for self-tests."""
        return replace(self, config={**self.config, **self.smoke}, min_samples=5,
                       min_rounds=1, setup_repeats=1)


# A round has 100 step intervals (20 epochs x 5, 4 epochs x 25) and 100 test
# predictions, so p90 has 10 samples beyond it within one round.  The rounds
# are kept this short so that a run has many of them to take minima over.
WORKLOADS = {
    "setsum_2d16": Workload("setsum_2d16", {
        "data.image_extent": "16,16", "data.num_train": "22", "data.num_val": "5",
        "data.num_test": "100", "train.method": "setsum", "train.epochs": "20"},
        smoke={"train.epochs": "2", "data.num_test": "6"}),
    "baseline_3d12": Workload("baseline_3d12", {
        "data.dims": "3", "data.image_extent": "12,12,12", "data.num_train": "26",
        "data.num_val": "5", "data.num_test": "100", "augment.enabled": "false",
        "train.method": "baseline", "train.batch_size": "1", "train.epochs": "4"},
        smoke={"data.num_train": "4", "data.num_test": "6", "train.epochs": "2"}),
}


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict          # name -> value
    info: dict             # sample counts and quality figures, not gated


class Setup:
    """Dataset generation plus model build, timed each time it runs.

    The first set-up's dataset is the run's input; repeats do the same work
    and their datasets are deleted at once.  A clock is read as each tensor
    file is written, so a set-up is a sequence of intervals, each generating
    and writing one image.  ``seconds()`` applies the rule the latencies use:
    the per-position minimum over all set-ups (the envelope), summed.
    Untraced runs repeat the set-up before every round, so the readings span
    the run rather than one moment of the machine's changing speed.
    """

    def __init__(self, cfg: RunConfig, work: Path, tracer: Tracer | None = None):
        self.cfg, self.work, self.tracer = cfg, work, tracer
        self.intervals: list[list[float]] = []
        self.manifest, self.model = self._once()

    def seconds(self) -> float:
        return sum(envelope(self.intervals))

    def repeat(self) -> None:
        self._once(discard=True)

    def top_up(self, repeats: int) -> None:
        while len(self.intervals) < repeats:
            self.repeat()

    def _once(self, discard: bool = False):
        # the previous round's graphs are collected first, not inside the timing
        gc.collect()
        cfg, tracer = self.cfg, self.tracer
        out = self.work / f"dataset{len(self.intervals)}"
        clock = [perf_counter()]
        write_tensor = setsum.data.write_tensor

        def timed_write_tensor(*args, **kwargs):
            write_tensor(*args, **kwargs)
            clock.append(perf_counter())

        setsum.data.write_tensor = timed_write_tensor
        try:
            with tracer.span("data.generate_dataset") if tracer else nullcontext():
                manifest = setsum.generate_dataset(
                    out, cfg.synthetic_config(), cfg["data.num_train"], cfg["data.num_val"],
                    cfg["data.num_test"], crop_extent=cfg["data.crop_extent"],
                    rescale=cfg["data.rescale"], label_kind=cfg["data.label_kind"])
        finally:
            setsum.data.write_tensor = write_tensor
        with tracer.span("setup.build_base_regressor") if tracer else nullcontext():
            model = setsum.build_base_regressor(cfg.architecture(model_seed=cfg.seed))
        clock.append(perf_counter())
        self.intervals.append([b - a for a, b in zip(clock, clock[1:])])
        if discard:
            shutil.rmtree(out)
        return manifest, model


def check_model(model, manifest, inferred, ledger: Ledger) -> None:
    """The model-level output checks, on the test split."""
    images, labels = setsum.data.load_split(manifest, "test")
    predicted = [setsum.predict(model, im) for im in images]
    ledger.record("infer equals per-image predict", len(images),
                  infer_mismatches(inferred, predicted))
    for slots in ((0, None, 1, None), (None, 2, 3, 4)):
        value = setsum.hydra_forward(model, [None if i is None else images[i] for i in slots])
        members = [predicted[i] for i in slots if i is not None]
        ledger.record("black-padded hydra_forward equals sum of predicts", 1,
                      int(set_sum_mismatch(value, members)))
    slots = [images[0], None, images[1], images[2]]
    label = float(labels[0] + labels[1] + labels[2])
    node = setsum.hydra_loss(model, slots, label)
    grads = setsum.backpropagate(node)
    ref_loss, ref_grads = setsum.hydra_loss_replicated(model, slots, label)
    ledger.record("hydra_loss gradient equals replicated", 1,
                  int(gradient_mismatch(node.item(), grads, ref_loss, ref_grads)))


def _record_hooks(ledger: Ledger, calls: dict) -> None:
    idle = never_called(calls)
    ledger.record(f"hooked names called at least once (idle: {', '.join(idle)})",
                  len(calls), len(idle))


def _round(cfg: RunConfig, manifest):
    """Build, train and infer once; returns (model, predictions, train_s).
    Raises ``setsum.TrainingDiverged`` when training diverges.

    Garbage is collected first: every autodiff node's backward closure refers
    to the node, so finished graphs are reference cycles that would otherwise
    stay in memory into the next round.
    """
    gc.collect()
    model = setsum.build_base_regressor(cfg.architecture(model_seed=cfg.seed))
    start = perf_counter()
    model, _ = trainer.train(model, manifest, cfg.train_config(),
                             np.random.default_rng([cfg.seed, 3]))
    train_s = perf_counter() - start
    return model, trainer.infer(model, manifest, "test"), train_s


def _record_divergence(ledger: Ledger, exc: Exception) -> None:
    """A diverged training (non-finite loss or validation MSE) is a failed operation."""
    ledger.record(f"training ({exc})", 1, 1)


def _peak_rss_mb() -> float:
    # KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def envelope(rounds: list[list[float]]) -> list[float]:
    """Per-position minimum over rounds that repeat the same work.

    Position i of every round times the same computation (same model, data
    and random draws), so its least-disturbed reading is the one least
    inflated by other load on the machine.
    """
    if len({len(r) for r in rounds}) != 1:
        raise RuntimeError("rounds repeating the same work took different sample counts")
    return [min(column) for column in zip(*rounds)]


def measure(w: Workload, seed: int, seconds: float, work: Path) -> RunResult:
    """The end-to-end metrics: light clocks only, rounds until ``seconds``.

    When training diverges the rounds stop, and only ``setup_s`` and
    ``peak_rss_mb`` are reported beside the failed operation.
    """
    cfg = w.run_config(seed)
    ledger = Ledger()
    setup = Setup(cfg, work)
    names = ("train", "infer", "predict", "adadelta_step")
    if cfg["train.method"] == "setsum":
        names += ("make_epoch_sets",)
    probe = Probe(names).install()
    rounds, outcome = [], None
    begin = last = perf_counter()
    lap = 0.0
    try:
        # no round starts that the previous one says would end past the deadline
        while len(rounds) < w.min_rounds or last - begin + lap <= seconds:
            if last - begin > MAX_MEASURE_S:
                raise RuntimeError(f"{w.name}: {len(rounds)} rounds after {MAX_MEASURE_S}s")
            if rounds:
                setup.repeat()
            steps, predicts, images = len(probe.step_ms), len(probe.predict_ms), probe.real_images
            first = len(probe.marks)
            outcome = _round(cfg, setup.manifest)
            intervals = np.diff(probe.marks[first:]).tolist()
            rounds.append({"images": probe.real_images - images,
                           "train": intervals[:probe.train_end - first], "task": intervals,
                           "step_ms": probe.step_ms[steps:],
                           "predict_ms": probe.predict_ms[predicts:]})
            now = perf_counter()
            lap, last = now - last, now
    except setsum.TrainingDiverged as exc:
        _record_divergence(ledger, exc)
    finally:
        probe.uninstall()
    setup.top_up(w.setup_repeats)
    ledger.record("optimizer steps and predicts", probe.calls["adadelta_step"]
                  + probe.calls["predict"], 0)
    info = {"rounds": len(rounds), "setup_repeats": len(setup.intervals),
            "fastest_setup_s": min(sum(i) for i in setup.intervals)}
    if ledger.failed:
        return RunResult(ledger, {"setup_s": setup.seconds(),
                                  "peak_rss_mb": _peak_rss_mb()}, info)
    _record_hooks(ledger, probe.calls)
    check_model(outcome[0], setup.manifest, outcome[1], ledger)
    steps = envelope([r["step_ms"] for r in rounds])
    predicts = envelope([r["predict_ms"] for r in rounds])
    if min(len(steps), len(predicts)) < w.min_samples:
        raise RuntimeError(f"{w.name}: {len(steps)} step and {len(predicts)} predict "
                           f"samples per round; p90 needs {w.min_samples}")
    metrics = {
        "setup_s": setup.seconds(),
        "train_img_per_s": rounds[0]["images"] / sum(envelope([r["train"] for r in rounds])),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "predict_ms_p50": percentile(predicts, 50),
        "predict_ms_p90": percentile(predicts, 90),
        "task_wall_s": sum(envelope([r["task"] for r in rounds])),
        "peak_rss_mb": _peak_rss_mb(),
    }
    truths = [setup.manifest.label_of(r) for r in setup.manifest.split_records("test")]
    info.update({"step_positions": len(steps), "predict_positions": len(predicts),
                 "highest_reportable_percentile": highest_reportable_percentile(
                     min(len(steps), len(predicts))),
                 "test_mse": setsum.mse(truths, outcome[1])})
    return RunResult(ledger, metrics, info)


def trace(w: Workload, seed: int, seconds: float, work: Path, dump_path: Path) -> RunResult:
    """The per-layer metrics: untraced reference rounds for the first third
    of ``seconds``, traced rounds for the rest, summarized from the spans.

    When training diverges the rounds stop and no metric is reported beside
    the failed operation.
    """
    cfg = w.run_config(seed)
    ledger = Ledger()
    tracer = Tracer()
    setup = Setup(cfg, work, tracer)
    setup.top_up(w.setup_repeats)
    names = ("train", "infer", "predict", "hydra_loss", "backpropagate",
             "adadelta_step", "load_split")
    if cfg["train.method"] == "setsum":
        names += ("make_epoch_sets",)
    if cfg["augment.enabled"]:
        names += ("random_geometric_augment",)
    # a set, or a baseline batch of more than one image, sums its losses
    operators = ("__sub__", "__mul__")
    if cfg["train.method"] == "setsum" or cfg["train.batch_size"] > 1:
        operators += ("__add__",)
    begin = perf_counter()
    untraced, traced = [], []
    try:
        while not untraced or perf_counter() - begin < seconds / 3:
            untraced.append(_round(cfg, setup.manifest)[2])
        tracer.install(names, operators)
        try:
            while not traced or perf_counter() - begin < seconds:
                outcome = _round(cfg, setup.manifest)
                traced.append(outcome[2])
        finally:
            tracer.uninstall()
    except setsum.TrainingDiverged as exc:
        _record_divergence(ledger, exc)
        return RunResult(ledger, {}, {"untraced_rounds": len(untraced)})
    calls = tracer.calls()
    ledger.record("optimizer steps and predicts",
                  calls["optim.adadelta_step"] + calls["regressor.predict"], 0)
    _record_hooks(ledger, calls)
    check_model(outcome[0], setup.manifest, outcome[1], ledger)
    meta = {"workload": w.name, "seed": seed,
            "epochs": len(traced) * cfg["train.epochs"],
            "reference_s": min(untraced), "traced_s": min(traced)}
    record = tracer.dump(dump_path, meta)
    info = {"untraced_rounds": len(untraced), "traced_rounds": len(traced),
            "spans": len(tracer.spans), "span_dump": dump_path.name}
    return RunResult(ledger, summarize(record), info)
