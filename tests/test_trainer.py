import csv
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import setsum.trainer as trainer_mod
from setsum.augment import AugmentationConfig
from setsum.data import SyntheticConfig, generate_dataset, load_split
from setsum.regressor import ArchitectureConfig, build_base_regressor, hydra_forward, predict
from setsum.trainer import (CurveJobResult, TrainConfig, TrainingDiverged, infer,
                            learning_curve_experiment, stratified_subsample, train,
                            write_aggregate_csv, write_job_csv)

TINY_ARCH = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                               skip_connections=((1, 2),), seed=2)
SYNTH = SyntheticConfig(image_extent=(8, 8), blob_count_range=(0, 4),
                        blob_sigma_range=(0.45, 0.7), noise_sigma=0.02, seed=21)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return generate_dataset(root, SYNTH, 12, 3, 6)


def fresh_model(seed=2):
    return build_base_regressor(replace(TINY_ARCH, seed=seed))


class TestTrainConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            TrainConfig(epochs=1, method="magic", n=1, batch_size=1)

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ValueError, match=r"loss_kind must be one of \('mse', 'mae'\)"):
            TrainConfig(epochs=1, loss_kind="huber")

    def test_mixup_needs_a_partner(self):
        # with a batch of one, every image would be mixed with itself
        with pytest.raises(ValueError, match="mixup needs batch_size >= 2"):
            TrainConfig(epochs=1, method="mixup", batch_size=1)


class TestTrain:
    def test_reduction_setsum_n1_equals_baseline_b1(self, dataset):
        # grouped loss over singleton sets degenerates to plain per-sample
        # training, so both paths must follow the same trajectory
        cfg_set = TrainConfig(epochs=20, method="setsum", n=1, p=0.0, batch_size=1)
        cfg_base = TrainConfig(epochs=20, method="baseline", n=1, batch_size=1)
        model_a, hist_a = train(fresh_model(), dataset, cfg_set,
                                np.random.default_rng(77))
        model_b, hist_b = train(fresh_model(), dataset, cfg_base,
                                np.random.default_rng(77))
        npt.assert_allclose(hist_a.train_loss, hist_b.train_loss, atol=1e-10)
        npt.assert_allclose(hist_a.val_mse, hist_b.val_mse, atol=1e-10)
        assert hist_a.best_epoch == hist_b.best_epoch
        for name in model_a.parameters:
            npt.assert_allclose(model_a.parameters[name].data,
                                model_b.parameters[name].data, atol=1e-10)

    def test_reduction_holds_with_augmentation(self, dataset):
        aug = AugmentationConfig(flip_axes=(0, 1), rotation_range_radians=0.1,
                                 translation_range_voxels=1)
        cfg_set = TrainConfig(epochs=6, method="setsum", n=1, p=0.0, batch_size=1,
                              augmentation=aug)
        cfg_base = TrainConfig(epochs=6, method="baseline", n=1, batch_size=1,
                               augmentation=aug)
        _, hist_a = train(fresh_model(), dataset, cfg_set, np.random.default_rng(5))
        _, hist_b = train(fresh_model(), dataset, cfg_base, np.random.default_rng(5))
        npt.assert_allclose(hist_a.train_loss, hist_b.train_loss, atol=1e-10)

    def test_smoke_loss_decreases(self, dataset):
        cfg = TrainConfig(epochs=200, method="setsum", n=4, p=0.1, batch_size=4)
        _, hist = train(fresh_model(), dataset, cfg, np.random.default_rng(3))
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_bit_identical_reruns(self, dataset):
        cfg = TrainConfig(epochs=5, method="setsum", n=4, p=0.1, batch_size=4,
                          augmentation=AugmentationConfig(flip_axes=(0, 1),
                                                          rotation_range_radians=0.2,
                                                          translation_range_voxels=2))
        model_a, hist_a = train(fresh_model(), dataset, cfg, np.random.default_rng(9))
        model_b, hist_b = train(fresh_model(), dataset, cfg, np.random.default_rng(9))
        assert hist_a == hist_b
        for name in model_a.parameters:
            assert np.array_equal(model_a.parameters[name].data,
                                  model_b.parameters[name].data)

    @pytest.mark.parametrize("method, batch_size", [("setsum", 4), ("baseline", 3),
                                                    ("mixup", 3)])
    def test_dropout_training_repeatable_and_effective(self, dataset, method, batch_size):
        aug = AugmentationConfig(flip_axes=(0, 1), rotation_range_radians=0.1,
                                 translation_range_voxels=1)
        cfg = TrainConfig(epochs=2, method=method, n=4, p=0.1, batch_size=batch_size,
                          augmentation=aug)

        def run(rate):
            model = build_base_regressor(replace(TINY_ARCH, dropout_rate=rate))
            return train(model, dataset, cfg, np.random.default_rng(23))

        model_a, hist_a = run(0.25)
        model_b, hist_b = run(0.25)
        _, hist_plain = run(None)
        assert np.isfinite(hist_a.train_loss).all()
        assert hist_a == hist_b
        for name in model_a.parameters:
            assert np.array_equal(model_a.parameters[name].data,
                                  model_b.parameters[name].data)
        assert hist_a.train_loss != hist_plain.train_loss

    def test_methods_produce_different_runs(self, dataset):
        cfg_set = TrainConfig(epochs=3, method="setsum", n=4, p=0.1, batch_size=4)
        cfg_mix = TrainConfig(epochs=3, method="mixup", n=4, batch_size=4)
        _, hist_set = train(fresh_model(), dataset, cfg_set, np.random.default_rng(11))
        _, hist_mix = train(fresh_model(), dataset, cfg_mix, np.random.default_rng(11))
        assert hist_set.train_loss != hist_mix.train_loss

    def test_early_selection_returns_best_epoch_params(self, dataset):
        cfg = TrainConfig(epochs=12, method="setsum", n=4, p=0.1, batch_size=4)
        model, hist = train(fresh_model(), dataset, cfg, np.random.default_rng(13))
        val_imgs, val_labels = load_split(dataset, "val")
        pred = np.array([predict(model, im) for im in val_imgs])
        re_evaluated = float(np.mean((pred - val_labels) ** 2))
        assert re_evaluated == pytest.approx(hist.val_mse[hist.best_epoch], abs=1e-12)
        assert hist.val_mse[hist.best_epoch] == min(hist.val_mse)

    def test_update_count_per_epoch(self, dataset, monkeypatch):
        calls = []
        original = trainer_mod.adadelta_step

        def counting(params, grads, state):
            calls.append(1)
            return original(params, grads, state)

        monkeypatch.setattr(trainer_mod, "adadelta_step", counting)
        m = 12
        cfg = TrainConfig(epochs=2, method="setsum", n=4, p=0.1, batch_size=4)
        train(fresh_model(), dataset, cfg, np.random.default_rng(15))
        assert len(calls) == 2 * ((m + 3) // 4)
        calls.clear()
        cfg = TrainConfig(epochs=2, method="baseline", n=4, batch_size=5)
        train(fresh_model(), dataset, cfg, np.random.default_rng(15))
        assert len(calls) == 2 * ((m + 4) // 5)
        calls.clear()
        cfg = TrainConfig(epochs=2, method="mixup", n=4, batch_size=5)
        train(fresh_model(), dataset, cfg, np.random.default_rng(15))
        assert len(calls) == 2 * ((m + 4) // 5)

    @pytest.mark.parametrize("method, n, p", [("setsum", 4, 0.1), ("baseline", 1, 0.0),
                                              ("mixup", 1, 0.0)])
    def test_every_method_samples_with_make_epoch_sets(self, dataset, monkeypatch,
                                                       method, n, p):
        # baseline and mixup draw sets of one image with no black slots
        calls = []
        original = trainer_mod.make_epoch_sets

        def recording(labels, n, p, rng):
            calls.append((len(labels), n, p))
            return original(labels, n, p, rng)

        monkeypatch.setattr(trainer_mod, "make_epoch_sets", recording)
        cfg = TrainConfig(epochs=2, method=method, n=4, p=0.1, batch_size=3)
        train(fresh_model(), dataset, cfg, np.random.default_rng(15))
        assert calls == [(12, n, p)] * 2

    def test_lone_mixup_image_gets_another_partner(self, tmp_path, monkeypatch):
        # m = 7 and b = 3 leave a last batch of one image in every epoch
        manifest = generate_dataset(tmp_path, SYNTH, 7, 2, 1)
        cfg = TrainConfig(epochs=5, method="mixup", n=4, batch_size=3)
        pairs = []
        original = trainer_mod._mixed

        def recording(images, labels, a, b, aug, rng):
            pairs.append((int(a), int(b)))
            return original(images, labels, a, b, aug, rng)

        monkeypatch.setattr(trainer_mod, "_mixed", recording)
        model_a, hist_a = train(fresh_model(), manifest, cfg, np.random.default_rng(29))
        lone = pairs[6::7]
        assert len(pairs) == 5 * 7 and len(lone) == 5
        assert all(a != b for a, b in lone), lone
        model_b, hist_b = train(fresh_model(), manifest, cfg, np.random.default_rng(29))
        assert pairs[35:] == pairs[:35]
        assert hist_a == hist_b
        for name in model_a.parameters:
            assert np.array_equal(model_a.parameters[name].data,
                                  model_b.parameters[name].data)

    def test_mixup_needs_two_training_images(self, tmp_path):
        manifest = generate_dataset(tmp_path, SYNTH, 1, 2, 1)
        cfg = TrainConfig(epochs=1, method="mixup", n=4, batch_size=2)
        with pytest.raises(ValueError, match="at least 2 training images"):
            train(fresh_model(), manifest, cfg, np.random.default_rng(0))

    def test_divergence_aborts_with_epoch(self, dataset):
        model = fresh_model()
        model.parameters["fc.weight"].data[:] = np.inf
        cfg = TrainConfig(epochs=3, method="baseline", n=1, batch_size=1)
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train(model, dataset, cfg, np.random.default_rng(17))

    def test_empty_split_rejected(self, dataset, tmp_path):
        from setsum.data import DatasetManifest, write_manifest
        only_train = DatasetManifest([r for r in dataset.records if r.split == "train"],
                                     base_dir=dataset.base_dir)
        cfg = TrainConfig(epochs=1, method="setsum", n=4, batch_size=4)
        with pytest.raises(ValueError, match="no val records"):
            train(fresh_model(), only_train, cfg, np.random.default_rng(0))


class TestInfer:
    def test_matches_black_padded_branches(self, dataset):
        model = fresh_model()
        predictions = infer(model, dataset, "test")
        images, _ = load_split(dataset, "test")
        for value, img in zip(predictions, images):
            assert abs(value - hydra_forward(model, [img, None, None, None])) < 1e-12

    def test_order_independent_and_repeatable(self, dataset):
        model = fresh_model()
        first = infer(model, dataset, "test")
        second = infer(model, dataset, "test")
        assert first == second
        reversed_manifest = type(dataset)(list(reversed(dataset.records)),
                                          label_kind=dataset.label_kind,
                                          base_dir=dataset.base_dir)
        flipped = infer(model, reversed_manifest, "test")
        assert flipped == first[::-1]


class TestStratifiedSubsample:
    def test_every_quantile_bin_contributes(self):
        labels = list(range(12))
        picks = stratified_subsample(labels, 12, np.random.default_rng(0))
        assert picks == list(range(12))

    def test_sizes_and_coverage(self):
        rng = np.random.default_rng(1)
        labels = list(rng.integers(0, 9, size=25).astype(float))
        picks = stratified_subsample(labels, 12, rng)
        assert len(picks) == 12
        assert len(set(picks)) == 12
        picked = sorted(labels[i] for i in picks)
        assert picked[0] == min(labels)
        assert picked[-1] == max(labels)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool"):
            stratified_subsample([1.0, 2.0], 3, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match=f"subsample size must be at least 1, got {size}"):
            stratified_subsample([1.0, 2.0, 3.0], size, np.random.default_rng(0))


def serial_pool(monkeypatch) -> list:
    """Replace the process pool with one that runs jobs serially; returns the
    list that records each pool's ``max_workers``.  Every pool must start its
    workers with ``pad_heap_top``."""
    created = []

    class SerialPool:
        def __init__(self, max_workers, mp_context, initializer):
            assert initializer is trainer_mod.pad_heap_top
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(trainer_mod, "ProcessPoolExecutor", SerialPool)
    return created


CHURN_SCRIPT = """
import json, resource
import numpy as np
from setsum.trainer import pad_heap_top

def churn_faults():
    # sixteen 120 kB blocks: each is below glibc's 128 kB mmap threshold, and
    # together they outgrow the holes left by imports, so they extend the
    # heap top, which is trimmed once they are freed
    for _ in range(3):
        blocks = [np.ones(15000) for _ in range(16)]
        del blocks
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        blocks = [np.ones(15000) for _ in range(16)]
        del blocks
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

unpadded = churn_faults()
padded = pad_heap_top()
print(json.dumps([unpadded, padded, churn_faults()]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_pad_heap_top_stops_heap_top_refaults():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", CHURN_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    unpadded, padded, faults = json.loads(out.stdout)
    assert padded is True
    assert unpadded > 1000
    assert faults < 50


def aggregate_rows(path, results) -> list[dict]:
    write_aggregate_csv(path, results)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAggregateCsv:
    def test_cells_in_grid_order_over_defined_iccs(self, tmp_path):
        # sizes and methods come out as first seen, not sorted; a cell with no
        # defined ICC writes NA, and one with some averages only those
        rows = [CurveJobResult(6, "setsum", 0, 1.0, None),
                CurveJobResult(6, "setsum", 1, 3.0, None),
                CurveJobResult(6, "baseline", 0, 1.0, 0.25),
                CurveJobResult(6, "baseline", 1, 3.0, None),
                CurveJobResult(6, "baseline", 2, 1.0, 0.75),
                CurveJobResult(6, "baseline", 3, 3.0, None),
                CurveJobResult(2, "setsum", 0, 5.0, 0.25)]
        write_aggregate_csv(tmp_path / "agg.csv", rows)
        assert (tmp_path / "agg.csv").read_text().splitlines() == [
            "size,method,mean_mse,std_mse,mean_icc,std_icc",
            "6,setsum,2.0,1.0,NA,NA",
            "6,baseline,2.0,1.0,0.5,0.25",
            "2,setsum,5.0,0.0,0.25,0.0"]


class TestLearningCurve:
    def test_single_point_shape(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=2, method="baseline", n=4, batch_size=4)
        results = learning_curve_experiment(
            dataset, [6], ["baseline"], 1, arch=TINY_ARCH, config=cfg, master_seed=1)
        cells = aggregate_rows(tmp_path / "agg.csv", results)
        assert len(results) == 1 and len(cells) == 1
        cell = cells[0]
        assert cell["size"] == "6" and cell["method"] == "baseline"
        assert float(cell["mean_mse"]) == results[0].test_mse
        assert float(cell["std_mse"]) == 0.0

    def test_grid_and_csv_shapes(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=2, method="setsum", n=2, batch_size=2)
        results = learning_curve_experiment(
            dataset, [4, 6], ["setsum", "baseline"], 3,
            arch=TINY_ARCH, config=cfg, master_seed=2)
        assert len(results) == 2 * 2 * 3
        cells = aggregate_rows(tmp_path / "agg.csv", results)
        assert len(cells) == 2 * 2
        for cell in cells:
            mse = [r.test_mse for r in results
                   if (str(r.size), r.method) == (cell["size"], cell["method"])]
            assert len(mse) == 3
            npt.assert_allclose(float(cell["mean_mse"]), np.mean(mse), atol=1e-15)
            npt.assert_allclose(float(cell["std_mse"]), np.std(mse), atol=1e-15)
        write_job_csv(tmp_path / "jobs.csv", results)
        job_lines = (tmp_path / "jobs.csv").read_text().strip().splitlines()
        agg_lines = (tmp_path / "agg.csv").read_text().strip().splitlines()
        assert job_lines[0] == "size,method,seed,test_mse,test_icc"
        assert agg_lines[0] == "size,method,mean_mse,std_mse,mean_icc,std_icc"
        assert len(job_lines) == 1 + 12
        assert len(agg_lines) == 1 + 4

    def test_same_subsample_shared_across_methods(self, dataset):
        # both methods at one size see the same training subset: with a single
        # seed and zero epochs of iteration the job specs must coincide, which
        # we check indirectly through determinism of results across reruns
        cfg = TrainConfig(epochs=1, method="baseline", n=4, batch_size=4)
        first = learning_curve_experiment(dataset, [5], ["baseline"], 2,
                                          arch=TINY_ARCH, config=cfg, master_seed=3)
        second = learning_curve_experiment(dataset, [5], ["baseline"], 2,
                                           arch=TINY_ARCH, config=cfg, master_seed=3)
        assert first == second

    @pytest.mark.parametrize("size, message", [(13, "size 13 exceeds pool of 12"),
                                               (0, "size 0 must be at least 1")], ids=["13", "0"])
    def test_oversized_size_rejected(self, dataset, size, message):
        cfg = TrainConfig(epochs=1, method="baseline", n=4, batch_size=4)
        with pytest.raises(ValueError, match=message):
            learning_curve_experiment(dataset, [size], ["baseline"], 1,
                                      arch=TINY_ARCH, config=cfg, master_seed=0)

    @pytest.mark.parametrize("sizes, methods", [([4, 4], ["setsum"]),
                                                ([4], ["setsum", "setsum"])])
    def test_repeated_sizes_or_methods_rejected(self, dataset, sizes, methods):
        cfg = TrainConfig(epochs=1, method="setsum", n=2, batch_size=2)
        with pytest.raises(ValueError, match="must not repeat"):
            learning_curve_experiment(dataset, sizes, methods, 2,
                                      arch=TINY_ARCH, config=cfg, master_seed=0)

    def test_jobs_below_one_rejected(self, dataset):
        cfg = TrainConfig(epochs=1, method="baseline", n=4, batch_size=4)
        with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
            learning_curve_experiment(dataset, [4], ["baseline"], 1, arch=TINY_ARCH,
                                      config=cfg, master_seed=0, jobs=0)

    def test_unknown_method_rejected_before_any_job(self, dataset, monkeypatch):
        created = serial_pool(monkeypatch)
        cfg = TrainConfig(epochs=1, method="baseline", n=4, batch_size=4)
        with pytest.raises(ValueError, match="method"):
            learning_curve_experiment(dataset, [4], ["magic"], 2, arch=TINY_ARCH,
                                      config=cfg, master_seed=0, jobs=2)
        # an unknown loss fails when its config is built, before the call
        with pytest.raises(ValueError, match="loss_kind"):
            learning_curve_experiment(dataset, [4], ["baseline"], 2, arch=TINY_ARCH,
                                      config=replace(cfg, loss_kind="huber"), master_seed=0,
                                      jobs=2)
        assert created == []

    @pytest.mark.parametrize("jobs, seeds, cpus, workers", [
        (8, 5, 3, 3),      # capped by CPUs
        (8, 4, 16, 4),     # capped by the job count
        (2, 5, 16, 2),     # as requested
        (8, 5, 1, None),   # one CPU: serial, no pool
    ])
    def test_worker_count_is_capped(self, dataset, monkeypatch, jobs, seeds, cpus, workers):
        created = serial_pool(monkeypatch)
        monkeypatch.setattr(trainer_mod.os, "cpu_count", lambda: cpus)
        cfg = TrainConfig(epochs=1, method="baseline", n=4, batch_size=4)
        results = learning_curve_experiment(dataset, [4], ["baseline"], seeds,
                                            arch=TINY_ARCH, config=cfg, master_seed=5,
                                            jobs=jobs)
        assert len(results) == seeds
        assert created == ([] if workers is None else [workers])

    def test_parallel_jobs_identical_to_serial(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=2, method="setsum", n=2, batch_size=2)
        serial = learning_curve_experiment(dataset, [4], ["setsum"], 2,
                                           arch=TINY_ARCH, config=cfg, master_seed=4,
                                           jobs=1)
        parallel = learning_curve_experiment(dataset, [4], ["setsum"], 2,
                                             arch=TINY_ARCH, config=cfg, master_seed=4,
                                             jobs=2)
        assert serial == parallel
        write_aggregate_csv(tmp_path / "serial.csv", serial)
        write_aggregate_csv(tmp_path / "parallel.csv", parallel)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()
