"""What the benchmark uses of the package must keep working.

``perfbench/instrument.py`` patches ``setsum.trainer`` and ``setsum.regressor``
module attributes and ``Tensor`` operators by name, and ``perfbench/workloads.py``
builds its runs from config keys; a refactor that unbinds one of those names,
stops calling one of them during setsum training, or removes one of those
keys should fail here, not only when the benchmark runs.  So should a
gradient slip that the benchmark's own output checks catch.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import setsum.regressor
import setsum.trainer
from setsum.augment import AugmentationConfig
from setsum.autodiff import Tensor
from setsum.data import SyntheticConfig, generate_dataset
from setsum.regressor import ArchitectureConfig, build_base_regressor
from setsum.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INSTRUMENT = PERFBENCH / "instrument.py"


def _instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_names_are_callables():
    instrument = _instrument()
    for owner, names in ((setsum.trainer, instrument.TRAINER_CALLS),
                         (setsum.regressor, instrument.PRIMITIVES),
                         (Tensor, instrument.ARITHMETIC)):
        for name in names:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_workload_configs_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS.values():
        for w in (workload, workload.smoke_variant()):
            config = w.run_config(1)
            config.synthetic_config()
            config.architecture(model_seed=1)
            batch = config.train_config().batch_size
            # workloads.py reads the raw key; the resolved batch is what trains
            if workload.name == "setsum_2d16":
                assert batch == config["train.n"] and config["train.batch_size"] is None
            if workload.name == "baseline_3d12":
                assert batch == 1 and config["train.batch_size"] == 1


def _assert_workload_hooks_reached(tmp_path, monkeypatch, config: TrainConfig):
    # the traced benchmark run counts a hook that is never called as a failed
    # operation; the names asserted are those perfbench/workloads.py `trace`
    # hooks for a workload of this method, batch size and augmentation
    instrument = _instrument()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, names in ((setsum.trainer, instrument.TRAINER_CALLS),
                         (setsum.regressor, instrument.PRIMITIVES),
                         (Tensor, instrument.ARITHMETIC)):
        for name in names:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    synth = SyntheticConfig(image_extent=(8, 8), blob_count_range=(0, 3),
                            blob_sigma_range=(0.45, 0.7), seed=3)
    manifest = generate_dataset(tmp_path, synth, 6, 2, 5)
    arch = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                              skip_connections=((1, 2),), seed=4)
    model, _ = setsum.trainer.train(build_base_regressor(arch), manifest, config,
                                    np.random.default_rng(5))
    before = calls["predict"]
    inferred = setsum.trainer.infer(model, manifest, "test")
    # the untraced probe times each predict inside infer, one per test image
    assert calls["predict"] - before == 5
    names = ["train", "infer", "predict", "hydra_loss", "backpropagate", "adadelta_step",
             "load_split"]
    if config.method == "setsum":
        names.append("make_epoch_sets")
    if config.augmentation is not None:
        names.append("random_geometric_augment")
    names += list(instrument.PRIMITIVES) + ["__sub__", "__mul__"]
    if config.method == "setsum" or config.batch_size > 1:
        names.append("__add__")
    assert [name for name in names if calls[name] == 0] == []
    # after the count, whose hooks the checks' own forward passes would also reach;
    # the benchmark counts a failed output check as an incorrect output
    ledger = workloads.Ledger()
    workloads.check_model(model, manifest, inferred, ledger)
    assert ledger.failed == 0, ledger.failures


def test_setsum_training_reaches_every_hooked_op(tmp_path, monkeypatch):
    # the setsum_2d16 shape: one set of n per step, augmentation on
    aug = AugmentationConfig(flip_axes=(0, 1), rotation_range_radians=0.2,
                             translation_range_voxels=1)
    config = TrainConfig(epochs=2, n=4, p=0.1, augmentation=aug)
    _assert_workload_hooks_reached(tmp_path, monkeypatch, config)


def test_baseline_training_reaches_every_hooked_op(tmp_path, monkeypatch):
    # the baseline_3d12 shape: batch 1, augmentation off
    config = TrainConfig(epochs=2, method="baseline", batch_size=1)
    _assert_workload_hooks_reached(tmp_path, monkeypatch, config)
