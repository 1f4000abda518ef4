"""What the benchmark uses of the package must keep working.

``perfbench/instrument.py`` patches ``setsum.trainer`` and ``setsum.regressor``
module attributes and ``Tensor`` operators by name, and ``perfbench/workloads.py``
builds its runs from config keys; a refactor that unbinds one of those names,
stops calling one of them during setsum training, or removes one of those
keys should fail here, not only when the benchmark runs.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import setsum.regressor
import setsum.trainer
from setsum.autodiff import Tensor
from setsum.data import SyntheticConfig, generate_dataset
from setsum.regressor import ArchitectureConfig, build_base_regressor
from setsum.trainer import TrainConfig, train

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
            config.train_config()


def test_setsum_training_reaches_every_hooked_op(tmp_path, monkeypatch):
    # the traced benchmark run counts a hook that is never called as a failed
    # operation; a setsum run must reach every primitive and operator it hooks
    instrument = _instrument()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in instrument.PRIMITIVES:
        monkeypatch.setattr(setsum.regressor, name,
                            counting(name, getattr(setsum.regressor, name)))
    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Tensor, name, counting(name, getattr(Tensor, name)))
    synth = SyntheticConfig(image_extent=(8, 8), blob_count_range=(0, 3),
                            blob_sigma_range=(0.45, 0.7), seed=3)
    manifest = generate_dataset(tmp_path, synth, 6, 2, 1)
    arch = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                              skip_connections=((1, 2),), seed=4)
    train(build_base_regressor(arch), manifest, TrainConfig(epochs=2, n=4, p=0.1),
          np.random.default_rng(5))
    names = list(instrument.PRIMITIVES) + ["__add__", "__sub__", "__mul__"]
    assert [name for name in names if calls[name] == 0] == []
