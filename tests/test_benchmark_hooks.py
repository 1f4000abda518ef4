"""What the benchmark uses of the package must keep working.

``perfbench/instrument.py`` patches ``setsum.trainer`` and ``setsum.regressor``
module attributes and ``Tensor`` operators by name, and ``perfbench/workloads.py``
builds its runs from config keys; a refactor that unbinds one of those names
or removes one of those keys should fail here, not only when the benchmark
runs.
"""

import importlib.util
from pathlib import Path

import setsum.regressor
import setsum.trainer
from setsum.autodiff import Tensor

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
