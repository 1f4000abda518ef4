"""The names the benchmark's tracer rebinds must stay callables where it looks them up.

``perfbench/instrument.py`` patches ``setsum.trainer`` and ``setsum.regressor``
module attributes and ``Tensor`` operators by name; a refactor that unbinds
one of them should fail here, not only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import setsum.regressor
import setsum.trainer
from setsum.autodiff import Tensor

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"


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
