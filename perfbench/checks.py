"""Output checks and the ledger of attempted and failed operations.

Each check returns the number of failed operations among those it looked
at; the caller records both numbers in a :class:`Ledger`.  Tolerances:
``infer`` must equal per-image ``predict`` bit for bit, a black-padded set's
``hydra_forward`` must equal the sum of its real members' predictions within
1e-12 relative, and the grouped ``hydra_loss`` gradient must equal the
replicated-branch gradient within 1e-10 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

SET_SUM_RTOL = 1e-12
GRADIENT_ATOL = 1e-10


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


def infer_mismatches(inferred: Sequence[float], predicted: Sequence[float]) -> int:
    """Positions where ``infer`` and per-image ``predict`` differ in any bit."""
    if len(inferred) != len(predicted):
        return max(len(inferred), len(predicted))
    a = np.asarray(inferred, dtype=np.float64)
    b = np.asarray(predicted, dtype=np.float64)
    return int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64)))


def set_sum_mismatch(set_value: float, member_predictions: Sequence[float]) -> bool:
    """True when a set's summed prediction is off the members' sum by > 1e-12 relative."""
    expected = math.fsum(member_predictions)
    return not abs(set_value - expected) <= SET_SUM_RTOL * abs(expected)


def gradient_mismatch(loss: float, grads: Mapping[str, np.ndarray], ref_loss: float,
                      ref_grads: Mapping[str, np.ndarray]) -> bool:
    """True when the grouped loss or any parameter gradient is off the
    replicated-branch reference by more than 1e-10."""
    if set(grads) != set(ref_grads) or not abs(loss - ref_loss) <= GRADIENT_ATOL:
        return True
    return any(not float(np.abs(grads[k] - ref_grads[k]).max()) <= GRADIENT_ATOL
               for k in grads)


def never_called(calls: Mapping[str, int]) -> list[str]:
    """Hooked names that were called zero times: a hook that measures nothing."""
    return sorted(name for name, n in calls.items() if n == 0)
