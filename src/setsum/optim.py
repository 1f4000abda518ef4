"""Adadelta optimizer: adaptive per-dimension steps with no global learning rate.

Keeps exponentially decayed accumulators of squared gradients E[g^2] and
squared updates E[dx^2] per parameter, with the constants of Zeiler (2012,
ADADELTA), rho = ``RHO`` = 0.95 and eps = ``EPSILON`` = 1e-6, in every run:

    E[g^2]  <- rho * E[g^2]  + (1 - rho) * g^2
    dx      = -(sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps)) * g
    E[dx^2] <- rho * E[dx^2] + (1 - rho) * dx^2
    param  += dx
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Tensor

__all__ = ["RHO", "EPSILON", "AdadeltaState", "adadelta_step"]

RHO = 0.95
EPSILON = 1e-6


@dataclass
class AdadeltaState:
    """Per-parameter accumulators, created lazily as zeros on first use."""

    sq_grad: dict[str, np.ndarray] = field(default_factory=dict)
    sq_delta: dict[str, np.ndarray] = field(default_factory=dict)


def adadelta_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
                  state: AdadeltaState) -> None:
    """Apply one Adadelta update in place to every parameter named in ``grads``."""
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ValueError(f"adadelta_step: gradient shape {g.shape} does not match "
                             f"parameter {name!r} of shape {p.shape}")
        for acc in (state.sq_grad, state.sq_delta):
            if name not in acc:
                acc[name] = np.zeros_like(p.data)
        eg2, ed2 = state.sq_grad[name], state.sq_delta[name]
        eg2 *= RHO
        eg2 += (1.0 - RHO) * g * g
        delta = -(np.sqrt(ed2 + EPSILON) / np.sqrt(eg2 + EPSILON)) * g
        ed2 *= RHO
        ed2 += (1.0 - RHO) * delta * delta
        p.data += delta
