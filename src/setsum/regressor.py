"""The single-image count/volume regressor and its weight-shared set wrapper.

The base network maps one (channels, *spatial) image to one unconstrained
scalar: a chain of stride-1 same-padded conv+ReLU blocks with optional
channel-concatenation skip connections, global average pooling, and a final
single-output fully connected layer with no activation.

``hydra_loss`` trains the network on a whole set at once: every slot is
pushed through the same parameter tensors (the branches share weights by
construction, so gradients accumulate across slots), the scalar predictions
are summed inside the graph, and the loss is computed once against the
set's summed label.  ``hydra_loss_replicated`` computes the identical
quantity through explicitly copied per-branch parameters whose gradients
are summed afterwards; it exists as a cross-check for the weight-sharing
mechanics and is exercised by the test suite.

With ``zero_bias=True`` (the default) the network has no additive terms
anywhere, so the all-zero "black" image maps to exactly 0 and a set padded
with black slots predicts exactly what the single real image would.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Tensor, backpropagate, concat_channels, conv, dropout_apply,
                       fully_connected, global_avg_pool, parameter, relu)

__all__ = [
    "MODEL_MAGIC",
    "ArchitectureConfig",
    "RegressorModel",
    "build_base_regressor",
    "predict",
    "hydra_forward",
    "hydra_loss",
    "hydra_loss_replicated",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"SSRM1"
LOSS_KINDS = ("mse", "mae")


@dataclass(frozen=True)
class ArchitectureConfig:
    """Shape of the base regressor.

    ``conv_blocks`` lists (feature_maps, kernel_size) per block, numbered
    from 1; ``skip_connections`` are (source_block, target_block) pairs
    realized by concatenating the source block's output channels onto the
    target block's input.  All convolutions are stride 1 with same padding
    (kernel_size // 2).  ``zero_bias=True`` omits every bias term so the
    all-zero image maps to exactly 0.
    """

    input_shape: tuple[int, ...]
    conv_blocks: tuple[tuple[int, int], ...] = ((8, 3), (16, 3), (24, 3), (32, 3))
    skip_connections: tuple[tuple[int, int], ...] = ((1, 3),)
    dims: int = 2
    dropout_rate: Optional[float] = None
    zero_bias: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {self.dims}")
        if len(self.input_shape) != self.dims + 1:
            raise ValueError(f"input_shape {self.input_shape} must be "
                             f"(channels, *{self.dims} spatial extents)")
        if any(e < 1 for e in self.input_shape):
            raise ValueError(f"input_shape extents must be positive, got {self.input_shape}")
        if not self.conv_blocks:
            raise ValueError("need at least one conv block")
        for i, (maps, k) in enumerate(self.conv_blocks, start=1):
            if maps < 1 or k < 1:
                raise ValueError(f"conv block {i} has invalid (maps, kernel) = ({maps}, {k})")
        nb = len(self.conv_blocks)
        for src, dst in self.skip_connections:
            if not (1 <= src < dst <= nb):
                raise ValueError(f"skip connection {src}->{dst} must satisfy "
                                 f"1 <= source < target <= {nb}")
        if self.dropout_rate is not None and not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class RegressorModel:
    architecture: ArchitectureConfig
    parameters: dict[str, Tensor]

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters.values())

    def black_image(self) -> np.ndarray:
        return np.zeros(self.architecture.input_shape)

    def copy_parameter_data(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters.items()}

    def load_parameter_data(self, values: dict[str, np.ndarray]) -> None:
        for name, p in self.parameters.items():
            p.data = values[name].copy()


def _layer_plan(arch: ArchitectureConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Parameter names, shapes, and fan-ins in declaration order.

    Walks the block graph, tracking channel counts and spatial extents so
    that incompatible skip concatenations are rejected up front.
    """
    plan: list[tuple[str, tuple[int, ...], int]] = []
    d = arch.dims
    channels = arch.input_shape[0]
    extent = arch.input_shape[1:]
    block_channels: list[int] = []
    block_extent: list[tuple[int, ...]] = []
    for i, (maps, k) in enumerate(arch.conv_blocks, start=1):
        in_ch = channels
        for src, dst in arch.skip_connections:
            if dst == i:
                if block_extent[src - 1] != extent:
                    raise ValueError(
                        f"skip connection {src}->{i} concatenates extent "
                        f"{block_extent[src - 1]} onto {extent}; use odd kernels "
                        f"so blocks preserve their spatial extents")
                in_ch += block_channels[src - 1]
        pad = k // 2
        for ax, e in enumerate(extent):
            if e + 2 * pad < k:
                raise ValueError(f"block {i}: kernel {k} exceeds padded extent on axis {ax}")
        extent = tuple((e + 2 * pad - k) + 1 for e in extent)
        kshape = (maps, in_ch) + (k,) * d
        plan.append((f"conv{i}.kernel", kshape, in_ch * k ** d))
        if not arch.zero_bias:
            plan.append((f"conv{i}.bias", (maps,), 0))
        channels = maps
        block_channels.append(maps)
        block_extent.append(extent)
    plan.append(("fc.weight", (1, channels), channels))
    if not arch.zero_bias:
        plan.append(("fc.bias", (1,), 0))
    return plan


def build_base_regressor(config: ArchitectureConfig) -> RegressorModel:
    """Fresh model with fan-in-scaled uniform initialization from ``config.seed``.

    Weights draw from U(-sqrt(6/fan_in), +sqrt(6/fan_in)); biases (when
    present) start at zero.  The same config and seed always produce
    bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    for name, shape, fan_in in _layer_plan(config):
        if name.endswith(".bias"):
            params[name] = parameter(np.zeros(shape), name)
        else:
            bound = math.sqrt(6.0 / fan_in)
            params[name] = parameter(rng.uniform(-bound, bound, size=shape), name)
    return RegressorModel(config, params)


def _forward(arch: ArchitectureConfig, params: dict[str, Tensor], image,
             training: bool = False, rng: np.random.Generator | None = None,
             taps: list[Tensor] | None = None) -> Tensor:
    """Build the forward graph for one image; returns the (1,) output node.

    ``taps``, when given, collects the pre-activation conv outputs (used by
    gradient tests to keep inputs away from the ReLU kinks).
    """
    x = image if isinstance(image, Tensor) else Tensor(image)
    if x.shape != arch.input_shape:
        raise ValueError(f"input shape {x.shape} does not match "
                         f"architecture input {arch.input_shape}")
    rate = arch.dropout_rate
    use_dropout = training and rate is not None and rate > 0.0
    block_out: list[Tensor] = []
    for i, (maps, k) in enumerate(arch.conv_blocks, start=1):
        inp = x
        for src, dst in arch.skip_connections:
            if dst == i:
                inp = concat_channels(inp, block_out[src - 1])
        pre = conv(inp, params[f"conv{i}.kernel"], params.get(f"conv{i}.bias"),
                   padding=k // 2)
        if taps is not None:
            taps.append(pre)
        x = relu(pre)
        if use_dropout:
            x = dropout_apply(x, rate, True, rng)
        block_out.append(x)
    pooled = global_avg_pool(x)
    if use_dropout:
        pooled = dropout_apply(pooled, rate, True, rng)
    return fully_connected(pooled, params["fc.weight"], params.get("fc.bias"))


def predict(model: RegressorModel, image: np.ndarray) -> float:
    """Scalar prediction for one image; dropout inactive."""
    return _forward(model.architecture, model.parameters, image).item()


def _materialize(model: RegressorModel, images: Sequence[Optional[np.ndarray]]) -> list[np.ndarray]:
    if len(images) == 0:
        raise ValueError("a sample set needs at least one slot")
    return [model.black_image() if im is None else im for im in images]


def hydra_forward(model: RegressorModel, images: Sequence[Optional[np.ndarray]]) -> float:
    """Summed prediction over a set of image slots; ``None`` slots are black."""
    return float(sum(predict(model, im) for im in _materialize(model, images)))


def _loss_node(total: Tensor, label: float, loss_kind: str) -> Tensor:
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")
    diff = total - Tensor(np.full(total.shape, float(label)))
    return diff * diff if loss_kind == "mse" else diff.abs()


def hydra_loss(model: RegressorModel, images: Sequence[Optional[np.ndarray]], label: float,
               loss_kind: str = "mse", training: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
    """Grouped loss node L(sum of slot predictions, label) for one set.

    All slots run through the same parameter tensors, so a single
    ``backpropagate`` on the returned node accumulates each parameter's
    gradient across every branch.
    """
    arch = model.architecture
    outputs = [_forward(arch, model.parameters, im, training=training, rng=rng)
               for im in _materialize(model, images)]
    total = outputs[0]
    for out in outputs[1:]:
        total = total + out
    return _loss_node(total, label, loss_kind)


def hydra_loss_replicated(model: RegressorModel, images: Sequence[Optional[np.ndarray]],
                          label: float, loss_kind: str = "mse",
                          ) -> tuple[float, dict[str, np.ndarray]]:
    """Replicated-branch cross-check for :func:`hydra_loss`.

    Builds one explicit parameter copy per branch (equal values, distinct
    tensors), sums the branch outputs, and ties the weights after the fact
    by summing the per-copy gradients.  Returns (loss value, gradient map
    keyed like the shared parameters).
    """
    arch = model.architecture
    slots = _materialize(model, images)
    branch_params: list[dict[str, Tensor]] = []
    for b in range(len(slots)):
        branch_params.append({name: parameter(p.data.copy(), f"{name}@{b}")
                              for name, p in model.parameters.items()})
    outputs = [_forward(arch, branch_params[b], im) for b, im in enumerate(slots)]
    total = outputs[0]
    for out in outputs[1:]:
        total = total + out
    loss = _loss_node(total, label, loss_kind)
    grads = backpropagate(loss)
    combined = {name: np.zeros_like(p.data) for name, p in model.parameters.items()}
    for b in range(len(slots)):
        for name in model.parameters:
            combined[name] += grads[f"{name}@{b}"]
    return loss.item(), combined


# ---------------------------------------------------------------------------
# serialization: magic, length-prefixed config text, then raw float64 params
# ---------------------------------------------------------------------------

def _config_text(arch: ArchitectureConfig) -> str:
    lines = [
        "input_shape=" + ",".join(str(e) for e in arch.input_shape),
        "conv_blocks=" + ",".join(f"{m}:{k}" for m, k in arch.conv_blocks),
        "skip_connections=" + ",".join(f"{s}:{d}" for s, d in arch.skip_connections),
        f"dims={arch.dims}",
        "dropout_rate=" + ("none" if arch.dropout_rate is None else repr(arch.dropout_rate)),
        f"zero_bias={'true' if arch.zero_bias else 'false'}",
        f"seed={arch.seed}",
    ]
    return "\n".join(lines) + "\n"


def _config_from_text(text: str) -> ArchitectureConfig:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        fields[key] = value
    try:
        pairs = lambda v: tuple(tuple(int(x) for x in item.split(":")) for item in v.split(",")) if v else ()
        return ArchitectureConfig(
            input_shape=tuple(int(x) for x in fields["input_shape"].split(",")),
            conv_blocks=pairs(fields["conv_blocks"]),
            skip_connections=pairs(fields["skip_connections"]),
            dims=int(fields["dims"]),
            dropout_rate=None if fields["dropout_rate"] == "none" else float(fields["dropout_rate"]),
            zero_bias=fields["zero_bias"] == "true",
            seed=int(fields["seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"model file config block is missing key {exc}") from None


def save_model(model: RegressorModel, path) -> None:
    blob = _config_text(model.architecture).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, _, _ in _layer_plan(model.architecture):
            fh.write(model.parameters[name].data.astype("<f8", copy=False).tobytes(order="C"))


def load_model(path) -> RegressorModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:5]!r}, expected {MODEL_MAGIC!r}")
    if len(blob) < 9:
        raise ValueError(f"{path}: truncated header")
    (text_len,) = struct.unpack("<I", blob[5:9])
    if len(blob) < 9 + text_len:
        raise ValueError(f"{path}: truncated config block")
    arch = _config_from_text(blob[9:9 + text_len].decode("utf-8"))
    payload = blob[9 + text_len:]
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape, _ in _layer_plan(arch):
        nbytes = 8 * int(np.prod(shape))
        if len(payload) < offset + nbytes:
            raise ValueError(f"{path}: truncated payload at parameter {name!r}")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8").reshape(shape)
        params[name] = parameter(arr.astype(np.float64), name)
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} trailing bytes after parameters")
    return RegressorModel(arch, params)
