"""The single-image count/volume regressor and its weight-shared set wrapper.

The base network maps one (channels, *spatial) image to one unconstrained
scalar: a chain of stride-1 same-padded conv+ReLU blocks with optional
channel-concatenation skip connections, global average pooling, and a final
single-output fully connected layer with no activation.  The graph is built
for a batch, (batch, channels, *spatial) in and (batch, 1) out; ``predict``
is the batch of one.  An image's output has the same bits in any batch (see
``setsum.autodiff``), and a set's prediction is the left-to-right sum of its
members' ``predict``s, in ``hydra_forward`` and ``hydra_loss`` alike.

``hydra_loss`` trains the network on a whole set as one graph, with one
loss against the set's summed label.  ``hydra_loss_replicated`` computes
the identical quantity through explicitly copied per-branch parameters, one
graph per slot with black slots included, whose gradients are summed
afterwards; it exists as a cross-check for the weight-sharing mechanics and
the black-slot skip, and is exercised by the test suite.

``predict`` and ``hydra_forward`` build no backward state: they run on the
parameters as constants sharing their arrays, so no node keeps a closure or
conv columns, and the output bits are those of the trainable forward.

The network has no additive terms anywhere (no conv or fc biases), so the
all-zero "black" image maps to exactly 0, and a black slot adds exactly
nothing to a set's prediction or to its gradients.  This is what lets a
black slot stand for "no image" with label 0, and what lets ``hydra_loss``
and ``hydra_forward`` skip black slots instead of computing them.

Conv kernels are held in tap-major memory behind their logical (c_out,
c_in, *taps) shape: each is a view of a C-order (taps[0], c_out, c_in,
*taps[1:]) array, the GEMM operand ``conv`` reads, so a forward pass uses
it without a copy.  ``SSRM1`` files keep logical C order.  A conv kernel's
``p.data`` is therefore not C-contiguous, and its ``ravel()`` is a copy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Tensor, backpropagate, concat_channels, conv, dropout_apply,
                       fully_connected, global_avg_pool, parameter, relu, rows)
from .data import (format_value, parse_float, parse_key_values, parse_list, parse_optional,
                   parse_pair_list, write_atomic)

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
    (kernel_size // 2); kernels are odd, so every block keeps the input's
    spatial extent and any skip concatenation fits.
    """

    input_shape: tuple[int, ...]
    conv_blocks: tuple[tuple[int, int], ...] = ((8, 3), (16, 3), (24, 3), (32, 3))
    skip_connections: tuple[tuple[int, int], ...] = ((1, 3),)
    dropout_rate: Optional[float] = None
    seed: int = 0

    @property
    def dims(self) -> int:
        return len(self.input_shape) - 1

    def __post_init__(self):
        if self.dims not in (2, 3):
            raise ValueError(f"input_shape {self.input_shape} must be "
                             f"(channels, *2 or 3 spatial extents)")
        if any(e < 1 for e in self.input_shape):
            raise ValueError(f"input_shape extents must be positive, got {self.input_shape}")
        if not self.conv_blocks:
            raise ValueError("need at least one conv block")
        for i, (maps, k) in enumerate(self.conv_blocks, start=1):
            if maps < 1 or k < 1 or k % 2 == 0:
                raise ValueError(f"conv block {i} has invalid (maps, kernel) = ({maps}, {k}); "
                                 f"maps must be positive and the kernel positive and odd")
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

    def black_image(self) -> np.ndarray:
        return np.zeros(self.architecture.input_shape)

    def copy_parameter_data(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters.items()}

    def load_parameter_data(self, values: dict[str, np.ndarray]) -> None:
        """Write ``values`` into the stored arrays, keeping their memory layout;
        nothing is written unless every value has its parameter's shape."""
        for name, p in self.parameters.items():
            if values[name].shape != p.shape:
                raise ValueError(f"parameter {name!r} has shape {p.shape}, "
                                 f"got a value of shape {values[name].shape}")
        for name, p in self.parameters.items():
            p.data[...] = values[name]


def _layer_plan(arch: ArchitectureConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Parameter names, shapes, and fan-ins in declaration order.

    A block's input channels are the previous block's output channels (the
    image's for block 1) plus those of each skip source into it.
    """
    plan: list[tuple[str, tuple[int, ...], int]] = []
    d = arch.dims
    channels = arch.input_shape[0]
    for i, (maps, k) in enumerate(arch.conv_blocks, start=1):
        in_ch = channels + sum(arch.conv_blocks[src - 1][0]
                               for src, dst in arch.skip_connections if dst == i)
        plan.append((f"conv{i}.kernel", (maps, in_ch) + (k,) * d, in_ch * k ** d))
        channels = maps
    plan.append(("fc.weight", (1, channels), channels))
    return plan


def _stored(name: str, values: np.ndarray) -> Tensor:
    """The parameter ``name`` holding ``values``; a conv kernel is held tap-major."""
    if values.ndim > 2:
        values = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 2, 0)), 0, 2)
    return parameter(values, name)


def build_base_regressor(config: ArchitectureConfig) -> RegressorModel:
    """Fresh model with fan-in-scaled uniform initialization from ``config.seed``.

    Weights draw from U(-sqrt(6/fan_in), +sqrt(6/fan_in)).  The same config
    and seed always produce bit-identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    for name, shape, fan_in in _layer_plan(config):
        bound = math.sqrt(6.0 / fan_in)
        params[name] = _stored(name, rng.uniform(-bound, bound, size=shape))
    return RegressorModel(config, params)


def _forward(arch: ArchitectureConfig, params: dict[str, Tensor], batch: np.ndarray,
             rng: np.random.Generator | None = None) -> Tensor:
    """Build the forward graph for a batch of images, shape (batch, *input_shape);
    returns the (batch, 1) output node.  Dropout runs only when ``rng`` is
    passed (a training step) and the architecture's rate is positive."""
    x = Tensor(batch)
    if x.shape[1:] != arch.input_shape:
        raise ValueError(f"input shape {x.shape[1:]} does not match "
                         f"architecture input {arch.input_shape}")
    rate = arch.dropout_rate
    use_dropout = rng is not None and rate is not None and rate > 0.0
    block_out: list[Tensor] = []
    for i in range(1, len(arch.conv_blocks) + 1):
        inp = x
        for src, dst in arch.skip_connections:
            if dst == i:
                inp = concat_channels(inp, block_out[src - 1])
        x = relu(conv(inp, params[f"conv{i}.kernel"]))
        if use_dropout:
            x = dropout_apply(x, rate, rng)
        block_out.append(x)
    pooled = global_avg_pool(x)
    if use_dropout:
        pooled = dropout_apply(pooled, rate, rng)
    return fully_connected(pooled, params["fc.weight"])


def _constants(model: RegressorModel) -> dict[str, Tensor]:
    """The parameters as constants sharing their arrays: no backward state."""
    return {name: Tensor(p.data) for name, p in model.parameters.items()}


def predict(model: RegressorModel, image: np.ndarray) -> float:
    """Scalar prediction for one image (a batch of one); no dropout, no backward state."""
    return _forward(model.architecture, _constants(model), image[np.newaxis]).item()


def _set_total(model: RegressorModel, params: dict[str, Tensor],
               images: Sequence[Optional[np.ndarray]],
               rng: np.random.Generator | None = None) -> Tensor:
    """A set's prediction: its real slots' outputs summed left to right.

    Black (``None``) slots are dropped: the network is bias-free, so a black
    slot adds exactly 0 to the set's prediction and to every gradient.  An
    all-black set keeps one black slot, so its graph still reaches every
    parameter.
    """
    if len(images) == 0:
        raise ValueError("a sample set needs at least one slot")
    real = [im for im in images if im is not None] or [model.black_image()]
    heads = rows(_forward(model.architecture, params, np.stack(real), rng))
    return sum(heads[1:], heads[0])


def hydra_forward(model: RegressorModel, images: Sequence[Optional[np.ndarray]]) -> float:
    """Summed prediction over a set of image slots (``None`` slots are black);
    builds no backward state."""
    return _set_total(model, _constants(model), images).item()


def _loss_node(total: Tensor, label: float, loss_kind: str) -> Tensor:
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")
    diff = total - float(label)
    return diff * diff if loss_kind == "mse" else diff.abs()


def hydra_loss(model: RegressorModel, images: Sequence[Optional[np.ndarray]], label: float,
               loss_kind: str = "mse", rng: np.random.Generator | None = None) -> Tensor:
    """Grouped loss node L(sum of slot predictions, label) for one set.

    The set's real slots go through the network as one batch, so every
    layer is one op for the whole set and each parameter's gradient
    accumulates across the branches; the per-slot predictions are then
    summed left to right inside the graph (the hydra's summing layer).
    Dropout runs only in a step that passes its generator as ``rng``.
    """
    return _loss_node(_set_total(model, model.parameters, images, rng), label, loss_kind)


def hydra_loss_replicated(model: RegressorModel, images: Sequence[Optional[np.ndarray]],
                          label: float, loss_kind: str = "mse",
                          ) -> tuple[float, dict[str, np.ndarray]]:
    """Replicated-branch cross-check for :func:`hydra_loss`.

    Builds one explicit parameter copy per branch (equal values, distinct
    tensors), runs every slot, black ones included, through its own branch
    as a batch of one, sums the branch outputs, and ties the weights after
    the fact by summing the per-copy gradients.  Returns (loss value,
    gradient map keyed like the shared parameters).
    """
    if len(images) == 0:
        raise ValueError("a sample set needs at least one slot")
    arch = model.architecture
    slots = [model.black_image() if im is None else im for im in images]
    branch_params: list[dict[str, Tensor]] = []
    for b in range(len(slots)):
        branch_params.append({name: parameter(p.data.copy(), f"{name}@{b}")
                              for name, p in model.parameters.items()})
    outputs = [_forward(arch, branch_params[b], im[np.newaxis])
               for b, im in enumerate(slots)]
    loss = _loss_node(sum(outputs[1:], outputs[0]), label, loss_kind)
    grads = backpropagate(loss)
    combined = {name: np.zeros_like(p.data) for name, p in model.parameters.items()}
    for b in range(len(slots)):
        for name in model.parameters:
            combined[name] += grads[f"{name}@{b}"]
    return loss.item(), combined


# ---------------------------------------------------------------------------
# serialization: magic, length-prefixed config text, then raw float64 params;
# config lines the loader does not read (``dims=`` in older files) are ignored
# ---------------------------------------------------------------------------

_ARCH_FIELDS = {
    "input_shape": parse_list(int),
    "conv_blocks": parse_pair_list,
    "skip_connections": parse_pair_list,
    "dropout_rate": parse_optional(parse_float),
    "seed": int,
}


def _config_text(arch: ArchitectureConfig) -> str:
    return "".join(f"{name}={format_value(getattr(arch, name))}\n" for name in _ARCH_FIELDS)


def _config_from_text(text: str) -> ArchitectureConfig:
    fields = {key: value for key, (value, _) in parse_key_values(text).items()}
    try:
        return ArchitectureConfig(**{name: parse(fields[name])
                                     for name, parse in _ARCH_FIELDS.items()})
    except KeyError as exc:
        raise ValueError(f"model file config block is missing key {exc}") from None


def save_model(model: RegressorModel, path) -> None:
    blob = _config_text(model.architecture).encode("utf-8")
    parts = [MODEL_MAGIC, struct.pack("<I", len(blob)), blob]
    for name, _, _ in _layer_plan(model.architecture):
        parts.append(model.parameters[name].data.astype("<f8", copy=False).tobytes(order="C"))
    write_atomic(path, b"".join(parts))


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
        nbytes = 8 * math.prod(shape)
        if len(payload) < offset + nbytes:
            raise ValueError(f"{path}: truncated payload at parameter {name!r}")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8").reshape(shape)
        params[name] = _stored(name, arr.astype(np.float64))
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} trailing bytes after parameters")
    return RegressorModel(arch, params)
