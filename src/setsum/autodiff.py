"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations build an implicit computation graph: every result remembers its
parent tensors, the kind of operation that produced it, and a closure that
pushes gradients back to those parents.  :func:`backpropagate` replays the
closures in reverse topological order, handing each one its node's gradient,
and returns the gradients of all named parameters reachable from the loss.
A closure never refers to its own node, so a finished graph holds no
reference cycle and is freed as soon as the last reference to it is dropped.

Only the primitives the count/volume regressor needs are implemented: 2D/3D
cross-correlation, ReLU, channel concatenation, global average pooling, fully
connected layers, inverted dropout, and the elementwise arithmetic used to
assemble scalar losses.  Everything is float64 and single-threaded per graph;
identical inputs give bit-identical forward and backward results.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "conv",
    "relu",
    "concat_channels",
    "global_avg_pool",
    "fully_connected",
    "dropout_apply",
    "backpropagate",
]

_Scalar = (int, float, np.integer, np.floating)


class Tensor:
    """A float64 n-d array node in the autodiff graph.

    Tensors are value-like: treat ``data`` as immutable once the tensor has
    entered a graph.  Parameter tensors (``requires_grad=True``, usually
    named) are the only ones mutated in place, and only by the optimizer
    between graph constructions.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{tag})"

    # -- elementwise arithmetic (same shape, or a python scalar operand) --

    def __add__(self, other):
        if isinstance(other, _Scalar):
            out = _result(self.data + float(other), "add", (self,))
            _elementwise_backward(out, self, lambda g: g)
            return out
        _check_same_shape("add", self, other)
        out = _result(self.data + other.data, "add", (self, other))
        if out.requires_grad:
            def _bw(g):
                if self.requires_grad:
                    self.grad += g
                if other.requires_grad:
                    other.grad += g
            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _result(-self.data, "neg", (self,))
        _elementwise_backward(out, self, lambda g: -g)
        return out

    def __sub__(self, other):
        if isinstance(other, _Scalar):
            out = _result(self.data - float(other), "sub", (self,))
            _elementwise_backward(out, self, lambda g: g)
            return out
        _check_same_shape("sub", self, other)
        out = _result(self.data - other.data, "sub", (self, other))
        if out.requires_grad:
            def _bw(g):
                if self.requires_grad:
                    self.grad += g
                if other.requires_grad:
                    other.grad -= g
            out._backward = _bw
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            c = float(other)
            out = _result(self.data * c, "mul", (self,))
            _elementwise_backward(out, self, lambda g: g * c)
            return out
        _check_same_shape("mul", self, other)
        out = _result(self.data * other.data, "mul", (self, other))
        if out.requires_grad:
            def _bw(g):
                if self.requires_grad:
                    self.grad += other.data * g
                if other.requires_grad:
                    other.grad += self.data * g
            out._backward = _bw
        return out

    __rmul__ = __mul__

    def abs(self) -> "Tensor":
        """Elementwise absolute value; the subgradient at 0 is 0."""
        out = _result(np.abs(self.data), "abs", (self,))
        _elementwise_backward(out, self, lambda g: np.sign(self.data) * g)
        return out


def parameter(data, name: str) -> Tensor:
    """A named, trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    out.op = op
    out._parents = parents
    out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _elementwise_backward(out: Tensor, x: Tensor, pull) -> None:
    if out.requires_grad:
        def _bw(g):
            x.grad += pull(g)
        out._backward = _bw


def _check_same_shape(op: str, a: Tensor, b) -> None:
    if not isinstance(b, Tensor):
        raise TypeError(f"{op}: expected Tensor or scalar, got {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# network primitives
# ---------------------------------------------------------------------------

def conv(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
         padding: int = 0) -> Tensor:
    """Cross-correlate ``x`` (channels, *spatial) with ``kernel`` at stride 1.

    ``kernel`` has layout (out_channels, in_channels, *spatial); output
    extents are in + 2*padding - k + 1 per spatial dimension.  ``bias``
    (out_channels,) is added per output channel.
    """
    d = kernel.ndim - 2
    if d not in (2, 3):
        raise ValueError(f"conv: kernel must have 2 or 3 spatial dimensions, got {d}")
    if x.ndim != d + 1:
        raise ValueError(f"conv: input must have shape (channels, *spatial), "
                         f"got {x.ndim} axes for {d} spatial dimensions")
    if kernel.shape[1] != x.shape[0]:
        raise ValueError(f"conv: input has {x.shape[0]} channels but kernel expects "
                         f"{kernel.shape[1]} (kernel axis 1)")
    if padding < 0:
        raise ValueError(f"conv: padding must be non-negative, got {padding}")
    kext = kernel.shape[2:]
    for i in range(d):
        padded = x.shape[1 + i] + 2 * padding
        if kext[i] > padded:
            raise ValueError(f"conv: spatial dimension {i} has padded extent {padded} "
                             f"smaller than kernel extent {kext[i]}")
    if bias is not None and bias.shape != (kernel.shape[0],):
        raise ValueError(f"conv: bias shape {bias.shape} does not match "
                         f"{kernel.shape[0]} output channels")

    c_in, c_out = x.shape[0], kernel.shape[0]
    if padding:
        xp = np.zeros((c_in,) + tuple(e + 2 * padding for e in x.shape[1:]))
        xp[(slice(None),) + tuple(slice(padding, padding + e) for e in x.shape[1:])] = x.data
    else:
        xp = x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, kext, axis=tuple(range(1, d + 1)))
    out_ext = win.shape[1:d + 1]
    positions = int(np.prod(out_ext))
    # flatten to a GEMM: (in_ch * kernel, positions) columns
    perm = (0,) + tuple(range(d + 1, 2 * d + 1)) + tuple(range(1, d + 1))
    col = win.transpose(perm).reshape(-1, positions)
    w_mat = kernel.data.reshape(c_out, -1)
    out_data = (w_mat @ col).reshape((c_out,) + out_ext)
    if bias is not None:
        out_data += bias.data.reshape((-1,) + (1,) * d)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = _result(out_data, "conv", parents)
    if out.requires_grad:
        def _bw(g):
            g_mat = g.reshape(c_out, -1)
            if kernel.requires_grad:
                kernel.grad += (g_mat @ col.T).reshape(kernel.shape)
            if bias is not None and bias.requires_grad:
                bias.grad += g_mat.sum(axis=1)
            if x.requires_grad:
                gp = _conv_input_grad(g, kernel.data, xp.shape, kext, d)
                if padding:
                    core = tuple(slice(padding, gp.shape[1 + i] - padding) for i in range(d))
                    x.grad += gp[(slice(None),) + core]
                else:
                    x.grad += gp
        out._backward = _bw
    return out


def _conv_input_grad(g: np.ndarray, kernel: np.ndarray, padded_shape: tuple[int, ...],
                     kext: tuple[int, ...], d: int) -> np.ndarray:
    """Gradient w.r.t. the padded input of a cross-correlation.

    This is itself a full correlation of the output gradient with the
    spatially flipped kernel, done as one GEMM.
    """
    c_out, c_in = kernel.shape[:2]
    out_ext = g.shape[1:]
    gpad = np.zeros((c_out,) + tuple(out_ext[i] + 2 * (kext[i] - 1) for i in range(d)))
    gpad[(slice(None),) + tuple(slice(kext[i] - 1, kext[i] - 1 + out_ext[i])
                                for i in range(d))] = g
    win = np.lib.stride_tricks.sliding_window_view(gpad, kext, axis=tuple(range(1, d + 1)))
    perm = (0,) + tuple(range(d + 1, 2 * d + 1)) + tuple(range(1, d + 1))
    col = win.transpose(perm).reshape(c_out * int(np.prod(kext)), -1)
    flipped = np.flip(kernel, axis=tuple(range(2, 2 + d)))
    w_mat = flipped.transpose((1, 0) + tuple(range(2, 2 + d))).reshape(c_in, -1)
    return (w_mat @ col).reshape((c_in,) + padded_shape[1:])


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    out = _result(np.maximum(x.data, 0.0), "relu", (x,))
    _elementwise_backward(out, x, lambda g: (x.data > 0.0) * g)
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; a's channels precede b's."""
    if a.ndim != b.ndim:
        raise ValueError(f"concat_channels: rank mismatch {a.ndim} vs {b.ndim}")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"concat_channels: spatial extents differ, "
                         f"{a.shape[1:]} vs {b.shape[1:]}")
    out = _result(np.concatenate([a.data, b.data], axis=0), "concat", (a, b))
    if out.requires_grad:
        ca = a.shape[0]
        def _bw(g):
            if a.requires_grad:
                a.grad += g[:ca]
            if b.requires_grad:
                b.grad += g[ca:]
        out._backward = _bw
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over all spatial positions, one value per channel."""
    if x.ndim < 2:
        raise ValueError("global_avg_pool: input needs at least one spatial dimension")
    c = x.shape[0]
    count = int(np.prod(x.shape[1:]))
    out = _result(x.data.reshape(c, -1).mean(axis=1), "gap", (x,))
    if out.requires_grad:
        def _bw(g):
            x.grad += (g / count).reshape((c,) + (1,) * (x.ndim - 1))
        out._backward = _bw
    return out


def fully_connected(x: Tensor, weights: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map Wx (+ b if present); ``weights`` has layout (out, in)."""
    if x.ndim != 1:
        raise ValueError(f"fully_connected: input must be a vector, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ValueError(f"fully_connected: weights shape {weights.shape} does not accept "
                         f"input of length {x.shape[0]}")
    if bias is not None and bias.shape != (weights.shape[0],):
        raise ValueError(f"fully_connected: bias shape {bias.shape} does not match "
                         f"{weights.shape[0]} outputs")
    out_data = weights.data @ x.data
    if bias is not None:
        out_data = out_data + bias.data
    parents = (x, weights) if bias is None else (x, weights, bias)
    out = _result(out_data, "fc", parents)
    if out.requires_grad:
        def _bw(g):
            if weights.requires_grad:
                weights.grad += np.outer(g, x.data)
            if bias is not None and bias.requires_grad:
                bias.grad += g
            if x.requires_grad:
                x.grad += weights.data.T @ g
        out._backward = _bw
    return out


def dropout_apply(x: Tensor, rate: float, training: bool,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate).

    Identity at inference time and at rate 0, so no rescaling is ever needed
    when evaluating.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_apply: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout_apply: training mode needs a random generator")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = _result(x.data * keep, "dropout", (x,))
    _elementwise_backward(out, x, lambda g: keep * g)
    return out


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backpropagate(loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar ``loss`` node.

    Returns a mapping from parameter name to gradient array for every named
    parameter reachable from the loss.  Repeated uses of a parameter within
    the graph accumulate their contributions.
    """
    if loss.data.size != 1:
        raise ValueError(f"backpropagate: loss must be scalar, got shape {loss.shape}")
    topo = _toposort(loss)
    for node in topo:
        if node.requires_grad:
            node.grad = np.zeros_like(node.data)
    if not loss.requires_grad:
        return {}
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
    return {n.name: n.grad for n in topo if n.name is not None and n.requires_grad}


def _toposort(root: Tensor) -> list[Tensor]:
    # iterative postorder; recursion would overflow on long op chains
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order
