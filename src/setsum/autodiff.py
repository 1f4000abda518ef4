"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations build an implicit computation graph: every result remembers its
parent tensors, the kind of operation that produced it, and a closure that
pushes gradients back to those parents.  :func:`backpropagate` replays the
closures in reverse topological order, handing each one its node's gradient,
and returns the gradients of all named parameters reachable from the loss.
A gradient lives only while the pass needs it, and afterwards only leaves
hold one; closures are kept, so a graph can be backpropagated again.  A
closure never refers to its own node, so a finished graph holds no
reference cycle and is freed as soon as the last reference to it is dropped.

Only the primitives the count/volume regressor needs are implemented:
same-padded 2D/3D cross-correlation, ReLU, channel concatenation, global
average pooling, fully connected layers, inverted dropout, splitting a
batch into its rows, and the elementwise arithmetic used to assemble scalar
losses.  The network primitives take a leading batch axis, (batch,
channels, *spatial), so one graph carries a whole set of images; pooling
and the fully connected layer act row by row.  Conv kernels have odd
extents k, and a conv pads each spatial axis by k // 2 zeros per side, so
its output keeps the input's extents.  One im2col routine does every conv
GEMM: the forward pass, and the input gradient as the same correlation
applied to the output gradient.  It has one path for every kernel and
size: it zero-pads the input (a 1x1 kernel pads by 0, a plain copy) and
copies a read-only strided window view of it into columns in blocks of at
most ``_BLOCK_BYTES`` per image, one GEMM per block; only the block
splitter reads that budget.  A conv node keeps the columns for the kernel
gradient when one block covers every position (every conv of the default
model at 16x16); otherwise it keeps the window view, 27 times smaller for
a 3x3x3 kernel, and rebuilds the blocks.  The budget is a constant, so no
result depends on the machine's caches or the batch size.  Everything is
float64 and single-threaded per graph; identical inputs give bit-identical
forward and backward results.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "parameter",
    "conv",
    "relu",
    "concat_channels",
    "global_avg_pool",
    "fully_connected",
    "rows",
    "dropout_apply",
    "backpropagate",
]

_Scalar = (int, float, np.integer, np.floating)

# Most bytes of im2col columns per image in one conv GEMM, sized to a 2 MiB L2.
_BLOCK_BYTES = 1 << 20


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

    # -- loss arithmetic: Tensor + Tensor, Tensor - scalar, Tensor * Tensor or scalar --

    def __add__(self, other):
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

    def __sub__(self, other):
        out = _result(self.data - float(other), "sub", (self,))
        _elementwise_backward(out, self, lambda g: g)
        return out

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
        raise TypeError(f"{op}: unsupported operand type {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# network primitives
# ---------------------------------------------------------------------------

def conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Same-padded cross-correlation of every item of ``x`` (batch, channels,
    *spatial) with ``kernel``.

    ``kernel`` has layout (out_channels, in_channels, *spatial) with odd
    spatial extents; the stride is 1 and each spatial axis of the input is
    padded by k // 2 zeros per side, so the output keeps the input's spatial
    extents.  The whole batch goes through :func:`_correlate`.  The node
    keeps what it returns: the im2col columns when one block covers every
    output position, else the padded input's window view, and the kernel
    gradient sums one GEMM per block of them.  The input gradient is the same
    routine applied to the output gradient with the flipped, channel-swapped
    kernel, whose extents, and so pads, are the same.  There is no bias: a
    zero input gives a zero output.
    """
    d = kernel.ndim - 2
    if d not in (2, 3):
        raise ValueError(f"conv: kernel must have 2 or 3 spatial dimensions, got {d}")
    if x.ndim != d + 2:
        raise ValueError(f"conv: input must have shape (batch, channels, *spatial), "
                         f"got {x.ndim} axes for {d} spatial dimensions")
    if kernel.shape[1] != x.shape[1]:
        raise ValueError(f"conv: input has {x.shape[1]} channels but kernel expects "
                         f"{kernel.shape[1]} (kernel axis 1)")
    if any(k % 2 == 0 for k in kernel.shape[2:]):
        raise ValueError(f"conv: kernel spatial extents must be odd, got {kernel.shape[2:]}")

    out_data, kept = _correlate(x.data, kernel.data)
    out = _result(out_data, "conv", (x, kernel))
    if out.requires_grad:
        def _bw(g):
            if kernel.requires_grad:
                g_mat = g.reshape(g.shape[0], g.shape[1], -1)
                # kept: (batch, c_in * taps, positions) columns, or the window view
                blocks = [(slice(None), kept)] if kept.ndim == 3 else _column_blocks(kept)
                for pos, col in blocks:
                    kernel.grad += np.matmul(g_mat[..., pos], col.transpose(0, 2, 1)) \
                        .sum(axis=0).reshape(kernel.shape)
            if x.requires_grad:
                flipped = np.flip(kernel.data, axis=tuple(range(2, d + 2))).swapaxes(0, 1)
                x.grad += _correlate(g, flipped)[0]
        out._backward = _bw
    return out


def _correlate(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 cross-correlation of every item of ``a`` (batch,
    c_in, *spatial) with ``w`` (c_out, c_in, *taps), taps odd, one GEMM per
    block of im2col columns.

    Spatial axis i of ``a`` is always copied into a zero array widened by
    taps[i] // 2 per side.  The windows are one read-only strided view of
    that copy, already in column order (batch, c_in, *taps, *positions): tap
    and position offsets both step by its spatial strides, so the windows
    overlap and the view must never be written.  Each block from
    :func:`_column_blocks` is one GEMM into its slice of the output.  Returns
    the (batch, c_out, *spatial) output and the (batch, c_in * taps,
    positions) columns when the loop ran once, else the window view.
    """
    taps, ext = w.shape[2:], a.shape[2:]
    wide = np.zeros(a.shape[:2] + tuple(e + k - 1 for e, k in zip(ext, taps)))
    wide[(...,) + tuple(slice(k // 2, k // 2 + e) for k, e in zip(taps, ext))] = a
    win = as_strided(wide, a.shape[:2] + taps + ext, wide.strides + wide.strides[2:],
                     writeable=False)
    w_mat = w.reshape(w.shape[0], -1)
    out = np.empty((a.shape[0], w.shape[0], math.prod(ext)))
    for pos, col in _column_blocks(win):
        np.matmul(w_mat, col, out=out[..., pos])
    kept = col if col.shape[2] == out.shape[2] else win
    return out.reshape(out.shape[:2] + ext), kept


def _column_blocks(win: np.ndarray):
    """Yield (flat output positions, (batch, c_in * taps, positions) columns)
    per block of the window view ``win``: as many whole rows of the first
    output axis as fit ``_BLOCK_BYTES`` of columns per image, at least one."""
    d = win.ndim // 2 - 1
    n0, rest = win.shape[2 + d], math.prod(win.shape[3 + d:])
    step = max(1, _BLOCK_BYTES * n0 * win.shape[0] // (8 * win.size))
    for r in range(0, n0, step):
        block = win[(slice(None),) * (2 + d) + (slice(r, r + step),)]
        col = block.reshape(win.shape[0], -1, block.shape[2 + d] * rest)
        yield slice(r * rest, r * rest + col.shape[2]), col


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    out = _result(np.maximum(x.data, 0.0), "relu", (x,))
    _elementwise_backward(out, x, lambda g: (x.data > 0.0) * g)
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1); a's channels precede b's."""
    if a.ndim != b.ndim:
        raise ValueError(f"concat_channels: rank mismatch {a.ndim} vs {b.ndim}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_channels: batch sizes differ, {a.shape[0]} vs {b.shape[0]}")
    if a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat_channels: spatial extents differ, "
                         f"{a.shape[2:]} vs {b.shape[2:]}")
    out = _result(np.concatenate([a.data, b.data], axis=1), "concat", (a, b))
    if out.requires_grad:
        ca = a.shape[1]
        def _bw(g):
            if a.requires_grad:
                a.grad += g[:, :ca]
            if b.requires_grad:
                b.grad += g[:, ca:]
        out._backward = _bw
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over all spatial positions: (batch, channels, *spatial) -> (batch, channels)."""
    if x.ndim < 3:
        raise ValueError("global_avg_pool: input must have shape (batch, channels, *spatial)")
    batch, c = x.shape[:2]
    count = int(np.prod(x.shape[2:]))
    out = _result(x.data.reshape(batch, c, -1).mean(axis=2), "gap", (x,))
    if out.requires_grad:
        def _bw(g):
            x.grad += (g / count).reshape((batch, c) + (1,) * (x.ndim - 2))
        out._backward = _bw
    return out


def fully_connected(x: Tensor, weights: Tensor) -> Tensor:
    """Row-wise linear map x W^T with no bias: (batch, in) -> (batch, out);
    ``weights`` has layout (out, in)."""
    if x.ndim != 2:
        raise ValueError(f"fully_connected: input must have shape (batch, features), "
                         f"got {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[1]:
        raise ValueError(f"fully_connected: weights shape {weights.shape} does not accept "
                         f"inputs of length {x.shape[1]}")
    out = _result(x.data @ weights.data.T, "fc", (x, weights))
    if out.requires_grad:
        def _bw(g):
            if weights.requires_grad:
                weights.grad += g.T @ x.data
            if x.requires_grad:
                x.grad += g @ weights.data
        out._backward = _bw
    return out


def rows(x: Tensor) -> list[Tensor]:
    """The items of a batch: ``rows(x)[b]`` is ``x[b]``, and its gradient flows
    into row b of ``x``."""
    items = []
    for b in range(x.shape[0]):
        item = _result(x.data[b], "row", (x,))
        if item.requires_grad:
            def _bw(g, b=b):
                x.grad[b] += g
            item._backward = _bw
        items.append(item)
    return items


def dropout_apply(x: Tensor, rate: float,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate).

    One mask is drawn for the whole tensor, batch axis included.
    Training-time only: inference builds no dropout node, and the survivor
    scaling means no rescaling is ever needed when evaluating.  Identity at
    rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_apply: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout_apply: needs a random generator")
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
    Every ``grad`` is reset to None first; a parent needing one gets zeros
    just before the first closure feeding it runs, and a node's own is set
    back to None once its closure has run, so only leaves keep theirs.
    """
    if loss.data.size != 1:
        raise ValueError(f"backpropagate: loss must be scalar, got shape {loss.shape}")
    topo = _toposort(loss)
    for node in topo:
        node.grad = None
    if not loss.requires_grad:
        return {}
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            for p in node._parents:
                if p.requires_grad and p.grad is None:
                    p.grad = np.zeros_like(p.data)
            node._backward(node.grad)
            node.grad = None
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
