"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations build an implicit computation graph: every result remembers its
parent tensors and a closure that pushes gradients back to those parents.
:func:`backpropagate` replays the closures in reverse topological order,
handing each one its node's gradient, and returns the gradients of all named
parameters reachable from the loss.  A gradient lives only while the pass
needs it, and afterwards only leaves hold one; closures are kept, so a graph
can be backpropagated again.  A closure never refers to its own node, so a
finished graph holds no reference cycle and is freed as soon as the last
reference to it is dropped.  Every primitive but conv declares one gradient
pull per parent through ``_node``, which installs the closure; conv keeps its
own to take both gradients from one unfolding of the output gradient, block
by block.

Only the primitives the count/volume regressor needs are implemented:
same-padded 2D/3D cross-correlation, ReLU, channel concatenation, global
average pooling, fully connected layers, inverted dropout, splitting a
batch into its rows, and the elementwise arithmetic used to assemble scalar
losses.  The network primitives take a leading batch axis, (batch,
channels, *spatial), so one graph carries a whole set of images; pooling
and the fully connected layer act row by row.  Conv kernels have odd
extents k, and a conv pads each spatial axis by k // 2 zeros per side, so
its output keeps the input's extents.  Conv is lowered to GEMMs by
unfolding along every spatial axis but the first (memory-efficient
convolution; Cho & Brand 2017): the zero-padded input is copied once into
columns over the other axes' taps, and each first-axis tap is one GEMM on
a contiguous slice of them.  The backward pass unfolds the output gradient
the same way and takes both gradients from it, so a conv node keeps
nothing but its parents.  Columns are built for whole images, as many as
fit ``_BLOCK_BYTES`` and at least one, so a block is at most max(1 MiB,
one image's columns), 4.6 MB for a 32-channel 12x12x12 gradient.  Each
image gets its own GEMMs, so its output and input gradient depend neither
on the machine's caches nor on its batch.  Conv's shape checks and
shape-only work (padded shapes, window strides, column slices) are computed
once per (input shape, kernel shape), in a bounded cache that holds no
arrays.  Everything is float64 and single-threaded per graph; identical
inputs give bit-identical forward and backward results.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

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

# Most bytes of conv columns in one block of whole images, sized to a 2 MiB L2.
_BLOCK_BYTES = 1 << 20


class Tensor:
    """A float64 n-d array node in the autodiff graph.

    Tensors are value-like: treat ``data`` as immutable once the tensor has
    entered a graph.  Parameter tensors (``requires_grad=True``, usually
    named) are the only ones mutated in place, and only by the optimizer
    between graph constructions.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
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
        return f"Tensor(shape={self.shape}{tag})"

    # -- loss arithmetic: Tensor + Tensor, Tensor - scalar, Tensor * Tensor or scalar --

    def __add__(self, other):
        _check_same_shape("add", self, other)
        return _node(self.data + other.data, (self, lambda g: g), (other, lambda g: g))

    def __sub__(self, other):
        return _node(self.data - float(other), (self, lambda g: g))

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            c = float(other)
            return _node(self.data * c, (self, lambda g: g * c))
        _check_same_shape("mul", self, other)
        return _node(self.data * other.data, (self, lambda g: other.data * g),
                     (other, lambda g: self.data * g))

    def abs(self) -> "Tensor":
        """Elementwise absolute value; the subgradient at 0 is 0."""
        return _node(np.abs(self.data), (self, lambda g: np.sign(self.data) * g))


def parameter(data, name: str) -> Tensor:
    """A named, trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def _result(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    out._parents = parents
    out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _node(data: np.ndarray, *pulls) -> Tensor:
    """A node whose parents are the tensors of the (parent, pull) pairs
    ``pulls``, in order; its closure adds pull(g) to the gradient of each
    parent that needs one."""
    out = _result(data, tuple([p for p, _ in pulls]))
    if out.requires_grad:
        def _bw(g):
            for p, pull in pulls:
                if p.requires_grad:
                    p.grad += pull(g)
        out._backward = _bw
    return out


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
    extents.  The forward pass is :func:`_tap_sum` over the input's
    :func:`_tap_views`.  The backward pass unfolds the output gradient once:
    the input gradient is the same tap sum with the flipped, channel-swapped
    kernel, and first-axis kernel tap k0 - 1 - s is x @ view_s^T, flipped
    and channel-swapped, as dW[o, c, t] = sum_u x[c, u] g_pad[o, u + k-1-t].
    There is no bias: a zero input gives a zero output.
    """
    plan = _conv_plan(x.shape, kernel.shape)
    out_data = np.empty(plan.out_shape)
    out_mat = out_data.reshape(plan.out_mat_shape)
    w_taps = _tap_major(kernel.data)
    for b, views in _tap_views(x.data, plan.x):
        _tap_sum(w_taps, views, out_mat[b])
    out = _result(out_data, (x, kernel))
    if out.requires_grad:
        def _bw(g):
            flipped = _tap_major(kernel.data[plan.flip].swapaxes(0, 1))
            x_mat = x.data.reshape(plan.x_mat_shape)
            for b, views in _tap_views(g, plan.g):
                if x.requires_grad:
                    x.grad[b] += _tap_sum(flipped, views).reshape(x.grad[b].shape)
                if kernel.requires_grad:
                    # (tap s, c_in, c_out * taps[1:]): kernel tap k0 - 1 - s, flipped
                    dw = np.stack([np.matmul(x_mat[b], v.transpose(0, 2, 1)) for v in views])
                    kernel.grad += dw.sum(axis=1).reshape(plan.dw_shape).swapaxes(0, 2)[plan.flip]
        out._backward = _bw
    return out


class _Unfold(NamedTuple):
    """What :func:`_tap_views` needs of one (batch, channels, *spatial) shape
    and its kernel's taps; ints, tuples and slices only."""

    wide_shape: tuple[int, ...]   # the zero-padded array
    interior: tuple               # the unpadded array's block of it: ..., then slices
    win_shape: tuple[int, ...]    # (batch, c, *taps[1:], padded first extent, *extents[1:])
    win_strides: tuple[int, ...]  # bytes, from the C-order float64 padded shape
    image_bytes: int              # one image's columns
    cols_shape: tuple[int, ...]   # (c * prod(taps[1:]), padded first extent * row) per image
    taps: tuple[slice, ...]       # column slice of each first-axis tap


class _ConvPlan(NamedTuple):
    """Everything of a conv that depends only on its input and kernel shapes."""

    out_shape: tuple[int, ...]
    out_mat_shape: tuple[int, ...]  # (batch, c_out, positions)
    x_mat_shape: tuple[int, ...]    # (batch, c_in, positions)
    dw_shape: tuple[int, ...]       # (taps[0], c_in, c_out, *taps[1:]), flipped
    flip: tuple[slice, ...]         # reverses every spatial axis of a kernel
    x: _Unfold                      # the input's unfolding
    g: _Unfold                      # the output gradient's unfolding


@functools.lru_cache(maxsize=64)
def _conv_plan(x_shape: tuple[int, ...], kernel_shape: tuple[int, ...]) -> _ConvPlan:
    """Conv's shape checks and its shape-only work, done once per shape pair.

    A bad shape raises on every call, since a raised exception is never
    cached.  The plan holds no array and no column budget: ``_BLOCK_BYTES``
    is read by every :func:`_tap_views` call.
    """
    d = len(kernel_shape) - 2
    if d not in (2, 3):
        raise ValueError(f"conv: kernel must have 2 or 3 spatial dimensions, got {d}")
    if len(x_shape) != d + 2:
        raise ValueError(f"conv: input must have shape (batch, channels, *spatial), "
                         f"got {len(x_shape)} axes for {d} spatial dimensions")
    if kernel_shape[1] != x_shape[1]:
        raise ValueError(f"conv: input has {x_shape[1]} channels but kernel expects "
                         f"{kernel_shape[1]} (kernel axis 1)")
    taps = kernel_shape[2:]
    if any(k % 2 == 0 for k in taps):
        raise ValueError(f"conv: kernel spatial extents must be odd, got {taps}")
    out_shape = x_shape[:1] + kernel_shape[:1] + x_shape[2:]
    positions = math.prod(x_shape[2:])
    return _ConvPlan(
        out_shape=out_shape,
        out_mat_shape=out_shape[:2] + (positions,),
        x_mat_shape=x_shape[:2] + (positions,),
        dw_shape=taps[:1] + x_shape[1:2] + kernel_shape[:1] + taps[1:],
        flip=(slice(None),) * 2 + (slice(None, None, -1),) * d,
        x=_unfold(x_shape, taps),
        g=_unfold(out_shape, taps),
    )


def _unfold(shape: tuple[int, ...], taps: tuple[int, ...]) -> _Unfold:
    ext = shape[2:]
    wide_shape = shape[:2] + tuple(e + k - 1 for e, k in zip(ext, taps))
    wide_strides = tuple(8 * math.prod(wide_shape[i + 1:]) for i in range(len(wide_shape)))
    win_shape = shape[:2] + taps[1:] + wide_shape[2:3] + ext[1:]
    row = math.prod(ext[1:])
    n = ext[0] * row
    return _Unfold(
        wide_shape=wide_shape,
        interior=(...,) + tuple(slice(k // 2, k // 2 + e) for k, e in zip(taps, ext)),
        win_shape=win_shape,
        win_strides=wide_strides[:2] + wide_strides[3:] + wide_strides[2:],
        image_bytes=8 * math.prod(win_shape[1:]),
        cols_shape=(shape[1] * math.prod(taps[1:]), wide_shape[2] * row),
        taps=tuple(slice(k * row, k * row + n) for k in range(taps[0])),
    )


def _tap_views(a: np.ndarray, u: _Unfold):
    """Yield (batch slice, views) per block of whole images of ``a`` (batch,
    c, *spatial), zero-padded by taps[i] // 2 per side of spatial axis i, as
    planned in ``u`` by :func:`_unfold`.

    A block holds as many images as fit ``_BLOCK_BYTES`` of columns, at least
    one: the padded input unfolded over taps[1:], with positions over the
    whole padded first axis, copied into one reused buffer.  ``views[k]``,
    first-axis tap k's columns, is then a contiguous slice of it, valid until
    the next block is drawn.
    """
    wide = np.zeros(u.wide_shape)
    wide[u.interior] = a
    # tap and position offsets both step by wide's strides: the windows
    # overlap, so the view must never be written
    win = np.ndarray(u.win_shape, buffer=wide, strides=u.win_strides)
    step = max(1, _BLOCK_BYTES // u.image_bytes)
    buf = np.empty((min(step, a.shape[0]),) + u.win_shape[1:])
    for start in range(0, a.shape[0], step):
        block = buf[:a.shape[0] - start]
        np.copyto(block, win[start:start + step])
        cols = block.reshape((block.shape[0],) + u.cols_shape)
        yield slice(start, start + step), [cols[:, :, t] for t in u.taps]


def _tap_major(w: np.ndarray) -> np.ndarray:
    """``w`` (c_out, c_in, *taps) laid out as (taps[0], c_out, c_in *
    prod(taps[1:])): one GEMM operand per first-axis tap."""
    return w.swapaxes(0, 2).swapaxes(1, 2).reshape(w.shape[2], w.shape[0], -1)


def _tap_sum(w_taps: np.ndarray, views: list[np.ndarray], out: np.ndarray | None = None):
    """The (images, c_out, positions) correlation of one block with the
    kernel laid out by :func:`_tap_major`: one GEMM per first-axis tap k, of
    w_taps[k] with ``views[k]`` from :func:`_tap_views`, summed in tap order
    into ``out`` (a new array when None)."""
    out = np.matmul(w_taps[0], views[0], out=out)
    for w_k, view in zip(w_taps[1:], views[1:]):
        out += np.matmul(w_k, view)
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    return _node(np.maximum(x.data, 0.0), (x, lambda g: (x.data > 0.0) * g))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1); a's channels precede b's."""
    if a.ndim != b.ndim:
        raise ValueError(f"concat_channels: rank mismatch {a.ndim} vs {b.ndim}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_channels: batch sizes differ, {a.shape[0]} vs {b.shape[0]}")
    if a.shape[2:] != b.shape[2:]:
        raise ValueError(f"concat_channels: spatial extents differ, "
                         f"{a.shape[2:]} vs {b.shape[2:]}")
    ca = a.shape[1]
    return _node(np.concatenate([a.data, b.data], axis=1),
                 (a, lambda g: g[:, :ca]), (b, lambda g: g[:, ca:]))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over all spatial positions: (batch, channels, *spatial) -> (batch, channels)."""
    if x.ndim < 3:
        raise ValueError("global_avg_pool: input must have shape (batch, channels, *spatial)")
    batch, c = x.shape[:2]
    count = math.prod(x.shape[2:])
    # what np.mean computes, bit for bit, without its Python layer
    return _node(x.data.reshape(batch, c, -1).sum(axis=2) / count,
                 (x, lambda g: (g / count).reshape((batch, c) + (1,) * (x.ndim - 2))))


def fully_connected(x: Tensor, weights: Tensor) -> Tensor:
    """Row-wise linear map x W^T with no bias: (batch, in) -> (batch, out);
    ``weights`` has layout (out, in)."""
    if x.ndim != 2:
        raise ValueError(f"fully_connected: input must have shape (batch, features), "
                         f"got {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[1]:
        raise ValueError(f"fully_connected: weights shape {weights.shape} does not accept "
                         f"inputs of length {x.shape[1]}")
    return _node(x.data @ weights.data.T, (x, lambda g: g @ weights.data),
                 (weights, lambda g: g.T @ x.data))


def rows(x: Tensor) -> list[Tensor]:
    """The items of a batch: ``rows(x)[b]`` is ``x[b]``, and its gradient flows
    into row b of ``x`` as a pull of zeros with row b set."""
    return [_node(x.data[b], (x, functools.partial(_into_row, x.shape, b)))
            for b in range(x.shape[0])]


def _into_row(shape: tuple[int, ...], b: int, g: np.ndarray) -> np.ndarray:
    full = np.zeros(shape)
    full[b] = g
    return full


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
    return _node(x.data * keep, (x, lambda g: keep * g))


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
