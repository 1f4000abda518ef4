"""Virtual-sample construction and on-the-fly image augmentation.

A virtual sample is a fixed-size set of image slots, each a real index, or
``None`` for a black slot: the all-zero image.  Its label is the sum of the
labels of its real members.  Each epoch, the training indices are permuted
and partitioned into sets without replacement; each real slot is then made
black with probability ``p``, which both varies the effective set size and
acts as the regularization dial (n*(1-p) real images per set on average).

Geometric augmentation (flips, small rotations, integer translations) never
touches the label: it is applied per real image before set assembly.
Rotation is a numpy kernel: each output voxel is the linear interpolation
of the input at its inverse-rotated position, the 2^d surrounding voxels
weighted and summed in the order-1 arithmetic of SciPy's
``affine_transform``, and 0 where that position leaves the image.  Its
output is bit-identical to SciPy's; ``_rotate`` states the rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "SampleSet",
    "AugmentationConfig",
    "make_epoch_sets",
    "virtual_label",
    "count_combinations",
    "random_geometric_augment",
    "mixup_pair",
]

@dataclass(frozen=True)
class SampleSet:
    """One virtual sample: slots (a real index, or ``None`` for a black slot) and summed label."""

    slots: tuple[Optional[int], ...]
    virtual_label: float

    def real_indices(self) -> tuple[int, ...]:
        return tuple(s for s in self.slots if s is not None)


def virtual_label(labels: Sequence[float]) -> float:
    """Sum of the real slot labels; an empty (all-black) set sums to 0."""
    return float(sum(labels))


def count_combinations(m: int, n: int) -> int:
    """Number of distinct non-empty sets of at most n samples from a pool of m.

    Exact big-integer sum of binomial(m, i) for i = 1..n.
    """
    if m < 1:
        raise ValueError(f"pool size m must be positive, got {m}")
    if not 1 <= n <= m:
        raise ValueError(f"set size n must satisfy 1 <= n <= m, got n={n}, m={m}")
    return sum(math.comb(m, i) for i in range(1, n + 1))


def make_epoch_sets(labels: Sequence[float], n: int, p: float,
                    rng: np.random.Generator) -> list[SampleSet]:
    """Build one epoch's virtual samples over a pool of ``len(labels)`` images.

    A random permutation of the pool is split into ceil(m/n) groups of ``n``
    slots, the last group padded with black slots (``None``) when n does not
    divide m.  Each real slot is then independently made black with
    probability ``p`` (one uniform draw per real slot, in slot order), and the
    virtual label is the sum of the surviving real labels.
    """
    if n < 1:
        raise ValueError(f"set size n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"black probability p must be in [0, 1], got {p}")
    m = len(labels)
    if m < 1:
        raise ValueError("make_epoch_sets needs a non-empty pool")
    slots: list[Optional[int]] = rng.permutation(m).tolist()
    if p > 0.0:
        slots = [None if black else s for s, black in zip(slots, rng.random(m) < p)]
    slots += [None] * (-m % n)
    return [SampleSet(tuple(group), virtual_label([labels[s] for s in group if s is not None]))
            for group in (slots[i:i + n] for i in range(0, len(slots), n))]


@dataclass(frozen=True)
class AugmentationConfig:
    """Ranges for random flips, rotations, and integer translations.

    ``flip_axes`` lists spatial axes (0-based) eligible for a coin-flip
    mirror; rotation angles are uniform in +-``rotation_range_radians``
    (in-plane for 2D, one angle per axis for 3D); translations are uniform
    integers in +-``translation_range_voxels`` per axis, zero-filled.  The
    default, no flip axes and zero ranges, is the identity: it draws nothing
    and returns its input, and it is how a run trains without augmentation.
    """

    flip_axes: tuple[int, ...] = ()
    rotation_range_radians: float = 0.0
    translation_range_voxels: int = 0

    def __post_init__(self):
        if self.rotation_range_radians < 0:
            raise ValueError("rotation range must be non-negative")
        if self.translation_range_voxels < 0:
            raise ValueError("translation range must be non-negative")


def random_geometric_augment(image: np.ndarray, config: AugmentationConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Randomly flip, rotate, and translate a (channels, *spatial) image.

    Draws happen in a fixed order: one coin per configured flip axis, then
    the rotation angle(s) when the range is positive, then one integer
    offset per spatial axis when the range is positive.  Out-of-bounds
    regions are filled with 0.  A config with no flip axes and zero ranges
    is the identity.
    """
    d = image.ndim - 1
    if d not in (2, 3):
        raise ValueError(f"expected (channels, *spatial) with 2 or 3 spatial axes, "
                         f"got shape {image.shape}")
    for ax in config.flip_axes:
        if not 0 <= ax < d:
            raise ValueError(f"flip axis {ax} out of range for {d} spatial dimensions")
    out = image
    for ax in config.flip_axes:
        if rng.random() < 0.5:
            out = np.flip(out, axis=ax + 1)
    if config.rotation_range_radians > 0.0:
        r = config.rotation_range_radians
        if d == 2:
            angles = [rng.uniform(-r, r)]
        else:
            angles = [rng.uniform(-r, r) for _ in range(3)]
        out = _rotate(out, angles)
    if config.translation_range_voxels > 0:
        t = config.translation_range_voxels
        offsets = [int(rng.integers(-t, t + 1)) for _ in range(d)]
        out = _integer_shift(out, offsets)
    return out


def _rotation_matrix(angles: list[float], d: int) -> np.ndarray:
    if d == 2:
        c, s = math.cos(angles[0]), math.sin(angles[0])
        return np.array([[c, -s], [s, c]])
    mats = []
    for ax, theta in enumerate(angles):
        c, s = math.cos(theta), math.sin(theta)
        m = np.eye(3)
        i, j = [k for k in range(3) if k != ax]
        m[i, i] = c
        m[i, j] = -s
        m[j, i] = s
        m[j, j] = c
        mats.append(m)
    return mats[2] @ mats[1] @ mats[0]


class _RotationGrid(NamedTuple):
    """Constants of `_rotate` that depend only on the spatial extent."""

    axes: tuple[np.ndarray, ...]   # output coordinate along axis k, shaped to broadcast
    center: np.ndarray             # (e - 1) / 2 per axis
    last: np.ndarray               # (d, 1) column of e - 1, the highest in-range coordinate
    padded_shape: tuple[int, ...]  # extent + 1 per axis
    interior: tuple[slice, ...]    # (channels, *extent) block of the padded input
    strides: np.ndarray            # flat-index stride per axis of the padded input, as floats
    corners: np.ndarray            # (2^d, 1) flat offset of each corner, last axis fastest


@functools.lru_cache(maxsize=8)
def _rotation_grid(extent: tuple[int, ...]) -> _RotationGrid:
    d = len(extent)
    padded_shape = tuple(e + 1 for e in extent)
    strides = [math.prod(padded_shape[h + 1:]) for h in range(d)]
    corners = [sum(((k >> (d - 1 - h)) & 1) * strides[h] for h in range(d)) for k in range(2 ** d)]
    grid = _RotationGrid(
        axes=tuple(np.arange(e, dtype=np.float64).reshape((e,) + (1,) * (d - 1 - h))
                   for h, e in enumerate(extent)),
        center=(np.asarray(extent, dtype=np.float64) - 1.0) / 2.0,
        last=np.asarray(extent, dtype=np.float64).reshape(d, 1) - 1.0,
        padded_shape=padded_shape,
        interior=(slice(None),) + tuple(slice(0, e) for e in extent),
        strides=np.asarray(strides, dtype=np.float64),
        corners=np.asarray(corners, dtype=np.intp).reshape(-1, 1),
    )
    for field in grid:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return grid


def _rotate(image: np.ndarray, angles: list[float]) -> np.ndarray:
    """Rotate spatial axes about the spatial center, linear interpolation, zero fill.

    Output voxel ``x`` samples the input at ``c = m @ x + offset``, with
    ``m = rot.T`` and ``offset = center - m @ center``.  The arithmetic is
    that of SciPy's ``affine_transform(order=1, mode="constant", cval=0.0)``,
    so the result is bit-identical to it:

    - ``c[h]`` is ``offset[h] + m[h, 0] * x[0]``, then ``+ m[h, 1] * x[1]``,
      then ``+ m[h, 2] * x[2]``, each step rounded in that order;
    - the output is 0 wherever some ``c[h]`` leaves ``[0, e_h - 1]``;
    - with ``s = floor(c[h])`` the weights are ``w0 = 1 - (c[h] - s)`` for
      ``s`` and ``w1 = 1 - w0`` for ``s + 1``;
    - each of the 2^d corners, in row-major order, contributes
      ``((v * w_0) * w_1)[* w_2]``, and the terms are summed left to right
      from 0.0.

    The input is padded with one zero plane at the top of each axis, so the
    zero-weight far corner of ``c[h] = e_h - 1`` stays in range.
    """
    d = image.ndim - 1
    channels = image.shape[0]
    grid = _rotation_grid(image.shape[1:])
    m = _rotation_matrix(angles, d).T
    offset = grid.center - m @ grid.center
    columns = m.T.reshape((d, d) + (1,) * d)  # columns[k] is m[:, k], shaped to broadcast
    c = offset.reshape(columns.shape[1:]) + columns[0] * grid.axes[0]
    for k in range(1, d):
        c = c + columns[k] * grid.axes[k]
    c = c.reshape(d, -1)
    ok = (c >= 0.0) & (c <= grid.last)
    inside = ok[0]
    for h in range(1, d):
        inside = inside & ok[h]
    start = np.floor(c)
    w = np.empty((2,) + c.shape)
    np.subtract(c, start, out=w[1])
    np.subtract(1.0, w[1], out=w[0])
    np.subtract(1.0, w[0], out=w[1])  # w1 = 1 - w0, not c - s: the two can differ in the last bit
    base = grid.strides @ start  # exact: small integers
    base *= inside  # points outside read corner 0; their output is zeroed below
    padded = np.zeros((channels,) + grid.padded_shape)
    padded[grid.interior] = image
    terms = np.take(padded.reshape(channels, -1), base.astype(np.intp) + grid.corners, axis=1)
    by_axis = terms.reshape((channels,) + (2,) * d + (-1,))
    for h in range(d):
        by_axis *= w[:, h].reshape((2,) + (1,) * (d - 1 - h) + (-1,))
    out = terms[:, 0] + 0.0
    for k in range(1, 2 ** d):
        out += terms[:, k]
    return np.where(inside, out, 0.0).reshape(image.shape)


def _integer_shift(image: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """Shift spatial axes by integer offsets, filling vacated voxels with 0."""
    out = np.zeros_like(image)
    src: list[slice] = [slice(None)]
    dst: list[slice] = [slice(None)]
    for ax, off in enumerate(offsets):
        extent = image.shape[ax + 1]
        if abs(off) >= extent:
            return out
        if off >= 0:
            dst.append(slice(off, extent))
            src.append(slice(0, extent - off))
        else:
            dst.append(slice(0, extent + off))
            src.append(slice(-off, extent))
    out[tuple(dst)] = image[tuple(src)]
    return out


def mixup_pair(x1: np.ndarray, y1: float, x2: np.ndarray, y2: float,
               lam: float) -> tuple[np.ndarray, float]:
    """Linear combination of two samples: (lam*x1 + (1-lam)*x2, lam*y1 + (1-lam)*y2)."""
    if x1.shape != x2.shape:
        raise ValueError(f"mixup_pair: shape mismatch {x1.shape} vs {x2.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixup_pair: lambda must be in [0, 1], got {lam}")
    return lam * x1 + (1.0 - lam) * x2, lam * y1 + (1.0 - lam) * y2
