"""Virtual-sample construction and on-the-fly image augmentation.

A virtual sample is a fixed-size set of image slots whose label is the sum
of the labels of its real members.  Each epoch, the training indices are
permuted and partitioned into sets without replacement; a slot can then be
substituted by the all-zero "black" image with probability ``p``, which both
varies the effective set size and acts as the regularization dial (the
expected number of real images per set is n*(1-p)).

Geometric augmentation (flips, small rotations, integer translations) never
touches the label: it is applied per real image before set assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

__all__ = [
    "BLACK",
    "SampleSet",
    "SetSamplerConfig",
    "AugmentationConfig",
    "make_epoch_sets",
    "virtual_label",
    "count_combinations",
    "random_geometric_augment",
    "mixup_pair",
]

# A black slot holds no image index; it resolves to the all-zero image.
BLACK = None


@dataclass(frozen=True)
class SampleSet:
    """One virtual sample: ordered slots (real index or BLACK) plus summed label."""

    slots: tuple[Optional[int], ...]
    virtual_label: float

    def real_indices(self) -> tuple[int, ...]:
        return tuple(s for s in self.slots if s is not BLACK)


@dataclass(frozen=True)
class SetSamplerConfig:
    """How epoch sets are drawn: ``n`` slots per set, each real slot black
    with probability ``p``."""

    n: int = 4
    p: float = 0.1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"set size n must be positive, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"black probability p must be in [0, 1], got {self.p}")


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


def make_epoch_sets(labels: Sequence[float], config: SetSamplerConfig,
                    rng: np.random.Generator) -> list[SampleSet]:
    """Build one epoch's virtual samples over a pool of ``len(labels)`` images.

    A random permutation of the pool is split into ceil(m/n) groups of n
    slots, the last group padded with BLACK when n does not divide m.  Each
    real slot is then independently replaced by BLACK with probability
    ``config.p`` (one uniform draw per real slot, in slot order), and the
    virtual label is the sum of the surviving real labels.
    """
    m = len(labels)
    if m < 1:
        raise ValueError("make_epoch_sets needs a non-empty pool")
    n, p = config.n, config.p
    perm = rng.permutation(m)
    groups = [list(perm[i:i + n]) for i in range(0, m, n)]
    sets = []
    for group in groups:
        slots: list[Optional[int]] = list(group) + [BLACK] * (n - len(group))
        if p > 0.0:
            for j, s in enumerate(slots):
                if s is not BLACK and rng.random() < p:
                    slots[j] = BLACK
        label = virtual_label([labels[s] for s in slots if s is not BLACK])
        sets.append(SampleSet(tuple(int(s) if s is not BLACK else BLACK for s in slots), label))
    return sets


@dataclass(frozen=True)
class AugmentationConfig:
    """Ranges for random flips, rotations, and integer translations.

    ``flip_axes`` lists spatial axes (0-based) eligible for a coin-flip
    mirror; rotation angles are uniform in +-``rotation_range_radians``
    (in-plane for 2D, one angle per axis for 3D); translations are uniform
    integers in +-``translation_range_voxels`` per axis, zero-filled.
    """

    flip_axes: tuple[int, ...] = ()
    rotation_range_radians: float = 0.2
    translation_range_voxels: int = 2

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
        out = _rotate(np.ascontiguousarray(out), angles)
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


def _rotate(image: np.ndarray, angles: list[float]) -> np.ndarray:
    """Rotate spatial axes about the spatial center, linear interpolation, zero fill."""
    d = image.ndim - 1
    rot = _rotation_matrix(angles, d)
    center = (np.asarray(image.shape[1:], dtype=np.float64) - 1.0) / 2.0
    # affine_transform maps output coords to input coords: x_in = M @ x_out + offset
    m_inv = rot.T
    offset = center - m_inv @ center
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        ndimage.affine_transform(image[c], m_inv, offset=offset, output=out[c],
                                 order=1, mode="constant", cval=0.0)
    return out


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
