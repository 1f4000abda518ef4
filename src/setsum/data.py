"""Synthetic counting datasets, preprocessing, and file formats.

Images are Gaussian blobs on a dark background; the count label is the
number of blobs placed and the volume label is the number of voxels of the
noise-free field above a threshold, so both labels are exact by
construction for the uncropped image: under a ``crop_extent`` they still
count the blobs and voxels that fall outside the stored crop.  Generation
is deterministic: record ``i`` of a dataset built with master seed ``s``
draws blob sigmas, amplitudes, centers and noise, in that order, from the
generator seeded with ``[s, i]``, which also makes per-record generation
safely parallelizable.

File formats:

* tensor file: magic ``SSTF1``, u8 dimension count, little-endian u32
  extents, then the row-major finite float64 payload (little-endian).
* manifest: UTF-8 CSV with header ``path,count_label,volume_label,split``;
  paths are relative to the manifest's directory and must stay inside it,
  and each file appears once, however its path is spelled.
* CSV artifacts: written by :func:`write_csv`, which, like the model file,
  replaces its target atomically (:func:`write_atomic`).
* ``key=value`` text, in run configs and the model file: one pair per line,
  values ``true``/``false``, finite floats, comma-separated lists, ``a:b``
  pair lists, ``none`` for an unset optional value; :func:`format_value`
  writes what the parsers read.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "TENSOR_MAGIC",
    "TensorFormatError",
    "SyntheticConfig",
    "ImageRecord",
    "DatasetManifest",
    "generate_blob_image",
    "center_of_mass_crop",
    "rescale_intensity",
    "write_tensor",
    "read_tensor",
    "write_atomic",
    "format_float",
    "write_csv",
    "write_manifest",
    "read_manifest",
    "split_count_sequence",
    "generate_dataset",
    "load_split",
]

TENSOR_MAGIC = b"SSTF1"
MANIFEST_HEADER = ["path", "count_label", "volume_label", "split"]
SPLITS = ("train", "val", "test")
LABEL_KINDS = ("count", "volume")


class TensorFormatError(ValueError):
    """Raised when a tensor file does not parse."""


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the blob-count generator."""

    image_extent: tuple[int, ...] = (16, 16)
    blob_count_range: tuple[int, int] = (0, 8)
    blob_sigma_range: tuple[float, float] = (0.6, 0.9)
    intensity_range: tuple[float, float] = (0.8, 1.2)
    noise_sigma: float = 0.05
    volume_threshold: float = 0.3
    seed: int = 0

    @property
    def dims(self) -> int:
        return len(self.image_extent)

    def __post_init__(self):
        if self.dims not in (2, 3):
            raise ValueError(f"image_extent {self.image_extent} must have 2 or 3 extents")
        if any(e < 1 for e in self.image_extent):
            raise ValueError(f"image extents must be positive, got {self.image_extent}")
        for name in ("blob_count_range", "blob_sigma_range", "intensity_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} has min > max: ({lo}, {hi})")
        if self.blob_count_range[0] < 0:
            raise ValueError("blob counts must be non-negative")
        if self.blob_sigma_range[0] <= 0:
            raise ValueError("blob sigmas must be positive")
        if self.intensity_range[0] <= 0:
            raise ValueError("blob intensities must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if min(self.image_extent) <= 4 * self.blob_sigma_range[1]:
            raise ValueError(f"image extent {self.image_extent} too small for blobs of "
                             f"sigma up to {self.blob_sigma_range[1]} (needs > 4x sigma)")


_PLACEMENT_TRIES = 200
_PLACEMENT_RESTARTS = 50


def _place_centers(sigmas: np.ndarray, extent: tuple[int, ...],
                   rng: np.random.Generator) -> np.ndarray | None:
    """Sequential rejection sampling of blob centers; None when it dead-ends."""
    k = len(sigmas)
    centers = np.empty((k, len(extent)))
    for i in range(k):
        margin = 2.0 * sigmas[i]
        lo = np.full(len(extent), margin)
        hi = np.asarray(extent, dtype=np.float64) - margin
        for _ in range(_PLACEMENT_TRIES):
            c = rng.uniform(lo, hi)
            gaps = np.linalg.norm(centers[:i] - c, axis=1)
            if np.all(gaps >= 2.0 * (sigmas[:i] + sigmas[i])):
                centers[i] = c
                break
        else:
            return None
    return centers


def generate_blob_image(config: SyntheticConfig, count: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One synthetic image of ``count`` blobs with its exact volume label.

    Places ``count`` Gaussian blobs at random centers kept at least
    2*(sigma_i + sigma_j) apart, adds Gaussian pixel noise, and clips
    intensities at 0.  Returns ``(image, volume_label)`` where the image has
    shape (1, *image_extent) and volume_label counts the voxels of the
    noise-free field above ``volume_threshold``.

    Draw order is fixed (sigmas, amplitudes, centers, noise), so the
    noise-free field of a record can be reproduced by re-running with
    ``noise_sigma=0`` and the same generator seed.
    """
    extent = config.image_extent
    sigmas = rng.uniform(*config.blob_sigma_range, size=count)
    amplitudes = rng.uniform(*config.intensity_range, size=count)
    for _ in range(_PLACEMENT_RESTARTS):
        centers = _place_centers(sigmas, extent, rng)
        if centers is not None:
            break
    else:
        raise ValueError(f"could not place {count} blobs in extent {extent} after "
                         f"{_PLACEMENT_RESTARTS}x{_PLACEMENT_TRIES} tries; "
                         f"reduce blob count or sigma")
    coords = np.stack(np.meshgrid(*[np.arange(e, dtype=np.float64) for e in extent],
                                  indexing="ij"), axis=-1)
    clean = np.zeros(extent)
    for i in range(count):
        sq = np.sum((coords - centers[i]) ** 2, axis=-1)
        clean += amplitudes[i] * np.exp(-sq / (2.0 * sigmas[i] ** 2))
    volume = int(np.count_nonzero(clean > config.volume_threshold))
    image = np.maximum(clean + rng.normal(0.0, config.noise_sigma, size=extent), 0.0)
    return image[np.newaxis], volume


def center_of_mass_crop(image: np.ndarray, crop_extent: Sequence[int]) -> np.ndarray:
    """Crop a (channels, *spatial) image around its intensity-weighted center.

    The window is centered at round(sum(x*w)/sum(w)) per axis and clamped to
    stay inside the image.  An all-zero image is cropped around its
    geometric center.
    """
    d = image.ndim - 1
    crop = tuple(int(e) for e in crop_extent)
    if len(crop) != d:
        raise ValueError(f"crop extent {crop} does not match {d} spatial dimensions")
    for ax in range(d):
        if not 1 <= crop[ax] <= image.shape[ax + 1]:
            raise ValueError(f"crop extent {crop[ax]} exceeds image extent "
                             f"{image.shape[ax + 1]} on axis {ax}")
    weights = image.sum(axis=0)
    total = weights.sum()
    centers = []
    for ax in range(d):
        extent = weights.shape[ax]
        if total == 0.0:
            centers.append((extent - 1) / 2.0)
        else:
            axis_w = weights.sum(axis=tuple(a for a in range(d) if a != ax))
            centers.append(float(np.arange(extent) @ axis_w / total))
    window = [slice(None)]
    for ax in range(d):
        start = int(np.rint(centers[ax])) - crop[ax] // 2
        start = min(max(start, 0), image.shape[ax + 1] - crop[ax])
        window.append(slice(start, start + crop[ax]))
    return image[tuple(window)].copy()


def rescale_intensity(image: np.ndarray) -> np.ndarray:
    """Affinely map intensities to [0, 1]; a constant image maps to all zeros."""
    lo = image.min()
    hi = image.max()
    if hi == lo:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# tensor file format
# ---------------------------------------------------------------------------

def write_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValueError(f"tensor rank {arr.ndim} not storable")
    if 0 in arr.shape:
        raise ValueError(f"zero extent in shape {arr.shape} not storable")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: array holds non-finite values (NaN or inf), not storable")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<B", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != TENSOR_MAGIC:
        raise TensorFormatError(f"{path}: bad magic {blob[:5]!r}, expected {TENSOR_MAGIC!r}")
    if len(blob) < 6:
        raise TensorFormatError(f"{path}: truncated header")
    ndim = blob[5]
    if ndim == 0:
        raise TensorFormatError(f"{path}: dimension count 0, a tensor has at least 1")
    header_end = 6 + 4 * ndim
    if len(blob) < header_end:
        raise TensorFormatError(f"{path}: truncated extent list ({ndim} dims declared)")
    shape = struct.unpack(f"<{ndim}I", blob[6:header_end])
    if any(e == 0 for e in shape):
        raise TensorFormatError(f"{path}: zero extent in shape {shape}")
    count = math.prod(shape)
    payload = blob[header_end:]
    if len(payload) != 8 * count:
        raise TensorFormatError(f"{path}: header declares {count} values "
                                f"but payload holds {len(payload) // 8}")
    array = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(array).all():
        raise TensorFormatError(f"{path}: payload holds non-finite values (NaN or inf)")
    return array


# ---------------------------------------------------------------------------
# atomic writes and CSV artifacts
# ---------------------------------------------------------------------------

def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temporary file in the same directory and are synced to
    disk before that file is renamed over ``path``, so a crash leaves either
    the old content or the complete new one, never a renamed empty file; on
    any failure the temporary file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def format_float(value: Optional[float]) -> str:
    """Shortest round-trip decimal form; None becomes ``NA``."""
    return "NA" if value is None else repr(float(value))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a UTF-8 CSV: nothing reaches ``path`` unless every row
    was produced.  Float and None cells go through :func:`format_float`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(v) if v is None or isinstance(v, float) else v
                         for v in row])
    write_atomic(path, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# key=value text
# ---------------------------------------------------------------------------

def parse_key_values(text: str) -> dict[str, tuple[str, int]]:
    """``key=value`` lines as ``{key: (value, line number)}``; blank lines and
    ``#`` comments are skipped, and a repeated key is an error."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r} "
                             f"(first set on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


def parse_bool(v: str) -> bool:
    if v not in ("true", "false"):
        raise ValueError(f"expected true or false, got {v!r}")
    return v == "true"


def parse_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def parse_list(item: Callable):
    """Comma-separated values, each read by ``item``; the empty string is ()."""
    return lambda v: tuple(item(x) for x in v.split(",")) if v else ()


def parse_pair(item: Callable, sep: str = ","):
    def read(v: str) -> tuple:
        parts = v.split(sep)
        if len(parts) != 2:
            raise ValueError(f"expected two values separated by {sep!r}, got {v!r}")
        return item(parts[0]), item(parts[1])
    return read


parse_pair_list = parse_list(parse_pair(int, ":"))


def parse_optional(fn: Callable):
    return lambda v: None if v == "none" else fn(v)


def format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(str(x) for x in value)
    return str(value)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageRecord:
    path: str
    count_label: int
    volume_label: int
    split: str


@dataclass
class DatasetManifest:
    """All records of a dataset plus which label column is in use."""

    records: list[ImageRecord]
    label_kind: str = "count"
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"label_kind must be one of {LABEL_KINDS}, got {self.label_kind!r}")
        self.base_dir = Path(self.base_dir)

    def split_records(self, split: str) -> list[ImageRecord]:
        return [r for r in self.records if r.split == split]

    def label_of(self, record: ImageRecord) -> float:
        return float(record.count_label if self.label_kind == "count"
                     else record.volume_label)


def write_manifest(path, manifest: DatasetManifest) -> None:
    write_csv(path, MANIFEST_HEADER,
              ([r.path, r.count_label, r.volume_label, r.split] for r in manifest.records))


def read_manifest(path, label_kind: str = "count") -> DatasetManifest:
    path = Path(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != MANIFEST_HEADER:
        raise ValueError(f"{path}: expected header {','.join(MANIFEST_HEADER)!r}")
    records = []
    seen = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        rec_path, count_s, volume_s, split = row
        norm = os.path.normpath(rec_path)
        # "", "." and "images/.." normalise to ".", the directory itself
        if os.path.isabs(rec_path) or norm.split(os.sep)[0] in (os.curdir, os.pardir):
            raise ValueError(f"{path}:{lineno}: path {rec_path!r} names no file inside "
                             f"the manifest's directory")
        if norm in seen:
            raise ValueError(f"{path}:{lineno}: duplicate path {rec_path!r}")
        seen.add(norm)
        if split not in SPLITS:
            raise ValueError(f"{path}:{lineno}: unknown split {split!r}")
        try:
            count, volume = int(count_s), int(volume_s)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: labels must be integers") from None
        if count < 0 or volume < 0:
            raise ValueError(f"{path}:{lineno}: labels must be non-negative")
        if max(count, volume) > 2 ** 53:  # float64 holds each integer up to here exactly
            raise ValueError(f"{path}:{lineno}: labels must be at most 2**53")
        records.append(ImageRecord(rec_path, count, volume, split))
    return DatasetManifest(records, label_kind=label_kind, base_dir=path.parent)


def load_split(manifest: DatasetManifest, split: str) -> tuple[list[np.ndarray], np.ndarray]:
    """Images and labels of one split, in manifest order."""
    records = manifest.split_records(split)
    images = [read_tensor(manifest.base_dir / r.path) for r in records]
    labels = np.array([manifest.label_of(r) for r in records], dtype=np.float64)
    return images, labels


def split_count_sequence(count_range: tuple[int, int], size: int) -> list[int]:
    """Blob counts spread evenly over ``count_range`` for one split of ``size``.

    Keeps every split's label distribution pseudo-uniform by construction,
    so subsampled training sets, the fixed validation scans, and the test
    set all cover the whole count range.
    """
    lo, hi = count_range
    if size <= 0:
        return []
    if size == 1:
        return [int(round((lo + hi) / 2))]
    return [lo + int(round(j * (hi - lo) / (size - 1))) for j in range(size)]


def generate_dataset(out_dir, config: SyntheticConfig, num_train: int, num_val: int,
                     num_test: int, *, crop_extent: tuple[int, ...] | None = None,
                     rescale: bool = True, label_kind: str = "count") -> DatasetManifest:
    """Generate, preprocess, and store a full dataset with a manifest.

    Records are numbered across splits in the order train, val, test; record
    ``i`` uses the generator seeded with ``[config.seed, i]`` so the dataset
    is byte-reproducible.  Blob counts follow :func:`split_count_sequence`
    per split (pseudo-uniform label coverage); everything else about each
    image is random.  An earlier ``manifest.csv`` is deleted first, so a run
    that fails part way leaves no loadable dataset.
    """
    counts = {"train": num_train, "val": num_val, "test": num_test}
    if any(c < 0 for c in counts.values()):
        raise ValueError(f"split sizes must be non-negative, got {counts}")
    out_dir = Path(out_dir)
    (out_dir / "manifest.csv").unlink(missing_ok=True)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    planned = [(split, k) for split in SPLITS
               for k in split_count_sequence(config.blob_count_range, counts[split])]
    records = []
    for idx, (split, k) in enumerate(planned):
        image, volume = generate_blob_image(config, k, np.random.default_rng([config.seed, idx]))
        if crop_extent is not None:
            image = center_of_mass_crop(image, crop_extent)
        if rescale:
            image = rescale_intensity(image)
        rel = f"images/rec_{idx:05d}.sstf"
        write_tensor(out_dir / rel, image)
        records.append(ImageRecord(rel, k, volume, split))
    manifest = DatasetManifest(records, label_kind=label_kind, base_dir=out_dir)
    write_manifest(out_dir / "manifest.csv", manifest)
    return manifest
