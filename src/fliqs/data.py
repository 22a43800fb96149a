"""Datasets: IDX file I/O, synthetic Gaussian blobs, deterministic batching.

IDX is the big-endian format used by the classic digit corpora: a u32 magic
(0x00000803 for image tensors, 0x00000801 for label vectors), u32 dimension
sizes, then a raw u8 payload.  Images load as [N, 1, H, W] pixel bytes, one
byte each; `Dataset.images_at` scales them to [0, 1] as a batch is taken.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Supervised dataset: images [N, C, H, W] and integer labels [N].

    `images` holds either float64 values in [0, 1] or uint8 pixel bytes
    (what load_idx keeps: one byte per pixel instead of eight).  Read images
    through `images_at`, which gives float64 in [0, 1] either way.
    """

    images: np.ndarray
    labels: np.ndarray
    classes: int
    source: str = "memory"

    def __post_init__(self):
        self.images = np.asarray(self.images)
        if self.images.dtype != np.uint8:
            self.images = self.images.astype(np.float64, copy=False)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataError(f"images must be [N, C, H, W], got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images"
            )
        if self.classes < 2:
            raise DataError(f"need at least 2 classes, got {self.classes}")
        if self.labels.size and not (0 <= self.labels.min() and self.labels.max() < self.classes):
            raise DataError("labels outside [0, classes)")

    def __len__(self) -> int:
        return self.images.shape[0]

    def images_at(self, idx=slice(None)) -> np.ndarray:
        """Float64 images in [0, 1] at `idx` (any numpy index along the first axis).

        Pixel bytes become `pixels / 255.0`: the cast to float64 is exact, so
        that one division is the only rounding, and this is the one place
        the pixel scale is decided.  The result is a new array or, for a
        float dataset indexed by a slice, a view.
        """
        x = self.images[idx]
        return x / 255.0 if x.dtype == np.uint8 else x

    def subset(self, n: int) -> "Dataset":
        if n > len(self):
            raise DataError(f"cannot take {n} of {len(self)} examples")
        return Dataset(self.images[:n], self.labels[:n], self.classes, self.source)


def _read_u32s(buf: bytes, count: int, offset: int, path: str) -> tuple:
    end = offset + 4 * count
    if len(buf) < end:
        raise DataError(f"{path}: truncated header at byte offset {len(buf)}")
    return struct.unpack(f">{count}L", buf[offset:end])


def load_idx(images_path, labels_path, limit: int | None = None,
             classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair.

    Pixels stay uint8 bytes; `Dataset.images_at` scales them to [0, 1] by
    division with 255.  limit (at least 1) truncates to the first `limit`
    examples after validation.
    """
    if limit is not None and limit < 1:
        raise DataError(f"limit must be >= 1, got {limit}")
    images_path, labels_path = str(images_path), str(labels_path)
    img_buf = Path(images_path).read_bytes()
    (magic,) = _read_u32s(img_buf, 1, 0, images_path)
    if magic != IMAGE_MAGIC:
        raise DataError(
            f"{images_path}: bad image magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{IMAGE_MAGIC:08x}"
        )
    n, h, w = _read_u32s(img_buf, 3, 4, images_path)
    expected = 16 + n * h * w
    if len(img_buf) != expected:
        raise DataError(
            f"{images_path}: payload is {len(img_buf) - 16} bytes at byte offset 16, "
            f"expected {n * h * w}"
        )
    images = np.frombuffer(img_buf, dtype=np.uint8, offset=16).reshape(n, 1, h, w)

    lab_buf = Path(labels_path).read_bytes()
    (magic,) = _read_u32s(lab_buf, 1, 0, labels_path)
    if magic != LABEL_MAGIC:
        raise DataError(
            f"{labels_path}: bad label magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{LABEL_MAGIC:08x}"
        )
    (n_lab,) = _read_u32s(lab_buf, 1, 4, labels_path)
    if len(lab_buf) != 8 + n_lab:
        raise DataError(
            f"{labels_path}: payload is {len(lab_buf) - 8} bytes at byte offset 8, "
            f"expected {n_lab}"
        )
    if n_lab != n:
        raise DataError(f"image count {n} does not match label count {n_lab}")
    labels = np.frombuffer(lab_buf, dtype=np.uint8, offset=8).astype(np.int64)

    n_classes = classes if classes is not None else int(labels.max()) + 1 if n else 2
    ds = Dataset(images, labels, n_classes, source=f"idx:{images_path}")
    if limit is not None:
        ds = ds.subset(limit)
    return ds


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a dataset as an IDX pair; pixels are rounded onto the u8 grid.

    Datasets whose pixel values lie on the k/255 grid round-trip bit-exactly
    through load_idx.
    """
    imgs = dataset.images_at()
    if imgs.shape[1] != 1:
        raise DataError(f"IDX stores single-channel images, got {imgs.shape[1]} channels")
    n, _, h, w = imgs.shape
    pixels = np.rint(imgs * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise DataError("pixel values outside [0, 1]")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4L", IMAGE_MAGIC, n, h, w))
        f.write(pixels.astype(np.uint8).tobytes())
    if dataset.labels.min() < 0 or dataset.labels.max() > 255:
        raise DataError("labels outside u8 range")
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2L", LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def synth_blobs(classes: int, dims: int, n_per_class: int, separation: float,
                seed: int) -> Dataset:
    """Gaussian clusters: unit-variance blobs at means `separation` apart.

    Class means sit at separation * u_c for random unit vectors u_c.  The
    whole tensor is min-max rescaled into [0, 1] (an affine map, so linear
    separability is untouched).  Images come out as [N, 1, 1, dims].
    """
    if classes < 2 or dims < 1 or n_per_class < 1:
        raise DataError("need classes >= 2, dims >= 1, n_per_class >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0xB10B])))
    means = rng.standard_normal((classes, dims))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = separation * means / norms
    xs = []
    ys = []
    for c in range(classes):
        xs.append(means[c] + rng.standard_normal((n_per_class, dims)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(x))
    x, y = x[perm], y[perm]
    lo, hi = x.min(), x.max()
    span = hi - lo if hi > lo else 1.0
    x = (x - lo) / span
    return Dataset(x.reshape(len(x), 1, 1, dims), y, classes, source="blobs")


@dataclass(frozen=True)
class BatchPlan:
    """Deterministic split and batching policy for one run."""

    batch_size: int
    seed: int
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise DataError(f"batch size must be positive, got {self.batch_size}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise DataError(
                f"validation fraction must be in [0, 1), got {self.validation_fraction}"
            )


def _split_indices(n: int, plan: BatchPlan) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train, validation) index sets, a pure function of (n, seed, fraction)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([plan.seed, n, 0x51])))
    perm = rng.permutation(n)
    n_val = int(n * plan.validation_fraction)
    return perm[n_val:], perm[:n_val]


def validation_set(dataset: Dataset, plan: BatchPlan) -> tuple[np.ndarray, np.ndarray]:
    _, val_idx = _split_indices(len(dataset), plan)
    return dataset.images_at(val_idx), dataset.labels[val_idx]


def batches(dataset: Dataset, plan: BatchPlan, epoch: int):
    """Yield (images, labels) training batches for one epoch.

    The training split is shuffled by a generator keyed on (seed, epoch), so
    the sequence is reproducible and differs between epochs.  A trailing
    partial batch is dropped.
    """
    train_idx, _ = _split_indices(len(dataset), plan)
    if plan.batch_size > len(train_idx):
        raise DataError(
            f"batch size {plan.batch_size} exceeds training split of {len(train_idx)}"
        )
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([plan.seed, int(epoch), 0xE9]))
    )
    order = train_idx[rng.permutation(len(train_idx))]
    n_batches = len(order) // plan.batch_size
    for b in range(n_batches):
        sel = order[b * plan.batch_size : (b + 1) * plan.batch_size]
        yield dataset.images_at(sel), dataset.labels[sel]


def batch_stream(dataset: Dataset, plan: BatchPlan):
    """Endless train-batch iterator that advances epochs as needed."""
    epoch = 0
    while True:
        yielded = False
        for batch in batches(dataset, plan, epoch):
            yielded = True
            yield batch
        if not yielded:
            raise DataError("batch plan yields no batches")
        epoch += 1
