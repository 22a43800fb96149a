"""Workload inputs, generated from a seed without importing fliqs.

Each workload is one `fliqs search` config plus the files it reads.  The
model layouts are spelled out here as plain layer lists so the checks and
the reference forward pass can price and evaluate a model without asking
the program for its shapes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

RELU = {"type": "relu"}
POOL = {"type": "maxpool", "size": 2}
FLAT = {"type": "flatten"}


def _conv(name, out, kernel=3, **extra):
    return dict(type="conv", name=name, out_channels=out, kernel=kernel, **extra)


def _dw(name, **extra):
    return dict(type="depthwise_conv", name=name, kernel=3, **extra)


def _dense(name, out, **extra):
    return dict(type="dense", name=name, out_features=out, **extra)


# cnn-small as the program's built-in expands it (README, "Models").
CNN_SMALL = [
    _conv("conv1", 8), RELU, POOL,
    _conv("conv2", 16), RELU, POOL,
    _conv("conv3", 32), RELU, FLAT,
    _dense("fc1", 64), RELU,
    _dense("fc2", 10),
]

# Depthwise-separable net for the joint format + kernel + width search.
# Kernel options sit on the last depthwise layer only: this program keeps
# separate weights per kernel size, and with options on both depthwise
# layers the loss stayed near ln(10) for 80 steps.  Width options on the
# 1x1 conv train; a GAP head did not.
DS_NET = [
    _conv("stem", 8), RELU, POOL,
    _dw("dw1"), RELU,
    _conv("pw1", 16, 1, width_options=[0.5, 0.75]), RELU, POOL,
    _dw("dw2", kernel_options=[3, 5]), RELU, FLAT,
    _dense("fc1", 64), RELU,
    _dense("fc", 10),
]

# mlp-2x16 on 12-dim blobs with 4 classes.
MLP_2X16 = [FLAT, _dense("fc1", 16), RELU, _dense("fc2", 16), RELU, _dense("out", 4)]

SEARCH_SPACES = {
    "FLIQS-S-int": ("INT4", "INT8", "BF16"),
    "FLIQS-S-fp": ("E2M1", "E4M3", "BF16"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    model: object          # what the config's "model" key holds
    layout: list           # the same model as an explicit layer list
    input_shape: tuple
    classes: int
    space: str
    target_between: tuple  # cost target: halfway between these uniform formats
    steps: int             # search steps per round
    lr: float              # trainer learning rate
    serve_images: int      # images per serving pass
    serve_passes: int      # serving passes per round
    reference_images: int  # images the reference forward pass checks
    min_accuracy: float    # served accuracy must reach this (chance is 1/classes)


# The IDX workloads train at lr 0.02: at the acceptance fixture's 0.05 some
# desk seeds collapsed to chance accuracy mid-search.
WORKLOADS = {
    w.name: w for w in (
        Workload("desk-int", "cnn-small", CNN_SMALL, (1, 28, 28), 10, "FLIQS-S-int",
                 ("INT4", "INT8"), steps=60, lr=0.02, serve_images=256, serve_passes=24,
                 reference_images=32, min_accuracy=0.3),
        Workload("nas-fp", None, DS_NET, (1, 28, 28), 10, "FLIQS-S-fp",
                 ("E2M1", "E4M3"), steps=180, lr=0.02, serve_images=256, serve_passes=30,
                 reference_images=32, min_accuracy=0.2),
        Workload("mlp-blobs", "mlp-2x16", MLP_2X16, (1, 1, 12), 4, "FLIQS-S-int",
                 ("INT4", "INT8"), steps=1000, lr=0.05, serve_images=65536, serve_passes=6,
                 reference_images=256, min_accuracy=0.6),
    )
}


def format_bits(name: str) -> int:
    """Total bits of one value: k for INTk, 1+e+m for EeMm, 16 for BF16."""
    if name == "BF16":
        return 16
    if name.startswith("INT"):
        return int(name[3:])
    e, m = name[1:].split("M")
    return 1 + int(e) + int(m)


def parse_label(label: str):
    """'E4M3;w0.5;k5' -> ('E4M3', 0.5, 5); missing parts are (1.0, None)."""
    parts = label.split(";")
    width, kernel = 1.0, None
    for p in parts[1:]:
        if p.startswith("w"):
            width = float(p[1:])
        elif p.startswith("k"):
            kernel = int(p[1:])
        else:
            raise ValueError(f"bad arch label {label!r}")
    return parts[0], width, kernel


@dataclass(frozen=True)
class ComputeSpec:
    """Shapes of one compute layer, enough to count its MACs."""

    name: str
    kind: str
    in_channels: int
    out_channels: int
    height: int
    width: int
    base_kernel: int | None
    widths: tuple
    kernels: tuple

    def macs(self, width_mult: float = 1.0, kernel: int | None = None) -> int:
        kept = math.ceil(width_mult * self.out_channels)
        if self.kind == "dense":
            return kept * self.in_channels
        k = kernel if kernel is not None else self.base_kernel
        per_pixel = k * k if self.kind == "depthwise_conv" else self.in_channels * k * k
        return kept * per_pixel * self.height * self.width

    @property
    def option_count_per_format(self) -> int:
        return len(self.widths) * len(self.kernels)


def compute_specs(wl: Workload) -> list[ComputeSpec]:
    """Walk the layout front to back and record every compute layer's shapes."""
    c, h, w = wl.input_shape
    flat = None
    out = []
    for layer in wl.layout:
        kind = layer["type"]
        if kind in ("conv", "depthwise_conv", "dense"):
            widths = tuple(sorted(set(layer.get("width_options", [])) | {1.0}))
            if kind == "dense":
                spec = ComputeSpec(layer["name"], kind, flat, layer["out_features"],
                                   1, 1, None, widths, (None,))
                flat = layer["out_features"]
            else:
                base = layer["kernel"]
                ks = sorted(set(layer.get("kernel_options", [base])) | {base})
                out_c = layer["out_channels"] if kind == "conv" else c
                spec = ComputeSpec(layer["name"], kind, c, out_c, h, w, base, widths,
                                   tuple(ks) if len(ks) > 1 else (None,))
                c = out_c
            out.append(spec)
        elif kind == "maxpool":
            h, w = h // layer["size"], w // layer["size"]
        elif kind == "flatten":
            flat = c * h * w
    return out


def bops(specs: list[ComputeSpec], assignment: dict) -> int:
    """Bit operations of an assignment {layer: (format, width_mult, kernel)}."""
    total = 0
    for s in specs:
        fmt, width, kernel = assignment[s.name]
        total += format_bits(fmt) ** 2 * s.macs(width, kernel)
    return total


def cost_target_gbops(wl: Workload) -> float:
    specs = compute_specs(wl)
    lo, hi = wl.target_between
    uniform = [bops(specs, {s.name: (f, 1.0, None) for s in specs}) for f in (lo, hi)]
    return sum(uniform) / 2.0 / 1e9


def _blur(a, passes=3):
    for _ in range(passes):
        a = (np.roll(a, 1, -2) + a + np.roll(a, -1, -2)) / 3.0
        a = (np.roll(a, 1, -1) + a + np.roll(a, -1, -1)) / 3.0
    return a


def desk_images(seed: int, n: int = 10_000, eps: float = 0.5, sigma: float = 1.0,
                chunk: int = 1000):
    """Ten smooth 28x28 class templates plus blurred noise, as u8 pixels.

    The make-up of the acceptance fixture's desk set: a shared smooth base,
    a per-class smooth delta of relative size eps, and unit-std blurred noise
    of size sigma, squashed into [0, 1].  Noise is drawn in chunks so the
    generator's memory stays small next to the program's.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xDE5C])))
    base = _blur(rng.standard_normal((28, 28)))
    base /= base.std()
    deltas = _blur(rng.standard_normal((10, 28, 28)))
    deltas /= deltas.std(axis=(1, 2), keepdims=True)
    protos = base[None] + eps * deltas
    labels = np.repeat(np.arange(10), n // 10)
    rng.shuffle(labels)
    pixels = np.empty((n, 28, 28), dtype=np.uint8)
    for lo in range(0, n, chunk):
        sel = labels[lo : lo + chunk]
        noise = _blur(rng.standard_normal((len(sel), 28, 28)))
        noise /= noise.std(axis=(1, 2), keepdims=True)
        x = np.clip(0.5 + (protos[sel] + sigma * noise) / (2.0 * (1.0 + eps + sigma)), 0.0, 1.0)
        pixels[lo : lo + len(sel)] = np.rint(x * 255.0).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_idx(pixels, labels, images_path: Path, labels_path: Path) -> None:
    n, h, w = pixels.shape
    images_path.write_bytes(struct.pack(">4L", IMAGE_MAGIC, n, h, w) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">2L", LABEL_MAGIC, n) + labels.tobytes())


def read_idx_images(path: Path) -> np.ndarray:
    """Images of an IDX file as [N, 1, H, W] float64 in [0, 1]."""
    buf = path.read_bytes()
    _, n, h, w = struct.unpack(">4L", buf[:16])
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(n, 1, h, w) / 255.0


def make_inputs(wl: Workload, seed: int, work_dir: Path) -> Path:
    """Write the workload's inputs and search config; return the config path."""
    doc = {
        "search_space": wl.space,
        "total_steps": wl.steps,
        "cost_target_gbops": cost_target_gbops(wl),
        "controller": {"lr": 0.02},
        "trainer": {"batch_size": 64, "lr": wl.lr},
        "seed": seed,
    }
    if wl.name == "mlp-blobs":
        doc["model"] = wl.model
        doc["data"] = {"kind": "blobs", "classes": 4, "dims": 12, "n_per_class": 150,
                       "separation": 4.0}
    else:
        pixels, labels = desk_images(seed)
        images, label_file = work_dir / "images.idx", work_dir / "labels.idx"
        write_idx(pixels, labels, images, label_file)
        doc["model"] = wl.model if wl.model is not None else {
            "name": "ds-net", "input_shape": list(wl.input_shape),
            "classes": wl.classes, "layers": wl.layout,
        }
        doc["data"] = {"kind": "idx", "images": str(images), "labels": str(label_file),
                       "limit": len(labels)}
    path = work_dir / "search.json"
    path.write_text(json.dumps(doc, indent=2))
    return path
