"""Small trainable networks with switchable fake quantization.

Pure-numpy dense/conv stacks in float64.  Compute layers (conv, depthwise
conv, dense) carry one numeric format at a time covering both their weights
and their output activations; activations are fake-quantized at the ReLU
following the layer.  Backprop uses the clipped straight-through estimator:
quantizers pass gradients unchanged inside [-sigma_t, sigma_t] and block them
outside (bool masks).  Width search zeroes the top fraction of output
channels with a mask; kernel search keeps one weight tensor per candidate
kernel size and can average the branch outputs early in training.

Convolutions run on BLAS: im2col is one copy of a strided view, the conv
forward one `tensordot`, its backward a `tensordot` and a batched `matmul`,
and the depthwise weight gradient a batched `matmul`.  Two rules hold results fixed.
The forward summation order (conv `tensordot` operand order, depthwise
`einsum`) must not change: under activation quantization some outputs cancel
to exactly 0.0, and another order leaves +-1e-17 that flips the ReLU mask.
Max pooling sends each window's gradient to its first maximum in row-major
order, since quantized activations tie often.  `python3 bench/run.py
--workload desk-int --trace 1` prints the time of each layer.

Master weights stay in float64; quantization only shapes the forward views.
Biases are not quantized (they ride in the accumulator).
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchChoice
from .costmodel import LayerSpec, ModelManifest, mac_table_key
from .errors import ConfigError, DataError, DomainError, NumericalError, ThresholdError
from .formats import NumericFormat, resolve_format, total_bitwidth
from .quantize import quantize

CHECKPOINT_MAGIC = b"FLQW"
CHECKPOINT_VERSION = 1

# sigma_t for activations = std_multiple(bitwidth) * activation std.
# Narrow formats clip tighter to spend their few levels on the bulk.
DEFAULT_STD_MULTIPLES: tuple[tuple[int | None, float], ...] = (
    (4, 3.0),
    (6, 3.5),
    (None, 4.0),
)


def std_multiple_for(fmt: NumericFormat, table=DEFAULT_STD_MULTIPLES) -> float:
    bits = total_bitwidth(fmt)
    for max_bits, mult in table:
        if max_bits is None or bits <= max_bits:
            return float(mult)
    raise ConfigError(f"std-multiple table has no entry covering {bits} bits")


@dataclass(frozen=True)
class QuantPhase:
    """Which fake quantizers are live at the current step."""

    weight_quant: bool = False
    act_quant: bool = False


def phase_for_step(step: int, act_quant_start_step: int,
                   weight_quant_start_step: int = 0) -> QuantPhase:
    """Two-phase schedule: weights quantize first, activations join later."""
    return QuantPhase(
        weight_quant=step >= weight_quant_start_step,
        act_quant=step >= act_quant_start_step,
    )


class ThresholdTable:
    """Per (layer, format) clipping thresholds for weights and activations."""

    def __init__(self):
        self._entries: dict[tuple[str, str], dict[str, float | None]] = {}

    def set(self, layer: str, fmt_name: str, weight: float, act: float | None):
        self._entries[(layer, fmt_name)] = {"weight": float(weight), "act": act}

    def weight_threshold(self, layer: str, fmt: NumericFormat) -> float | None:
        if fmt.kind == "bf16":
            return None
        entry = self._entries.get((layer, fmt.name))
        if entry is None:
            raise ThresholdError(f"no threshold profiled for layer {layer!r} format {fmt.name}")
        return entry["weight"]

    def act_threshold(self, layer: str, fmt: NumericFormat) -> float | None:
        if fmt.kind == "bf16":
            return None
        entry = self._entries.get((layer, fmt.name))
        if entry is None:
            raise ThresholdError(f"no threshold profiled for layer {layer!r} format {fmt.name}")
        return entry["act"]

    def entries(self) -> dict:
        return dict(self._entries)

    def load_entries(self, entries: dict):
        self._entries.update(entries)


def _mask_for(width_mult: float, channels: int) -> np.ndarray:
    """Width mask: first ceil(w * C) channels live, the rest zeroed."""
    keep = math.ceil(width_mult * channels)
    m = np.zeros(channels, dtype=np.float64)
    m[:keep] = 1.0
    return m


def _he_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


class Layer:
    """Base layer. Subclasses fill in forward/backward."""

    kind = "base"

    def __init__(self, name: str):
        self.name = name

    @property
    def is_compute(self) -> bool:
        return False

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def init(self, rng: np.random.Generator):
        pass


class ComputeLayer(Layer):
    """Shared behavior for layers with weights: quant views, masks, MACs."""

    def __init__(self, name, searchable=True, fixed_format="BF16",
                 width_options=None, kernel_options=None):
        super().__init__(name)
        self.searchable = bool(searchable)
        self.fixed_format = resolve_format(fixed_format)
        self.width_options = list(width_options) if width_options else []
        self.kernel_options = list(kernel_options) if kernel_options else []
        self.out_spatial: tuple[int, int] | None = None
        self.base_macs: int = 0

    @property
    def is_compute(self) -> bool:
        return True

    @property
    def out_channels(self) -> int:
        raise NotImplementedError

    def weight_arrays(self) -> list[np.ndarray]:
        raise NotImplementedError

    def max_abs_weight(self) -> float:
        return max(float(np.max(np.abs(w))) for w in self.weight_arrays())

    def quant_weight(self, w: np.ndarray, fmt: NumericFormat, threshold,
                     active: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """(forward view, STE mask). Mask is None when gradients pass freely."""
        if not active:
            return w, None
        if fmt.kind == "bf16":
            return quantize(w, fmt), None
        return quantize(w, fmt, threshold), np.abs(w) <= threshold


class Dense(ComputeLayer):
    kind = "dense"

    def __init__(self, name, in_features, out_features, **kwargs):
        super().__init__(name, **kwargs)
        if self.kernel_options:
            raise ConfigError(f"layer {name!r}: dense layers cannot search kernels")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.W = np.zeros((self.out_features, self.in_features))
        self.b = np.zeros(self.out_features)
        self.base_macs = self.in_features * self.out_features

    @property
    def out_channels(self) -> int:
        return self.out_features

    def params(self):
        return {"W": self.W, "b": self.b}

    def weight_arrays(self):
        return [self.W]

    def init(self, rng):
        self.W = _he_init(rng, self.W.shape, self.in_features)
        self.b = np.zeros(self.out_features)

    def forward(self, x, ctx):
        arch: ArchChoice = ctx["arch"]
        wq, ste = self.quant_weight(self.W, arch.fmt, ctx["w_threshold"], ctx["weight_quant"])
        y = x @ wq.T + self.b
        mask = None
        if arch.width_mult != 1.0:
            mask = _mask_for(arch.width_mult, self.out_features)
            y = y * mask
        ctx.update(x=x, wq=wq, ste=ste, mask=mask)
        return y

    def backward(self, dy, ctx):
        if ctx["mask"] is not None:
            dy = dy * ctx["mask"]
        dW = dy.T @ ctx["x"]
        if ctx["ste"] is not None:
            dW = dW * ctx["ste"]
        db = dy.sum(axis=0)
        dx = dy @ ctx["wq"]
        return dx, {"W": dW, "b": db}


def _im2col(x, k):
    """(n, c, k, k, h, w) same-padded patches: one copy of a strided window view."""
    p = k // 2
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _col2im(tap, shape, k):
    """Sum tap(i, j), the (n, c, h, w) input gradient of kernel offset (i, j)."""
    n, c, h, w = shape
    p = k // 2
    dx = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + h, j : j + w] += tap(i, j)
    return dx[:, :, p : p + h, p : p + w]


class Conv2D(ComputeLayer):
    """Same-padded stride-1 convolution, optionally with kernel branches."""

    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel=3, **kwargs):
        super().__init__(name, **kwargs)
        self.in_channels = int(in_channels)
        self._out_channels = int(out_channels)
        self.base_kernel = int(kernel)
        sizes = sorted(set(self.kernel_options or [self.base_kernel]))
        if self.base_kernel not in sizes:
            sizes = sorted(sizes + [self.base_kernel])
        for k in sizes:
            if k % 2 == 0 or k < 1:
                raise ConfigError(f"layer {name!r}: kernel sizes must be odd, got {k}")
        self.kernel_sizes = sizes
        self.weights = {
            k: np.zeros((self._out_channels, self.in_channels, k, k)) for k in sizes
        }
        self.b = np.zeros(self._out_channels)

    @property
    def out_channels(self) -> int:
        return self._out_channels

    def params(self):
        out = {f"W{k}": w for k, w in self.weights.items()}
        out["b"] = self.b
        return out

    def weight_arrays(self):
        return list(self.weights.values())

    def init(self, rng):
        for k in self.kernel_sizes:
            fan_in = self.in_channels * k * k
            self.weights[k] = _he_init(rng, self.weights[k].shape, fan_in)
        self.b = np.zeros(self._out_channels)

    def _branch_forward(self, x, k, fmt, w_threshold, weight_quant):
        wq, ste = self.quant_weight(self.weights[k], fmt, w_threshold, weight_quant)
        n, _, h, w = x.shape
        cols = _im2col(x, k)
        cols_mat = cols.reshape(n, self.in_channels * k * k, h * w)
        w_mat = wq.reshape(self._out_channels, -1)
        y = np.tensordot(cols_mat, w_mat, axes=([1], [1]))
        y = y.transpose(0, 2, 1).reshape(n, self._out_channels, h, w)
        return y + self.b[None, :, None, None], (wq, ste, cols_mat)

    def forward(self, x, ctx):
        arch: ArchChoice = ctx["arch"]
        branches = self.kernel_sizes if ctx.get("joint_branches") else [
            arch.kernel if arch.kernel is not None else self.base_kernel
        ]
        for k in branches:
            if k not in self.weights:
                raise ConfigError(f"layer {self.name!r}: no branch for kernel {k}")
        outs = []
        saved = {}
        for k in branches:
            y, info = self._branch_forward(
                x, k, arch.fmt, ctx["w_threshold"], ctx["weight_quant"]
            )
            outs.append(y)
            saved[k] = info
        y = outs[0] if len(outs) == 1 else sum(outs) / len(outs)
        mask = None
        if arch.width_mult != 1.0:
            mask = _mask_for(arch.width_mult, self._out_channels)
            y = y * mask[None, :, None, None]
        ctx.update(x_shape=x.shape, branches=branches, saved=saved, mask=mask)
        return y

    def backward(self, dy, ctx):
        if ctx["mask"] is not None:
            dy = dy * ctx["mask"][None, :, None, None]
        n, _, h, w = ctx["x_shape"]
        branches = ctx["branches"]
        share = 1.0 / len(branches)
        dy_mat = dy.reshape(n, self._out_channels, h * w)
        dx = np.zeros(ctx["x_shape"])
        grads = {"b": dy.sum(axis=(0, 2, 3))}
        for k in branches:
            wq, ste, cols_mat = ctx["saved"][k]
            w_mat = wq.reshape(self._out_channels, -1)
            dW = np.tensordot(dy_mat, cols_mat, axes=([0, 2], [0, 2])).reshape(wq.shape) * share
            if ste is not None:
                dW = dW * ste
            grads[f"W{k}"] = dW
            dcols = np.matmul(w_mat.T, dy_mat).reshape(n, self.in_channels, k, k, h, w)
            dx += _col2im(lambda i, j: dcols[:, :, i, j], dx.shape, k) * share
        return dx, grads


class DepthwiseConv2D(ComputeLayer):
    kind = "depthwise_conv"

    def __init__(self, name, channels, kernel=3, **kwargs):
        super().__init__(name, **kwargs)
        if kwargs.get("width_options"):
            raise ConfigError(f"layer {name!r}: depthwise layers cannot search width")
        self.channels = int(channels)
        self.base_kernel = int(kernel)
        sizes = sorted(set(self.kernel_options or [self.base_kernel]))
        if self.base_kernel not in sizes:
            sizes = sorted(sizes + [self.base_kernel])
        for k in sizes:
            if k % 2 == 0 or k < 1:
                raise ConfigError(f"layer {name!r}: kernel sizes must be odd, got {k}")
        self.kernel_sizes = sizes
        self.weights = {k: np.zeros((self.channels, k, k)) for k in sizes}
        self.b = np.zeros(self.channels)

    @property
    def out_channels(self) -> int:
        return self.channels

    def params(self):
        out = {f"W{k}": w for k, w in self.weights.items()}
        out["b"] = self.b
        return out

    def weight_arrays(self):
        return list(self.weights.values())

    def init(self, rng):
        for k in self.kernel_sizes:
            self.weights[k] = _he_init(rng, self.weights[k].shape, k * k)
        self.b = np.zeros(self.channels)

    def forward(self, x, ctx):
        arch: ArchChoice = ctx["arch"]
        branches = self.kernel_sizes if ctx.get("joint_branches") else [
            arch.kernel if arch.kernel is not None else self.base_kernel
        ]
        outs = []
        saved = {}
        n, c, h, w = x.shape
        for k in branches:
            if k not in self.weights:
                raise ConfigError(f"layer {self.name!r}: no branch for kernel {k}")
            wq, ste = self.quant_weight(
                self.weights[k], arch.fmt, ctx["w_threshold"], ctx["weight_quant"]
            )
            cols = _im2col(x, k)
            y = np.einsum("ncijl,cij->ncl", cols.reshape(n, c, k, k, h * w), wq)
            outs.append(y.reshape(n, c, h, w) + self.b[None, :, None, None])
            saved[k] = (wq, ste, cols)
        y = outs[0] if len(outs) == 1 else sum(outs) / len(outs)
        ctx.update(x_shape=x.shape, branches=branches, saved=saved, mask=None)
        return y

    def backward(self, dy, ctx):
        n, c, h, w = ctx["x_shape"]
        branches = ctx["branches"]
        share = 1.0 / len(branches)
        dx = np.zeros(ctx["x_shape"])
        grads = {"b": dy.sum(axis=(0, 2, 3))}
        dy_vec = dy.reshape(n, c, h * w, 1)
        for k in branches:
            wq, ste, cols = ctx["saved"][k]
            dW = np.matmul(cols.reshape(n, c, k * k, h * w), dy_vec).sum(axis=0)
            dW = dW.reshape(wq.shape) * share
            if ste is not None:
                dW = dW * ste
            grads[f"W{k}"] = dW
            # dcols is the outer product dy * w: form it one tap at a time
            dx += _col2im(lambda i, j: dy * wq[None, :, i, j, None, None], dx.shape, k) * share
        return dx, grads


class ReLU(Layer):
    """Rectifier; also the activation fake-quant point of its owner layer."""

    kind = "relu"

    def __init__(self, name, owner: str | None = None):
        super().__init__(name)
        self.owner = owner

    def forward(self, x, ctx):
        y = np.maximum(x, 0.0)
        ctx["pre_quant"] = y
        ctx["relu_mask"] = x > 0.0
        if ctx.get("act_quant") and ctx.get("arch") is not None:
            arch: ArchChoice = ctx["arch"]
            if arch.fmt.kind == "bf16":
                y = quantize(y, arch.fmt)
                ctx["ste"] = None
            else:
                t = ctx["a_threshold"]
                y = quantize(y, arch.fmt, t)
                ctx["ste"] = ctx["pre_quant"] <= t
        else:
            ctx["ste"] = None
        return y

    def backward(self, dy, ctx):
        if ctx["ste"] is not None:
            dy = dy * ctx["ste"]
        return dy * ctx["relu_mask"], {}


class MaxPool2D(Layer):
    kind = "maxpool"

    def __init__(self, name, size=2):
        super().__init__(name)
        self.size = int(size)

    def forward(self, x, ctx):
        s = self.size
        n, c, h, w = x.shape
        if h % s or w % s:
            raise ConfigError(
                f"layer {self.name!r}: spatial dims {h}x{w} not divisible by pool size {s}"
            )
        # offsets in row-major window order; strict > keeps the first max
        y = x[:, :, ::s, ::s]
        idx = np.zeros(y.shape, dtype=np.intp)
        for o in range(1, s * s):
            cand = x[:, :, o // s :: s, o % s :: s]
            better = cand > y
            y = np.where(better, cand, y)
            np.copyto(idx, o, where=better)
        ctx.update(idx=idx, in_shape=x.shape)
        return y

    def backward(self, dy, ctx):
        s = self.size
        dx = np.empty(ctx["in_shape"])
        for o in range(s * s):
            np.multiply(dy, ctx["idx"] == o, out=dx[:, :, o // s :: s, o % s :: s])
        return dx, {}


class AvgPool2D(Layer):
    kind = "avgpool"

    def __init__(self, name, size=2):
        super().__init__(name)
        self.size = int(size)

    def forward(self, x, ctx):
        s = self.size
        n, c, h, w = x.shape
        if h % s or w % s:
            raise ConfigError(
                f"layer {self.name!r}: spatial dims {h}x{w} not divisible by pool size {s}"
            )
        ctx["in_shape"] = x.shape
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5))

    def backward(self, dy, ctx):
        s = self.size
        n, c, h, w = ctx["in_shape"]
        dx = np.repeat(np.repeat(dy, s, axis=2), s, axis=3) / (s * s)
        return dx, {}


class GlobalAvgPool(Layer):
    kind = "gap"

    def forward(self, x, ctx):
        ctx["in_shape"] = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy, ctx):
        n, c, h, w = ctx["in_shape"]
        return dy[:, :, None, None] * np.ones((n, c, h, w)) / (h * w), {}


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, ctx):
        ctx["in_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, ctx):
        return dy.reshape(ctx["in_shape"]), {}


class Network:
    """An ordered layer stack with shape metadata."""

    def __init__(self, name: str, layers: list[Layer], input_shape, classes: int):
        self.name = name
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.classes = int(classes)

    def compute_layers(self) -> list[ComputeLayer]:
        return [l for l in self.layers if l.is_compute]

    def searchable_layers(self) -> list[ComputeLayer]:
        return [l for l in self.compute_layers() if l.searchable]

    def parameters(self) -> dict[str, dict[str, np.ndarray]]:
        return {l.name: l.params() for l in self.layers if l.params()}

    def layer_by_name(self, name: str) -> Layer:
        for l in self.layers:
            if l.name == name:
                return l
        raise ConfigError(f"no layer named {name!r}")


_LAYER_KEYS = {
    "conv": {"type", "name", "out_channels", "kernel", "searchable", "fixed_format",
             "width_options", "kernel_options"},
    "depthwise_conv": {"type", "name", "kernel", "searchable", "fixed_format",
                       "kernel_options"},
    "dense": {"type", "name", "out_features", "searchable", "fixed_format",
              "width_options"},
    "relu": {"type", "name"},
    "maxpool": {"type", "name", "size"},
    "avgpool": {"type", "name", "size"},
    "gap": {"type", "name"},
    "flatten": {"type", "name"},
}

_MLP_RE = re.compile(r"^mlp-(\d+)x(\d+)$")


def builtin_model_config(name: str, input_shape=None, classes: int = 10) -> dict:
    """Expand a built-in model name into a full layer config."""
    m = _MLP_RE.match(name)
    if m:
        depth, width = int(m.group(1)), int(m.group(2))
        shape = list(input_shape) if input_shape is not None else [1, 1, 16]
        layers = [{"type": "flatten"}]
        for i in range(depth):
            layers.append({"type": "dense", "name": f"fc{i + 1}", "out_features": width})
            layers.append({"type": "relu"})
        layers.append({"type": "dense", "name": "out", "out_features": classes})
        return {"name": name, "input_shape": shape, "classes": classes, "layers": layers}
    if name == "cnn-small":
        shape = list(input_shape) if input_shape is not None else [1, 28, 28]
        return {
            "name": name,
            "input_shape": shape,
            "classes": classes,
            "layers": [
                {"type": "conv", "name": "conv1", "out_channels": 8, "kernel": 3},
                {"type": "relu"},
                {"type": "maxpool", "size": 2},
                {"type": "conv", "name": "conv2", "out_channels": 16, "kernel": 3},
                {"type": "relu"},
                {"type": "maxpool", "size": 2},
                {"type": "conv", "name": "conv3", "out_channels": 32, "kernel": 3},
                {"type": "relu"},
                {"type": "flatten"},
                {"type": "dense", "name": "fc1", "out_features": 64},
                {"type": "relu"},
                {"type": "dense", "name": "fc2", "out_features": classes},
            ],
        }
    raise ConfigError(f"unknown built-in model {name!r}")


def build_model(config, seed: int = 0, input_shape=None, classes=None) -> Network:
    """Build a Network from a built-in name or an explicit config dict.

    Shapes are inferred front to back; inconsistencies raise ConfigError.
    Weight init is He-normal and fully determined by the seed.
    """
    if isinstance(config, str):
        config = builtin_model_config(
            config, input_shape=input_shape, classes=classes if classes else 10
        )
    if not isinstance(config, dict):
        raise ConfigError(f"model config must be a name or an object, got {type(config).__name__}")
    unknown = set(config) - {"name", "input_shape", "classes", "layers"}
    if unknown:
        raise ConfigError(f"model config: unknown keys {sorted(unknown)}")
    try:
        name = config["name"]
        shape = tuple(config["input_shape"])
        n_classes = int(config["classes"])
        layer_cfgs = config["layers"]
    except KeyError as e:
        raise ConfigError(f"model config: missing key {e}") from None
    if len(shape) == 1:
        shape = (1, 1, shape[0])
    if len(shape) != 3:
        raise ConfigError(f"input_shape must have 1 or 3 dims, got {shape}")
    if not isinstance(layer_cfgs, list) or not layer_cfgs:
        raise ConfigError("model config: layers must be a non-empty array")

    layers: list[Layer] = []
    counts: dict[str, int] = {}
    c, h, w = shape
    flat: int | None = None
    last_compute: ComputeLayer | None = None
    for i, cfg in enumerate(layer_cfgs):
        if not isinstance(cfg, dict) or "type" not in cfg:
            raise ConfigError(f"layer {i}: each layer needs a 'type'")
        kind = cfg["type"]
        if kind not in _LAYER_KEYS:
            raise ConfigError(f"layer {i}: unknown type {kind!r}")
        unknown = set(cfg) - _LAYER_KEYS[kind]
        if unknown:
            raise ConfigError(f"layer {i} ({kind}): unknown keys {sorted(unknown)}")
        counts[kind] = counts.get(kind, 0) + 1
        lname = cfg.get("name", f"{kind}{counts[kind]}")
        common = {
            k: cfg[k]
            for k in ("searchable", "fixed_format", "width_options", "kernel_options")
            if k in cfg
        }
        if kind == "conv":
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: conv after flatten")
            layer = Conv2D(lname, c, cfg["out_channels"], cfg.get("kernel", 3), **common)
            layer.out_spatial = (h, w)
            kb = layer.base_kernel
            layer.base_macs = layer.out_channels * c * kb * kb * h * w
            c = layer.out_channels
            last_compute = layer
        elif kind == "depthwise_conv":
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: conv after flatten")
            layer = DepthwiseConv2D(lname, c, cfg.get("kernel", 3), **common)
            layer.out_spatial = (h, w)
            kb = layer.base_kernel
            layer.base_macs = c * kb * kb * h * w
            last_compute = layer
        elif kind == "dense":
            if flat is None:
                raise ConfigError(f"layer {lname!r}: dense before flatten (shape {c}x{h}x{w})")
            layer = Dense(lname, flat, cfg["out_features"], **common)
            flat = layer.out_features
            last_compute = layer
        elif kind == "relu":
            layer = ReLU(lname, owner=last_compute.name if last_compute else None)
        elif kind in ("maxpool", "avgpool"):
            size = int(cfg.get("size", 2))
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: pooling after flatten")
            if h % size or w % size:
                raise ConfigError(
                    f"layer {lname!r}: {h}x{w} input not divisible by pool size {size}"
                )
            layer = (MaxPool2D if kind == "maxpool" else AvgPool2D)(lname, size)
            h, w = h // size, w // size
        elif kind == "gap":
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: pooling after flatten")
            layer = GlobalAvgPool(lname)
            flat = c
            h = w = 1
        elif kind == "flatten":
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: flatten applied twice")
            layer = Flatten(lname)
            flat = c * h * w
        layers.append(layer)

    final = layers[-1]
    if not (isinstance(final, Dense) and final.out_features == n_classes):
        raise ConfigError(
            f"model must end in a dense layer with {n_classes} outputs"
        )
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate layer names in model config")

    net = Network(name, layers, shape, n_classes)
    ss = np.random.SeedSequence([int(seed), 0x11E7])
    children = ss.spawn(len(layers))
    for layer, child in zip(layers, children):
        layer.init(np.random.Generator(np.random.PCG64(child)))
    return net


def _arch_for_layer(layer: ComputeLayer, archs) -> ArchChoice:
    if not layer.searchable:
        return ArchChoice(layer.fixed_format)
    if archs is None or layer.name not in archs:
        raise DomainError(f"no architecture choice supplied for layer {layer.name!r}")
    return archs[layer.name]


def forward(net: Network, x, archs=None, phase: QuantPhase | None = None,
            thresholds: ThresholdTable | None = None,
            joint_branches: bool = False):
    """Run the network. Returns (logits, cache) for a later backward pass.

    archs maps searchable layer names to ArchChoice; non-searchable compute
    layers use their pinned format.  With phase None (or both quantizers off)
    this is a plain float forward and archs may be omitted entirely.
    """
    phase = phase or QuantPhase()
    quant_on = phase.weight_quant or phase.act_quant
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != tuple(net.input_shape):
        raise DomainError(f"input shape {x.shape[1:]} != expected {net.input_shape}")
    caches = []
    owner_ctx: dict[str, dict] = {}
    for i, layer in enumerate(net.layers):
        ctx: dict = {"layer": layer.name}
        if layer.is_compute:
            if quant_on or archs:
                arch = _arch_for_layer(layer, archs)
            else:
                # plain full-precision pass (profiling, stats): neutral choice
                arch = ArchChoice(resolve_format("BF16"))
            ctx["arch"] = arch
            ctx["weight_quant"] = phase.weight_quant
            ctx["joint_branches"] = joint_branches and len(getattr(layer, "kernel_sizes", [])) > 1
            if phase.weight_quant and arch is not None and arch.fmt.kind != "bf16":
                if thresholds is None:
                    raise DomainError("weight quantization needs a threshold table")
                ctx["w_threshold"] = thresholds.weight_threshold(layer.name, arch.fmt)
            else:
                ctx["w_threshold"] = None
            owner_ctx[layer.name] = ctx
        elif isinstance(layer, ReLU) and layer.owner is not None:
            owner = owner_ctx.get(layer.owner)
            arch = owner.get("arch") if owner else None
            ctx["act_quant"] = phase.act_quant and arch is not None
            ctx["arch"] = arch
            if ctx["act_quant"] and arch.fmt.kind != "bf16":
                if thresholds is None:
                    raise DomainError("activation quantization needs a threshold table")
                t = thresholds.act_threshold(layer.owner, arch.fmt)
                if t is None:
                    raise ThresholdError(
                        f"layer {layer.owner!r} has no activation threshold"
                    )
                ctx["a_threshold"] = t
        y = layer.forward(x, ctx)
        if not np.all(np.isfinite(y)):
            raise NumericalError(
                f"layer {layer.name!r} (index {i}) produced non-finite activations"
            )
        caches.append(ctx)
        x = y
    return x, {"layers": caches, "logits": x}


def cross_entropy(logits, labels) -> float:
    """Mean softmax cross-entropy."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    n = len(labels)
    return float(np.mean(logsumexp - z[np.arange(n), labels]))


def accuracy(logits, labels) -> float:
    return float(np.mean(logits.argmax(axis=1) == labels))


def backward(net: Network, cache, labels):
    """Backprop from softmax cross-entropy. Returns {layer: {param: grad}}."""
    logits = cache["logits"]
    n = len(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    dy = p / n
    grads: dict[str, dict[str, np.ndarray]] = {}
    for layer, ctx in zip(reversed(net.layers), reversed(cache["layers"])):
        dy, g = layer.backward(dy, ctx)
        if g:
            grads[layer.name] = g
    return grads


class SGDState:
    """Momentum buffers keyed like the gradient dict."""

    def __init__(self):
        self.velocity: dict[str, dict[str, np.ndarray]] = {}


def sgd_step(net: Network, grads, state: SGDState, lr: float,
             momentum: float = 0.9, weight_decay: float = 0.0) -> None:
    """v = momentum * v + grad (+ wd * w); w -= lr * v. Updates masters in place."""
    for layer in net.layers:
        if layer.name not in grads:
            continue
        params = layer.params()
        vel = state.velocity.setdefault(layer.name, {})
        for key, g in grads[layer.name].items():
            w = params[key]
            if weight_decay and not key.startswith("b"):
                g = g + weight_decay * w
            v = vel.get(key)
            v = g if v is None else momentum * v + g
            vel[key] = v
            w -= lr * v


def collect_activation_stats(net: Network, batch_iter, n_batches: int):
    """Mean/std of each quant point's raw activations over calibration batches."""
    sums: dict[str, float] = {}
    sqs: dict[str, float] = {}
    counts: dict[str, int] = {}
    taken = 0
    for images, _ in batch_iter:
        _, cache = forward(net, images)
        for layer, ctx in zip(net.layers, cache["layers"]):
            if isinstance(layer, ReLU) and layer.owner is not None:
                a = ctx["pre_quant"]
                sums[layer.owner] = sums.get(layer.owner, 0.0) + float(a.sum())
                sqs[layer.owner] = sqs.get(layer.owner, 0.0) + float((a * a).sum())
                counts[layer.owner] = counts.get(layer.owner, 0) + a.size
        taken += 1
        if taken >= n_batches:
            break
    if taken == 0:
        raise DataError("no calibration batches supplied")
    stats = {}
    for owner, n in counts.items():
        mean = sums[owner] / n
        var = max(sqs[owner] / n - mean * mean, 0.0)
        stats[owner] = (mean, math.sqrt(var))
    return stats


def profile_thresholds(net: Network, batch_iter, formats,
                       std_table=DEFAULT_STD_MULTIPLES,
                       n_batches: int = 4) -> ThresholdTable:
    """Calibrate clipping thresholds for every (compute layer, format) pair.

    Weight thresholds are the per-layer max |w|; activation thresholds are
    the format's std multiple times the layer's raw activation std, measured
    on unquantized forward passes.  Layers with no ReLU after them get no
    activation threshold.  Zero activation variance is an error: the layer
    is dead and any threshold would be meaningless.
    """
    fmts = [resolve_format(f) for f in formats]
    stats = collect_activation_stats(net, batch_iter, n_batches)
    table = ThresholdTable()
    for layer in net.compute_layers():
        w_max = layer.max_abs_weight()
        act_stat = stats.get(layer.name)
        for fmt in fmts:
            if fmt.kind == "bf16":
                continue
            if act_stat is not None:
                _, std = act_stat
                if std <= 0.0:
                    raise ThresholdError(
                        f"layer {layer.name!r}: zero activation variance during calibration"
                    )
                act_t = std_multiple_for(fmt, std_table) * std
            else:
                act_t = None
            table.set(layer.name, fmt.name, w_max, act_t)
    return table


def update_weight_thresholds(net: Network, table: ThresholdTable, formats) -> None:
    """Refresh weight thresholds from current weights, keeping act entries."""
    for layer in net.compute_layers():
        w_max = layer.max_abs_weight()
        for fmt in formats:
            f = resolve_format(fmt)
            if f.kind == "bf16":
                continue
            entry = table._entries.get((layer.name, f.name))
            if entry is not None:
                entry["weight"] = w_max


def network_manifest(net: Network) -> ModelManifest:
    """Derive a cost manifest from the network's shapes.

    Width variants scale base MACs by the kept-channel fraction; kernel
    variants scale by (k / base_kernel)^2.  Input channels stay at full
    width because masks zero outputs only.
    """
    specs = []
    for layer in net.compute_layers():
        widths = sorted(set(layer.width_options or [1.0]) | {1.0})
        kernels = getattr(layer, "kernel_sizes", None)
        base_k = getattr(layer, "base_kernel", None)
        table = None
        if len(widths) > 1 or (kernels and len(kernels) > 1):
            table = {}
            c_out = layer.out_channels
            for wm in widths:
                frac = math.ceil(wm * c_out) / c_out
                for k in kernels or [base_k or 1]:
                    kfrac = (k / base_k) ** 2 if base_k else 1.0
                    table[mac_table_key(wm, k)] = max(
                        1, int(round(layer.base_macs * frac * kfrac))
                    )
        specs.append(
            LayerSpec(
                name=layer.name,
                macs=layer.base_macs,
                searchable=layer.searchable,
                fixed_format=None if layer.searchable else layer.fixed_format.name,
                base_kernel=base_k,
                mac_table=table,
            )
        )
    return ModelManifest(name=net.name, layers=tuple(specs))


def save_weights(net: Network, path) -> None:
    """Serialize parameters: FLQW magic, layer table, float32 LE payload."""
    entries = []
    payloads = []
    for lname, params in net.parameters().items():
        for pname, arr in params.items():
            entries.append((f"{lname}/{pname}", arr.shape))
            payloads.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<LL", CHECKPOINT_VERSION, len(entries)))
        for name, shape in entries:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", len(shape)))
            f.write(struct.pack(f"<{len(shape)}L", *shape))
        for blob in payloads:
            f.write(blob)


def load_weight_arrays(path) -> dict[str, np.ndarray]:
    """Read a checkpoint into {'layer/param': float64 array}."""
    buf = open(path, "rb").read()
    if buf[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {buf[:4]!r}")
    version, count = struct.unpack_from("<LL", buf, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    metas = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off : off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = struct.unpack_from("<B", buf, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}L", buf, off)
        off += 4 * ndim
        metas.append((name, shape))
    out = {}
    for name, shape in metas:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(buf, dtype="<f4", count=n, offset=off)
        off += 4 * n
        out[name] = arr.reshape(shape).astype(np.float64)
    if off != len(buf):
        raise DataError(f"{path}: {len(buf) - off} trailing bytes after payload")
    return out


def load_weights(net: Network, path) -> None:
    """Restore parameters in place; shapes must match the network exactly."""
    arrays = load_weight_arrays(path)
    expected = {
        f"{lname}/{pname}": arr
        for lname, params in net.parameters().items()
        for pname, arr in params.items()
    }
    missing = set(expected) - set(arrays)
    extra = set(arrays) - set(expected)
    if missing or extra:
        raise DataError(
            f"{path}: checkpoint/network mismatch "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    for key, arr in arrays.items():
        target = expected[key]
        if target.shape != arr.shape:
            raise DataError(f"{path}: {key} shape {arr.shape} != expected {target.shape}")
        target[...] = arr


def round_weights_to_serving_precision(net: Network) -> None:
    """Round masters through float32, the checkpoint payload precision."""
    for layer in net.layers:
        for arr in layer.params().values():
            arr[...] = arr.astype(np.float32).astype(np.float64)
