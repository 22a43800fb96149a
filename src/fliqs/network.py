"""Small trainable networks with switchable fake quantization.

Pure-numpy dense/conv stacks in float64.  Compute layers (conv, depthwise
conv, dense) carry one numeric format at a time covering both their weights
and their output activations; activations are fake-quantized at the ReLU
following the layer.  Backprop uses the clipped straight-through estimator:
quantizers pass gradients unchanged inside [-sigma_t, sigma_t] and block them
outside (bool masks).  Width search zeroes the top fraction of output
channels with a mask; kernel search keeps one weight tensor `W{k}` per
candidate kernel size and can average the branch outputs early in training.

The layer contract: `layer.forward(x, ...)` returns `(y, cache)`, where the
cache is a tuple or NamedTuple of what that layer's `backward(dy, cache)`
needs, and backward returns `(dx, grads)`.  `forward()` decides each step's
quantizers: every compute layer gets its ArchChoice and its weight
`Quantizer` (format and threshold; None while weights stay float), and every
ReLU its owner layer's activation quantizer.  No layer reads another's
state.  A ThresholdTable keeps one weight threshold per layer (its max |w|,
refreshed every step) and one activation threshold per (layer, format),
profiled once before training.

Convolutions run on BLAS: im2col is one copy of a strided view.  The conv
lays it out as (c*k*k, n*h*w): each row is one shifted input plane, copied
in runs of w elements, and the forward GEMM (patches^T @ weights^T) and the
weight-gradient GEMM (dy^T @ patches^T) both read its transpose without a
further copy.  The backward adds a batched `matmul` for the patch gradient,
and the depthwise weight gradient is a batched `matmul`.  Two rules hold
results fixed.  The forward summation order (the conv GEMM's operand order
and its c*k*k reduction order, the depthwise `einsum`) must not change:
under activation quantization some outputs cancel to exactly 0.0, and
another order leaves +-1e-17 that flips the ReLU mask.  Max pooling sends
each window's gradient to its first maximum in row-major order, since
quantized activations tie often.  `python3 bench/run.py --workload desk-int
--trace 1` prints the time of each layer.

`forward(..., train=False)` is the inference mode of validation and
serving: no STE or ReLU masks, no max-pool winners, no caches, and the same
logits bit for bit.  It runs each ReLU -> MaxPool2D pair pool first, so the
ReLU and its activation quantizer see a quarter of the elements.  That is
exact: max pooling commutes with any non-decreasing elementwise map, and
ReLU and every quantizer are non-decreasing (ReLU also turns -0.0 into
+0.0 in either order).  Training keeps ReLU then pool, because its backward
sends each window's gradient to the first maximum of the *quantized*
values, and quantization ties make that differ from the raw maximum.
Kernels write only into arrays they allocated themselves (the bias add and
width mask go into the layer's fresh output, quantize rounds its own
clipped copy); an input may be the caller's array.

Master weights stay in float64; quantization only shapes the forward views.
Biases are not quantized (they ride in the accumulator).
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import NamedTuple

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
    """Clipping thresholds: one weight threshold per layer, activation ones per format.

    A layer's weight threshold is its max |w| whatever the format.  A (layer,
    format) pair is profiled once its activation entry is set (None when no
    ReLU follows the layer); asking for either threshold of an unprofiled
    pair raises ThresholdError.  BF16 never clips and has neither.
    """

    def __init__(self):
        self._weight: dict[str, float] = {}
        self._act: dict[tuple[str, str], float | None] = {}

    def set_weight(self, layer: str, value: float) -> None:
        self._weight[layer] = float(value)

    def set_act(self, layer: str, fmt_name: str, value: float | None) -> None:
        self._act[(layer, fmt_name)] = value

    def _clips(self, layer: str, fmt: NumericFormat) -> bool:
        if fmt.kind == "bf16":
            return False
        if (layer, fmt.name) not in self._act or layer not in self._weight:
            raise ThresholdError(f"no threshold profiled for layer {layer!r} format {fmt.name}")
        return True

    def weight_threshold(self, layer: str, fmt: NumericFormat) -> float | None:
        return self._weight[layer] if self._clips(layer, fmt) else None

    def act_threshold(self, layer: str, fmt: NumericFormat) -> float | None:
        return self._act[(layer, fmt.name)] if self._clips(layer, fmt) else None


class Quantizer(NamedTuple):
    """One live fake quantizer; BF16 rounds without clipping, so its threshold is None."""

    fmt: NumericFormat
    threshold: float | None


def fake_quant(x: np.ndarray, quant: Quantizer | None, train: bool = True):
    """(forward view, STE mask) of x.

    The mask is None where gradients pass freely, and always when train is
    off (nothing will run backward).
    """
    if quant is None:
        return x, None
    ste = np.abs(x) <= quant.threshold if train and quant.threshold is not None else None
    return quantize(x, quant.fmt, quant.threshold), ste


def _mask_for(width_mult: float, channels: int) -> np.ndarray:
    """Width mask: first ceil(w * C) channels live, the rest zeroed."""
    keep = math.ceil(width_mult * channels)
    m = np.zeros(channels, dtype=np.float64)
    m[:keep] = 1.0
    return m


def _he_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


class Layer:
    """Base layer: forward(x, ...) returns (y, cache); backward(dy, cache) returns (dx, grads)."""

    kind = "base"
    is_compute = False

    def __init__(self, name: str):
        self.name = name

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def init(self, rng: np.random.Generator):
        pass


class ComputeLayer(Layer):
    """A layer with weights: forward(x, arch, quant, joint_branches, train).

    `quant` is the weight quantizer (None when weights stay float),
    `joint_branches` asks a kernel-search layer to average all its branches,
    and with `train` off the layer returns (y, None), building no cache.
    `backward(dy, cache, input_grad)` with `input_grad` off returns
    (None, grads): the network's first compute layer has no one to pass an
    input gradient to.
    """

    is_compute = True
    out_channels: int
    base_kernel: int | None = None      # conv layers set both
    kernel_sizes: tuple[int, ...] = ()

    def __init__(self, name, searchable=True, fixed_format="BF16",
                 width_options=None, kernel_options=None):
        super().__init__(name)
        self.searchable = bool(searchable)
        self.fixed_format = resolve_format(fixed_format)
        self.width_options = list(width_options) if width_options else []
        self.kernel_options = list(kernel_options) if kernel_options else []
        self.base_macs: int = 0

    def weight_arrays(self) -> list[np.ndarray]:
        raise NotImplementedError

    def max_abs_weight(self) -> float:
        return max(float(np.max(np.abs(w))) for w in self.weight_arrays())

    def width_mask(self, arch: ArchChoice) -> np.ndarray | None:
        """Output-channel mask for the arch's width multiplier; None at full width."""
        if arch.width_mult == 1.0:
            return None
        return _mask_for(arch.width_mult, self.out_channels)


class DenseCache(NamedTuple):
    x: np.ndarray
    wq: np.ndarray              # the weight view the forward multiplied by
    ste: np.ndarray | None
    mask: np.ndarray | None


class Dense(ComputeLayer):
    kind = "dense"

    def __init__(self, name, in_features, out_features, **kwargs):
        super().__init__(name, **kwargs)
        if self.kernel_options:
            raise ConfigError(f"layer {name!r}: dense layers cannot search kernels")
        self.in_features = int(in_features)
        self.out_features = self.out_channels = int(out_features)
        self.W = np.zeros((self.out_features, self.in_features))
        self.b = np.zeros(self.out_features)
        self.base_macs = self.in_features * self.out_features

    def params(self):
        return {"W": self.W, "b": self.b}

    def weight_arrays(self):
        return [self.W]

    def init(self, rng):
        self.W = _he_init(rng, self.W.shape, self.in_features)
        self.b = np.zeros(self.out_features)

    def forward(self, x, arch: ArchChoice, quant: Quantizer | None = None,
                joint_branches: bool = False, train: bool = True):
        wq, ste = fake_quant(self.W, quant, train)
        y = x @ wq.T
        y += self.b
        mask = self.width_mask(arch)
        if mask is not None:
            y *= mask
        return y, DenseCache(x, wq, ste, mask) if train else None

    def backward(self, dy, cache: DenseCache, input_grad: bool = True):
        if cache.mask is not None:
            dy = dy * cache.mask
        dW = dy.T @ cache.x
        if cache.ste is not None:
            dW = dW * cache.ste
        return dy @ cache.wq if input_grad else None, {"W": dW, "b": dy.sum(axis=0)}


def _windows(x, k):
    """(n, c, h, w, k, k) strided view of x's same-padded k x k windows; im2col copies it."""
    p = k // 2
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    return np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))


def _col2im(tap, shape, k):
    """Sum tap(i, j), the (n, c, h, w) input gradient of kernel offset (i, j)."""
    n, c, h, w = shape
    p = k // 2
    dx = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + h, j : j + w] += tap(i, j)
    return dx[:, :, p : p + h, p : p + w]


class BranchCache(NamedTuple):
    x_shape: tuple
    branches: dict              # kernel size -> (weight view, STE mask, patches)
    mask: np.ndarray | None


class BranchedConv(ComputeLayer):
    """Same-padded stride-1 convolution with one weight tensor `W{k}` per kernel size.

    Holds what both conv kinds share: the kernel-size checks, the per-size
    weights and bias, branch selection, the joint average of the branch
    outputs and each branch's share of the gradient.  A subclass gives the
    weight shape, the fan-in, and one branch's forward and backward math.
    """

    def __init__(self, name, kernel, **kwargs):
        super().__init__(name, **kwargs)
        self.base_kernel = int(kernel)
        sizes = sorted(set(self.kernel_options) | {self.base_kernel})
        for k in sizes:
            if k % 2 == 0 or k < 1:
                raise ConfigError(f"layer {name!r}: kernel sizes must be odd, got {k}")
        self.kernel_sizes = sizes
        self.weights = {k: np.zeros(self._weight_shape(k)) for k in sizes}
        self.b = np.zeros(self.out_channels)

    def params(self):
        return {**{f"W{k}": w for k, w in self.weights.items()}, "b": self.b}

    def weight_arrays(self):
        return list(self.weights.values())

    def init(self, rng):
        for k in self.kernel_sizes:
            self.weights[k] = _he_init(rng, self.weights[k].shape, self._fan_in(k))
        self.b = np.zeros(self.out_channels)

    def forward(self, x, arch: ArchChoice, quant: Quantizer | None = None,
                joint_branches: bool = False, train: bool = True):
        if joint_branches and len(self.kernel_sizes) > 1:
            branches = self.kernel_sizes
        else:
            branches = [arch.kernel if arch.kernel is not None else self.base_kernel]
        outs = []
        saved = {}
        for k in branches:
            if k not in self.weights:
                raise ConfigError(f"layer {self.name!r}: no branch for kernel {k}")
            wq, ste = fake_quant(self.weights[k], quant, train)
            y, cols = self._branch_forward(x, k, wq)
            y += self.b[None, :, None, None]
            outs.append(y)
            if train:
                saved[k] = (wq, ste, cols)
        y = outs[0] if len(outs) == 1 else sum(outs) / len(outs)
        mask = self.width_mask(arch)
        if mask is not None:
            y *= mask[None, :, None, None]
        return y, BranchCache(x.shape, saved, mask) if train else None

    def backward(self, dy, cache: BranchCache, input_grad: bool = True):
        if cache.mask is not None:
            dy = dy * cache.mask[None, :, None, None]
        share = 1.0 / len(cache.branches)
        dx = np.zeros(cache.x_shape) if input_grad else None
        grads = {"b": dy.sum(axis=(0, 2, 3))}
        for k, (wq, ste, cols) in cache.branches.items():
            dW, dx_k = self._branch_backward(dy, wq, cols, cache.x_shape, input_grad)
            dW = dW * share
            if ste is not None:
                dW = dW * ste
            grads[f"W{k}"] = dW
            if input_grad:
                dx += dx_k * share
        return dx, grads


class Conv2D(BranchedConv):
    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel=3, **kwargs):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        super().__init__(name, kernel, **kwargs)

    def _weight_shape(self, k):
        return (self.out_channels, self.in_channels, k, k)

    def _fan_in(self, k):
        return self.in_channels * k * k

    def _branch_forward(self, x, k, wq):
        n, c, h, w = x.shape
        # patches as (c*k*k, n*h*w): each row is one shifted input plane, copied
        # in runs of w; both GEMMs read the transposed view with no further copy
        cols = np.ascontiguousarray(_windows(x, k).transpose(1, 4, 5, 0, 2, 3))
        cols = cols.reshape(c * k * k, n * h * w)
        y = np.dot(cols.T, wq.reshape(self.out_channels, -1).T)
        return y.reshape(n, h, w, self.out_channels).transpose(0, 3, 1, 2), cols

    def _branch_backward(self, dy, wq, cols, x_shape, input_grad):
        n, c, h, w = x_shape
        k = wq.shape[-1]
        dy_t = dy.transpose(1, 0, 2, 3).reshape(self.out_channels, n * h * w)
        dW = np.dot(dy_t, cols.T).reshape(wq.shape)
        if not input_grad:
            return dW, None
        dy_mat = dy.reshape(n, self.out_channels, h * w)
        w_mat = wq.reshape(self.out_channels, -1)
        dcols = np.matmul(w_mat.T, dy_mat).reshape(n, c, k, k, h, w)
        return dW, _col2im(lambda i, j: dcols[:, :, i, j], x_shape, k)


class DepthwiseConv2D(BranchedConv):
    kind = "depthwise_conv"

    def __init__(self, name, channels, kernel=3, **kwargs):
        self.channels = self.out_channels = int(channels)
        super().__init__(name, kernel, **kwargs)
        if self.width_options:
            raise ConfigError(f"layer {name!r}: depthwise layers cannot search width")

    def width_mask(self, arch):
        return None  # a depthwise layer's width follows its input

    def _weight_shape(self, k):
        return (self.channels, k, k)

    def _fan_in(self, k):
        return k * k

    def _branch_forward(self, x, k, wq):
        n, c, h, w = x.shape
        cols = np.ascontiguousarray(_windows(x, k).transpose(0, 1, 4, 5, 2, 3))
        y = np.einsum("ncijl,cij->ncl", cols.reshape(n, c, k, k, h * w), wq)
        return y.reshape(n, c, h, w), cols

    def _branch_backward(self, dy, wq, cols, x_shape, input_grad):
        n, c, h, w = x_shape
        k = wq.shape[-1]
        dW = np.matmul(cols.reshape(n, c, k * k, h * w), dy.reshape(n, c, h * w, 1)).sum(axis=0)
        if not input_grad:
            return dW.reshape(wq.shape), None
        # the input gradient is the outer product dy * w: add it one tap at a time
        dx = _col2im(lambda i, j: dy * wq[None, :, i, j, None, None], x_shape, k)
        return dW.reshape(wq.shape), dx


class ReLUCache(NamedTuple):
    pre_quant: np.ndarray       # the rectified values before fake quantization
    mask: np.ndarray            # where dy passes: x > 0, and inside the STE range


class ReLU(Layer):
    """Rectifier; also the activation fake-quant point of its owner layer."""

    kind = "relu"

    def __init__(self, name, owner: str | None = None):
        super().__init__(name)
        self.owner = owner

    def forward(self, x, quant: Quantizer | None = None, train: bool = True):
        """quant is the owner's activation quantizer, None while activations stay float."""
        pre = np.maximum(x, 0.0)
        y = pre if quant is None else quantize(pre, quant.fmt, quant.threshold)
        if not train:
            return y, None
        mask = pre > 0.0
        if quant is not None and quant.threshold is not None:
            mask &= pre <= quant.threshold  # pre >= 0: no abs needed
        return y, ReLUCache(pre, mask)

    def backward(self, dy, cache: ReLUCache):
        return dy * cache.mask, {}


class MaxPool2D(Layer):
    kind = "maxpool"

    def __init__(self, name, size=2):
        super().__init__(name)
        self.size = int(size)

    def forward(self, x, train: bool = True):
        s = self.size
        y = x[:, :, ::s, ::s]
        if not train:
            # no winners to track: a running maximum over the other offsets,
            # written into the array the first np.maximum made
            for o in range(1, s * s):
                y = np.maximum(x[:, :, o // s :: s, o % s :: s], y, out=y if o > 1 else None)
            return y, None
        # offsets in row-major window order; strict > keeps the first max
        idx = np.zeros(y.shape, dtype=np.intp)
        for o in range(1, s * s):
            cand = x[:, :, o // s :: s, o % s :: s]
            better = cand > y
            y = np.where(better, cand, y)
            np.copyto(idx, o, where=better)
        return y, (idx, x.shape)

    def backward(self, dy, cache):
        s = self.size
        idx, in_shape = cache
        dx = np.empty(in_shape)
        for o in range(s * s):
            np.multiply(dy, idx == o, out=dx[:, :, o // s :: s, o % s :: s])
        return dx, {}


class AvgPool2D(Layer):
    kind = "avgpool"

    def __init__(self, name, size=2):
        super().__init__(name)
        self.size = int(size)

    def forward(self, x):
        s = self.size
        n, c, h, w = x.shape
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5)), None

    def backward(self, dy, cache):
        s = self.size
        return np.repeat(np.repeat(dy, s, axis=2), s, axis=3) / (s * s), {}


class GlobalAvgPool(Layer):
    kind = "gap"

    def forward(self, x):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, dy, in_shape):
        n, c, h, w = in_shape
        return dy[:, :, None, None] * np.ones((n, c, h, w)) / (h * w), {}


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, in_shape):
        return dy.reshape(in_shape), {}


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
        if kind in ("conv", "depthwise_conv"):
            if flat is not None:
                raise ConfigError(f"layer {lname!r}: conv after flatten")
            if kind == "conv":
                layer = Conv2D(lname, c, cfg["out_channels"], cfg.get("kernel", 3), **common)
            else:
                layer = DepthwiseConv2D(lname, c, cfg.get("kernel", 3), **common)
            layer.base_macs = layer.out_channels * layer._fan_in(layer.base_kernel) * h * w
            c = layer.out_channels
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


# the neutral choice of a plain full-precision pass (profiling, stats)
_FLOAT_ARCH = ArchChoice(resolve_format("BF16"))


def _quantizer(thresholds: ThresholdTable | None, layer: str, fmt: NumericFormat,
               what: str) -> Quantizer:
    """The live quantizer of a layer's weights (what="weight") or activations."""
    if fmt.kind == "bf16":
        return Quantizer(fmt, None)
    if thresholds is None:
        raise DomainError(f"{what} quantization needs a threshold table")
    if what == "weight":
        return Quantizer(fmt, thresholds.weight_threshold(layer, fmt))
    t = thresholds.act_threshold(layer, fmt)
    if t is None:
        raise ThresholdError(f"layer {layer!r} has no activation threshold")
    return Quantizer(fmt, t)


class ForwardCache(NamedTuple):
    logits: np.ndarray
    layers: list                # layers[i] is what net.layers[i].forward returned as its cache


def forward(net: Network, x, archs=None, phase: QuantPhase | None = None,
            thresholds: ThresholdTable | None = None,
            joint_branches: bool = False, train: bool = True):
    """Run the network. Returns (logits, ForwardCache) for a later backward pass.

    archs maps searchable layer names to ArchChoice; non-searchable compute
    layers use their pinned format.  With phase None (or both quantizers off)
    this is a plain float forward and archs may be omitted entirely.  Each
    compute layer gets its weight quantizer and each ReLU its owner's
    activation quantizer from here.  With train False (validation and
    serving) no layer builds backward state, each ReLU -> MaxPool2D pair runs
    pool first, and the result is (logits, None); the logits are the same
    bits as with train True.
    """
    phase = phase or QuantPhase()
    quant_on = phase.weight_quant or phase.act_quant
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != tuple(net.input_shape):
        raise DomainError(f"input shape {x.shape[1:]} != expected {net.input_shape}")
    layers = net.layers
    # inference runs each ReLU -> MaxPool2D pair pool first: these pools, by index
    pooled_early = set() if train else {
        i + 1 for i, (a, b) in enumerate(zip(layers, layers[1:]))
        if isinstance(a, ReLU) and isinstance(b, MaxPool2D)
    }
    caches = []
    chosen: dict[str, ArchChoice] = {}
    for i, layer in enumerate(layers):
        if i in pooled_early:
            continue
        quant = None
        if layer.is_compute:
            arch = _arch_for_layer(layer, archs) if quant_on or archs else _FLOAT_ARCH
            chosen[layer.name] = arch
            if phase.weight_quant:
                quant = _quantizer(thresholds, layer.name, arch.fmt, "weight")
            y, cache = layer.forward(x, arch, quant, joint_branches, train)
        elif isinstance(layer, ReLU):
            if phase.act_quant and layer.owner is not None:
                quant = _quantizer(thresholds, layer.owner, chosen[layer.owner].fmt, "activation")
            if i + 1 in pooled_early:  # x is finite, so the pooled x is too
                x, _ = layers[i + 1].forward(x, False)
            y, cache = layer.forward(x, quant, train)
        elif isinstance(layer, MaxPool2D):
            y, cache = layer.forward(x, train)
        else:
            y, cache = layer.forward(x)
        if not np.all(np.isfinite(y)):
            raise NumericalError(
                f"layer {layer.name!r} (index {i}) produced non-finite activations"
            )
        if train:
            caches.append(cache)
        x = y
    return x, ForwardCache(x, caches) if train else None


def cross_entropy(logits, labels) -> float:
    """Mean softmax cross-entropy."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    n = len(labels)
    return float(np.mean(logsumexp - z[np.arange(n), labels]))


def accuracy(logits, labels) -> float:
    return float(np.mean(logits.argmax(axis=1) == labels))


def backward(net: Network, cache: ForwardCache, labels):
    """Backprop from softmax cross-entropy. Returns {layer: {param: grad}}."""
    logits = cache.logits
    n = len(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    dy = p / n
    grads: dict[str, dict[str, np.ndarray]] = {}
    layers = net.layers
    # no layer below the first compute layer has parameters, and that layer's
    # input gradient would go nowhere: it is asked for weight gradients only
    first = next((i for i, l in enumerate(layers) if l.is_compute), len(layers))
    for i in range(len(layers) - 1, first, -1):
        dy, g = layers[i].backward(dy, cache.layers[i])
        if g:
            grads[layers[i].name] = g
    if first < len(layers):
        _, grads[layers[first].name] = layers[first].backward(dy, cache.layers[first],
                                                              input_grad=False)
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
        for layer, layer_cache in zip(net.layers, cache.layers):
            if isinstance(layer, ReLU) and layer.owner is not None:
                a = layer_cache.pre_quant
                sums[layer.owner] = sums.get(layer.owner, 0.0) + float(a.sum())
                sqs[layer.owner] = sqs.get(layer.owner, 0.0) + float((a * a).sum())
                counts[layer.owner] = counts.get(layer.owner, 0) + a.size
        # this batch's activations go before the next batch's forward
        cache = layer_cache = a = None
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
        table.set_weight(layer.name, layer.max_abs_weight())
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
            table.set_act(layer.name, fmt.name, act_t)
    return table


def update_weight_thresholds(net: Network, table: ThresholdTable) -> None:
    """Refresh every compute layer's weight threshold, its max |w|, from the current weights."""
    for layer in net.compute_layers():
        table.set_weight(layer.name, layer.max_abs_weight())


def network_manifest(net: Network) -> ModelManifest:
    """Derive a cost manifest from the network's shapes.

    Width variants scale base MACs by the kept-channel fraction; kernel
    variants scale by (k / base_kernel)^2.  Input channels stay at full
    width because masks zero outputs only.
    """
    specs = []
    for layer in net.compute_layers():
        widths = sorted(set(layer.width_options or [1.0]) | {1.0})
        kernels, base_k = layer.kernel_sizes, layer.base_kernel
        table = None
        if len(widths) > 1 or len(kernels) > 1:
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
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint: {e.strerror}") from None
    if buf[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {buf[:4]!r}")
    off = 4

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if len(buf) - off < n:
            raise DataError(f"{path}: truncated {what} at byte offset {off}: "
                            f"need {n} bytes, {len(buf) - off} left")
        off += n
        return buf[off - n : off]

    version, count = struct.unpack("<LL", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    metas = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2, "layer table"))
        try:
            name = take(nlen, "layer table").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: layer name is not UTF-8 before byte offset {off}") from None
        (ndim,) = struct.unpack("<B", take(1, "layer table"))
        shape = struct.unpack(f"<{ndim}L", take(4 * ndim, "layer table"))
        metas.append((name, shape))
    out = {}
    for name, shape in metas:
        n = math.prod(shape)
        arr = np.frombuffer(take(4 * n, f"payload of {name}"), dtype="<f4")
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
