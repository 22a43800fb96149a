"""Independent reference forward pass for a served model.

It reads `served_config.json` and `weights.bin` itself and evaluates the
network with direct sliding-window convolution.  Quantization picks the
nearest value of the format's `representable_values` grid by exhaustive
search, ties to the even integer or the even mantissa encoding; bfloat16
rounding goes through frexp rather than bit masks.  The only thing it takes
from fliqs is that grid.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from workloads import Workload

# Two logits closer than this share of the larger magnitude may swap order
# between the two implementations: summation order and a value sitting on a
# rounding boundary can move a quantized activation by one grid step.
MARGIN = 0.05


@functools.cache
def _grid(fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """(values at unit scale ascending, True where the encoding is even)."""
    from fliqs.formats import parse_format, representable_values

    values = representable_values(parse_format(fmt))
    if fmt.startswith("INT"):
        qmax = 2 ** (int(fmt[3:]) - 1) - 1
        even = np.rint(values * qmax).astype(np.int64) % 2 == 0
    else:
        e, m = (int(v) for v in fmt[1:].split("M"))
        min_normal = 2.0 ** (1 - 2 ** (e - 1))
        mag = np.abs(values)
        frac = np.where(
            mag < min_normal,
            mag / min_normal * 2**m,
            (mag / 2.0 ** np.floor(np.log2(np.maximum(mag, min_normal))) - 1.0) * 2**m,
        )
        even = np.rint(frac).astype(np.int64) % 2 == 0
    return values, even


def quantize_ref(x: np.ndarray, fmt: str, threshold: float) -> np.ndarray:
    """Clip to +-threshold, snap to the nearest grid value, ties to even."""
    values, even = _grid(fmt)
    top = values[-1]
    y = (np.clip(x, -threshold, threshold) / threshold * top).reshape(-1)
    out = np.empty_like(y)
    for lo in range(0, y.size, 4096):
        d = np.abs(y[lo : lo + 4096, None] - values[None, :])
        tied = d == d.min(axis=1, keepdims=True)
        tied_even = tied & even[None, :]
        idx = np.where(tied_even.any(axis=1), tied_even.argmax(axis=1), tied.argmax(axis=1))
        out[lo : lo + 4096] = values[idx]
    return (out * (threshold / top)).reshape(x.shape)


def bf16_ref(x: np.ndarray) -> np.ndarray:
    """float32 cast, then the significand rounded to 8 bits, ties to even."""
    mant, exp = np.frexp(x.astype(np.float32).astype(np.float64))
    return np.ldexp(np.rint(mant * 256.0) / 256.0, exp)


def _fake_quant(x, entry, which):
    if entry["format"] == "BF16":
        return bf16_ref(x)
    return quantize_ref(x, entry["format"], entry[which])


def _conv_same(x, w, b):
    n, _, h, wd = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((n, w.shape[0], h, wd))
    for i in range(k):
        for j in range(k):
            window = xp[:, :, i : i + h, j : j + wd]
            y += np.tensordot(window, w[:, :, i, j], axes=([1], [1])).transpose(0, 3, 1, 2)
    return y + b[None, :, None, None]


def _depthwise_same(x, w, b):
    n, c, h, wd = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros_like(x)
    for i in range(k):
        for j in range(k):
            y += xp[:, :, i : i + h, j : j + wd] * w[None, :, i, j, None, None]
    return y + b[None, :, None, None]


def reference_logits(wl: Workload, doc: dict, weights: dict, x: np.ndarray) -> np.ndarray:
    """Logits of the served model on x [N, C, H, W], fully quantized."""
    entries = {e["name"]: e for e in doc["layers"]}
    owner = None
    for layer in wl.layout:
        kind = layer["type"]
        if kind in ("conv", "depthwise_conv", "dense"):
            name = layer["name"]
            entry = entries[name]
            key = "W" if kind == "dense" else f"W{entry['kernel'] or layer['kernel']}"
            w = _fake_quant(weights[f"{name}/{key}"], entry, "weight_threshold")
            b = weights[f"{name}/b"]
            if kind == "dense":
                x = x @ w.T + b
            elif kind == "conv":
                x = _conv_same(x, w, b)
            else:
                x = _depthwise_same(x, w, b)
            kept = math.ceil(entry["width_mult"] * x.shape[1])
            x[:, kept:] = 0.0
            owner = entry
        elif kind == "relu":
            x = _fake_quant(np.maximum(x, 0.0), owner, "act_threshold")
        elif kind == "maxpool":
            s = layer["size"]
            n, c, h, wd = x.shape
            x = x.reshape(n, c, h // s, s, wd // s, s).max(axis=(3, 5))
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
    return x


def program_logits(doc: dict, weights_path, x: np.ndarray) -> np.ndarray:
    """The program's own logits for the same served files."""
    from fliqs.network import QuantPhase, forward
    from fliqs.search import load_served

    net, archs, thresholds = load_served(doc, weights_path)
    logits, _ = forward(net, x, archs, QuantPhase(weight_quant=True, act_quant=True),
                        thresholds)
    return logits


def compare(ref: np.ndarray, prog: np.ndarray) -> tuple[list[str], dict]:
    """Top-1 agreement, excusing images whose two best reference logits are
    within MARGIN of each other."""
    top2 = np.sort(ref, axis=1)[:, -2:]
    gap = top2[:, 1] - top2[:, 0]
    scale = np.max(np.abs(ref), axis=1)
    near_tie = gap <= MARGIN * scale
    differ = ref.argmax(axis=1) != prog.argmax(axis=1)
    bad = np.flatnonzero(differ & ~near_tie)
    fails = [f"reference: image {i} top-1 {ref[i].argmax()} vs program {prog[i].argmax()}, "
             f"gap {gap[i]:.4g}" for i in bad[:5]]
    stats = {"images": int(len(ref)), "disagree": int(differ.sum()),
             "excused": int((differ & near_tie).sum()),
             "max_abs_logit_diff": float(np.max(np.abs(ref - prog)))}
    return fails, stats
