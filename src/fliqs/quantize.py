"""Symmetric fake quantization with round-half-to-even.

The quantizer clips to a per-tensor threshold, scales so the threshold maps
to the format's largest magnitude, rounds to the nearest representable value
(ties to the even integer or even mantissa), and rescales.  Integer formats
use scale s = (2^(k-1) - 1) / threshold, so the output grid is i / s.
Minifloats snap the scaled value onto the nearest point of the binade grid.
BF16 rounds the float32 significand to 8 bits and never clips.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .formats import max_representable, resolve_format


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} contains non-finite values")


def _check_threshold(threshold: float) -> float:
    t = float(threshold)
    if not np.isfinite(t) or t <= 0.0:
        raise DomainError(f"clipping threshold must be finite and positive, got {threshold!r}")
    return t


def bf16_round(x) -> np.ndarray:
    """Round to bfloat16 precision: float32 cast, then significand to 8 bits.

    Both roundings are to nearest, ties to even.  No clipping is applied;
    BF16 shares float32's exponent range.
    """
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    _check_finite(a, "input tensor")
    u = a.astype(np.float32).view(np.uint32)
    round_bias = np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))
    truncated = ((u + round_bias) >> np.uint32(16)) << np.uint32(16)
    return truncated.view(np.float32).astype(np.float64)


def _snap_to_float_grid(y: np.ndarray, exp_bits: int, mantissa_bits: int) -> np.ndarray:
    """Nearest grid point of the minifloat value set, ties to even mantissa.

    y must already lie within [-max_finite, max_finite].  Each value rounds
    on its own binade's uniform grid; the subnormal binade shares the first
    normal binade's step, which makes the even-mantissa tie rule coincide
    with round-half-to-even on the grid index.
    """
    bias = 2 ** (exp_bits - 1)
    emin = 1 - bias
    frac, exp2 = np.frexp(np.abs(y))
    # frexp maps y = f * 2^E with f in [0.5, 1), so floor(log2 |y|) = E - 1.
    binade = np.maximum(exp2 - 1, emin)
    step = np.ldexp(1.0, binade - mantissa_bits)
    return np.rint(y / step) * step


def quantize(x, fmt, threshold: float | None = None) -> np.ndarray:
    """Fake-quantize x to fmt with clipping threshold sigma_t.

    Returns an array of the same shape holding the nearest representable
    values, scaled so that +-threshold maps to the format's extreme finite
    magnitudes.  BF16 ignores the threshold (pass None).  Scalars in give a
    0-d array back; use .item() if a Python float is wanted.
    """
    f = resolve_format(fmt)
    a = np.asarray(x, dtype=np.float64)
    _check_finite(a, "input tensor")
    if f.kind == "bf16":
        return bf16_round(a)
    if threshold is None:
        raise DomainError(f"{f.name} requires a clipping threshold")
    t = _check_threshold(threshold)
    clipped = np.clip(a, -t, t)
    if f.kind == "int":
        qmax = 2 ** (f.bits - 1) - 1
        scale = qmax / t
        # materialize as (i/qmax)*t, not i/scale: saturated values must
        # equal the threshold exactly, which i/scale misses by an ulp
        return np.rint(clipped * scale) / qmax * t
    m = max_representable(f)
    scale = m / t
    return _snap_to_float_grid(clipped * scale, f.exp_bits, f.mantissa_bits) / m * t


def quant_error(x, fmt, threshold: float | None = None) -> np.ndarray:
    """Elementwise |quantize(x) - x|."""
    a = np.asarray(x, dtype=np.float64)
    return np.abs(quantize(a, fmt, threshold) - a)


def switching_error(x, fmt_a, fmt_b, threshold: float | None = None,
                    threshold_b: float | None = None) -> np.ndarray:
    """Elementwise |quantize(x, fmt_b) - quantize(x, fmt_a)|.

    Both quantizers share `threshold` unless threshold_b is given.  This is
    the perturbation a tensor sees when the serving format flips from fmt_a
    to fmt_b.
    """
    fa = resolve_format(fmt_a)
    fb = resolve_format(fmt_b)
    ta = None if fa.kind == "bf16" else threshold
    tb = threshold_b if threshold_b is not None else threshold
    tb = None if fb.kind == "bf16" else tb
    a = np.asarray(x, dtype=np.float64)
    return np.abs(quantize(a, fb, tb) - quantize(a, fa, ta))
