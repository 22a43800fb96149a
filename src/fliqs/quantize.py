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
    a = np.asarray(x, dtype=np.float64)
    _check_finite(a, "input tensor")
    return _bf16(a)


def _bf16(a: np.ndarray) -> np.ndarray:
    # the bit operations run in place on the float32 copy this function made
    u = a.astype(np.float32).view(np.uint32)
    round_bias = u >> np.uint32(16)
    round_bias &= np.uint32(1)
    round_bias += np.uint32(0x7FFF)
    u += round_bias
    u >>= np.uint32(16)
    u <<= np.uint32(16)
    return u.view(np.float32).astype(np.float64)


def _snap_to_float_grid(y: np.ndarray, exp_bits: int, mantissa_bits: int) -> None:
    """Move y, in place, to the nearest point of the minifloat value set.

    Ties go to the even mantissa.  y must be an array of at least one
    dimension that already lies within [-max_finite, max_finite].  Each
    value rounds on its own binade's uniform grid; the subnormal binade
    shares the first normal binade's step, which makes the even-mantissa
    tie rule coincide with round-half-to-even on the grid index.
    """
    emin = 1 - 2 ** (exp_bits - 1)
    # frexp maps y = f * 2^E with f in [0.5, 1), so floor(log2 |y|) = E - 1;
    # the grid step is 2^(max(E - 1, emin) - mantissa_bits)
    frac, exp2 = np.frexp(y)
    exp2 -= 1 + mantissa_bits
    np.maximum(exp2, emin - mantissa_bits, out=exp2)
    step = np.ldexp(1.0, exp2, out=frac)  # the mantissas are not needed: reuse their buffer
    y /= step
    np.rint(y, out=y)
    y *= step


def quantize(x, fmt, threshold: float | None = None) -> np.ndarray:
    """Fake-quantize x to fmt with clipping threshold sigma_t.

    Returns an array of the same shape holding the nearest representable
    values, scaled so that +-threshold maps to the format's extreme finite
    magnitudes.  BF16 ignores the threshold (pass None).  Scalars in give a
    0-d array back; use .item() if a Python float is wanted.  x is never
    written: the result is a new array.
    """
    f = resolve_format(fmt)
    a = np.asarray(x, dtype=np.float64)
    _check_finite(a, "input tensor")
    if f.kind == "bf16":
        return _bf16(a)
    if threshold is None:
        raise DomainError(f"{f.name} requires a clipping threshold")
    t = _check_threshold(threshold)
    # the clipped copy is the only new array; every later step works in place
    # on it (at least 1-d, since ufuncs return scalars for 0-d operands)
    y = np.clip(np.atleast_1d(a), -t, t)
    if f.kind == "int":
        qmax = 2 ** (f.bits - 1) - 1
        y *= qmax / t
        np.rint(y, out=y)
        # materialize as (i/qmax)*t, not i/scale: saturated values must
        # equal the threshold exactly, which i/scale misses by an ulp
        y /= qmax
    else:
        m = max_representable(f)
        y *= m / t
        _snap_to_float_grid(y, f.exp_bits, f.mantissa_bits)
        y /= m
    y *= t
    return y.reshape(a.shape)


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
