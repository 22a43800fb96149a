"""Brute-force reference quantizer used to validate the fast implementation.

The oracle shares only the unavoidable prelude with the implementation
(clipping and the threshold-to-scale mapping); the rounding decision itself
compares each input with every representable value, in blocks of a distance
matrix, with explicit tie handling (ties go to the even integer / even
mantissa encoding).
"""

import struct

import numpy as np

from fliqs.formats import max_representable


def oracle_quantize(x, fmt, threshold):
    """Nearest-representable-value quantization by exhaustive search."""
    t = float(threshold)
    a = np.asarray(x, dtype=np.float64)
    clipped = np.clip(a, -t, t)
    if fmt.kind == "int":
        qmax = 2 ** (fmt.bits - 1) - 1
        scale = qmax / t
        y = clipped * scale
        idx = _nearest_int_index(y, qmax)
        return idx / qmax * t
    m = max_representable(fmt)
    y = clipped * (m / t)
    values, parity = _mantissa_parity(fmt)
    snapped = _nearest_float_value(y, values, parity)
    return snapped / m * t


def _mantissa_parity(fmt):
    """Every value of a minifloat, ascending, and the parity of its mantissa code.

    The parity breaks exact ties toward the even mantissa encoding.
    """
    e, m = fmt.exp_bits, fmt.mantissa_bits
    bias = 2 ** (e - 1)
    seen = {}
    for code in range(2**e):
        for frac in range(2**m):
            if code == 0:
                v = frac / 2**m * 2.0 ** (1 - bias)
            else:
                v = (1 + frac / 2**m) * 2.0 ** (code - bias)
            seen.setdefault(v, frac % 2)
    mags = sorted(seen)
    values = [-v for v in reversed(mags) if v != 0.0] + mags
    parity = [seen[abs(v)] for v in values]
    return np.asarray(values, dtype=np.float64), np.asarray(parity, dtype=np.int64)


# Distance-matrix entries per block: bounds the oracle's memory, not its result.
_BLOCK = 1 << 20


def _nearest(y, values, even):
    """Per element of y, the closest entry of values by exhaustive search.

    Every element is compared with every representable value.  Exact ties go
    to the first tied entry marked even, or to the first tied entry if none is.
    """
    flat = np.asarray(y, dtype=np.float64).reshape(-1)
    out = np.empty_like(flat)
    step = max(1, _BLOCK // len(values))
    for start in range(0, flat.size, step):
        v = flat[start : start + step]
        d = np.abs(values[None, :] - v[:, None])
        tied = d == d.min(axis=1, keepdims=True)
        even_tied = tied & even[None, :]
        pick = np.where(even_tied.any(axis=1), even_tied.argmax(axis=1), tied.argmax(axis=1))
        out[start : start + step] = values[pick]
    return out.reshape(np.shape(y))


def _nearest_int_index(y, qmax):
    """Per element, the integer in [-qmax, qmax] closest to y; ties to even."""
    candidates = np.arange(-qmax, qmax + 1, dtype=np.float64)
    return _nearest(y, candidates, np.arange(-qmax, qmax + 1) % 2 == 0)


def _nearest_float_value(y, values, parity):
    """Per element, the closest enumerated minifloat value; ties to even mantissa."""
    return _nearest(y, values, parity == 0)


def oracle_bf16(x):
    """Scalar bit-twiddling reference for bfloat16 rounding (RNE)."""
    a = np.asarray(x, dtype=np.float64)
    out = np.empty(a.shape, dtype=np.float64)
    flat = out.reshape(-1)
    for j, v in enumerate(a.reshape(-1)):
        bits = struct.unpack("<I", struct.pack("<f", np.float32(v)))[0]
        keep = bits >> 16
        rem = bits & 0xFFFF
        if rem > 0x8000 or (rem == 0x8000 and keep & 1):
            keep += 1
        flat[j] = struct.unpack("<f", struct.pack("<I", (keep << 16) & 0xFFFFFFFF))[0]
    return out
