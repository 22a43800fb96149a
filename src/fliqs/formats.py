"""Numeric format descriptors: symmetric integers, minifloats, and BF16.

A format describes a family of representable values at unit scale.  Integer
formats INTk (2 <= k <= 32) represent the odd symmetric grid i / (2^(k-1) - 1).
Minifloat formats EeMm (1 <= e <= 6, 1 <= m <= 7) carry a sign bit, e exponent
bits, and m mantissa bits, with exponent bias fixed at 2^(e-1), subnormals
supported, and no infinities or NaNs: every encoding is finite and the
all-ones exponent is an ordinary normal binade.  BF16 is the 16-bit reference
format (8 exponent bits, 8-bit significand) treated as quasi-lossless.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatSpecError

_INT_RE = re.compile(r"^INT(\d+)$")
_FLOAT_RE = re.compile(r"^E(\d+)M(\d+)$")

# Enumerating representable values is only allowed for small formats.
ENUMERATION_BIT_LIMIT = 10


@dataclass(frozen=True, order=True)
class NumericFormat:
    """One quantization format. kind is 'int', 'float', or 'bf16'.

    For 'int', bits is the total width k.  For 'float', exp_bits and
    mantissa_bits describe the layout (a sign bit is implicit).  BF16
    carries no parameters.
    """

    kind: str
    bits: int = 0
    exp_bits: int = 0
    mantissa_bits: int = 0

    def __post_init__(self):
        if self.kind == "int":
            if not 2 <= self.bits <= 32:
                raise FormatSpecError(
                    f"integer width must be in [2, 32], got {self.bits}"
                )
        elif self.kind == "float":
            if not 1 <= self.exp_bits <= 6:
                raise FormatSpecError(
                    f"exponent bits must be in [1, 6], got {self.exp_bits}"
                )
            if not 1 <= self.mantissa_bits <= 7:
                raise FormatSpecError(
                    f"mantissa bits must be in [1, 7], got {self.mantissa_bits}"
                )
        elif self.kind != "bf16":
            raise FormatSpecError(f"unknown format kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == "int":
            return f"INT{self.bits}"
        if self.kind == "float":
            return f"E{self.exp_bits}M{self.mantissa_bits}"
        return "BF16"

    def __str__(self) -> str:
        return self.name


def int_format(bits: int) -> NumericFormat:
    return NumericFormat("int", bits=bits)


def float_format(exp_bits: int, mantissa_bits: int) -> NumericFormat:
    return NumericFormat("float", exp_bits=exp_bits, mantissa_bits=mantissa_bits)


BF16 = NumericFormat("bf16")


def parse_format(name: str) -> NumericFormat:
    """Parse a format name like 'INT8', 'E4M3', or 'BF16'."""
    if not isinstance(name, str):
        raise FormatSpecError(f"format name must be a string, got {type(name).__name__}")
    token = name.strip().upper()
    if token == "BF16":
        return BF16
    m = _INT_RE.match(token)
    if m:
        return int_format(int(m.group(1)))
    m = _FLOAT_RE.match(token)
    if m:
        return float_format(int(m.group(1)), int(m.group(2)))
    raise FormatSpecError(f"unrecognized format name {name!r}")


def total_bitwidth(fmt: NumericFormat) -> int:
    """Bits consumed by one value: k for INTk, 1+e+m for EeMm, 16 for BF16."""
    if fmt.kind == "int":
        return fmt.bits
    if fmt.kind == "float":
        return 1 + fmt.exp_bits + fmt.mantissa_bits
    return 16


def max_representable(fmt: NumericFormat) -> float:
    """Largest finite magnitude encodable at unit scale."""
    if fmt.kind == "int":
        return 1.0
    if fmt.kind == "float":
        bias = 2 ** (fmt.exp_bits - 1)
        emax = (2**fmt.exp_bits - 1) - bias
        return float((2.0 - 2.0 ** (-fmt.mantissa_bits)) * 2.0**emax)
    raise FormatSpecError("BF16 has no finite enumeration ceiling here")


def representable_values(fmt: NumericFormat) -> np.ndarray:
    """All distinct finite values encodable in fmt at unit scale, ascending.

    Integers enumerate the symmetric grid i / (2^(k-1) - 1).  Minifloats
    enumerate every (sign, exponent, mantissa) encoding; exponent code 0 is
    the subnormal binade.  BF16 and anything wider than 10 total bits refuse
    enumeration.
    """
    if fmt.kind == "bf16":
        raise FormatSpecError("BF16 is not enumerable")
    if total_bitwidth(fmt) > ENUMERATION_BIT_LIMIT:
        raise FormatSpecError(
            f"{fmt.name} is too wide to enumerate "
            f"({total_bitwidth(fmt)} > {ENUMERATION_BIT_LIMIT} bits)"
        )
    if fmt.kind == "int":
        qmax = 2 ** (fmt.bits - 1) - 1
        grid = np.arange(-qmax, qmax + 1, dtype=np.float64) / qmax
        return grid
    magnitudes = _float_magnitudes(fmt)
    values = np.concatenate([-magnitudes[::-1], magnitudes[1:]])
    return values


def _float_magnitudes(fmt: NumericFormat) -> np.ndarray:
    """Nonnegative minifloat values, ascending, starting at zero."""
    e, m = fmt.exp_bits, fmt.mantissa_bits
    bias = 2 ** (e - 1)
    out = []
    for code in range(2**e):
        for frac in range(2**m):
            if code == 0:
                v = frac / 2**m * 2.0 ** (1 - bias)
            else:
                v = (1 + frac / 2**m) * 2.0 ** (code - bias)
            out.append(v)
    return np.asarray(sorted(set(out)), dtype=np.float64)



def resolve_format(fmt) -> NumericFormat:
    """Accept a NumericFormat or a name string and return a NumericFormat."""
    if isinstance(fmt, NumericFormat):
        return fmt
    return parse_format(fmt)


# Named search spaces. The -S spaces are the small profiles, -L the large.
SEARCH_SPACES: dict[str, tuple[str, ...]] = {
    "FLIQS-S-int": ("INT4", "INT8", "BF16"),
    "FLIQS-L-int": ("INT4", "INT5", "INT6", "INT7", "INT8", "BF16"),
    "FLIQS-S-fp": ("E2M1", "E4M3", "BF16"),
    "FLIQS-L-fp": (
        "E2M1", "E2M2", "E2M3", "E2M4", "E2M5",
        "E3M1", "E3M2", "E3M3", "E3M4",
        "E4M1", "E4M2", "E4M3",
        "E5M1", "E5M2",
        "E6M1",
        "BF16",
    ),
}


def resolve_search_space(space) -> list[NumericFormat]:
    """Turn a named search space or an explicit format list into formats."""
    if isinstance(space, str):
        try:
            names = SEARCH_SPACES[space]
        except KeyError:
            raise FormatSpecError(
                f"unknown search space {space!r}; known: {sorted(SEARCH_SPACES)}"
            ) from None
    else:
        names = tuple(space)
        if not names:
            raise FormatSpecError("search space must contain at least one format")
    return [resolve_format(n) for n in names]
