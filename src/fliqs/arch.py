"""Per-layer architecture choices proposed during a search."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .formats import NumericFormat, resolve_format


@dataclass(frozen=True, order=True)
class ArchChoice:
    """One layer's sampled configuration: numeric format, width, kernel.

    width_mult scales the layer's active output channels; kernel picks a
    convolution kernel size when the layer searches over kernels (None means
    the layer's base kernel).
    """

    fmt: NumericFormat
    width_mult: float = 1.0
    kernel: int | None = None

    def __post_init__(self):
        if not 0.0 < self.width_mult <= 1.0:
            raise ConfigError(f"width multiplier must be in (0, 1], got {self.width_mult}")

    @property
    def label(self) -> str:
        """Compact display token, e.g. 'INT8' or 'INT4;w0.5;k5'."""
        parts = [self.fmt.name]
        if self.width_mult != 1.0:
            parts.append(f"w{self.width_mult:g}")
        if self.kernel is not None:
            parts.append(f"k{self.kernel}")
        return ";".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "ArchChoice":
        parts = label.split(";")
        fmt = resolve_format(parts[0])
        width = 1.0
        kernel = None
        for p in parts[1:]:
            try:
                if p.startswith("w"):
                    width = float(p[1:])
                    continue
                if p.startswith("k"):
                    kernel = int(p[1:])
                    continue
            except ValueError:
                pass
            raise ConfigError(f"bad arch label component {p!r} in {label!r}")
        return cls(fmt, width, kernel)


def arch_for(fmt, width_mult: float = 1.0, kernel: int | None = None) -> ArchChoice:
    """Convenience constructor accepting a format name or NumericFormat."""
    return ArchChoice(resolve_format(fmt), width_mult, kernel)
