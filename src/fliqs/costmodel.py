"""Bit-operation cost model and the cost-aware reward.

A layer executing MAC_l multiply-accumulates in a b-bit format costs
C_l = b^2 * MAC_l bit-operations (BOPs); totals are reported in GBOPs.
The search reward combines task quality with a symmetric penalty on the
relative distance of the model's total cost from a target:

    r = Q + gamma * |sum_l C_l / C_target - 1|

with gamma negative so both over- and under-shooting the target is punished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .arch import ArchChoice
from .errors import DomainError, FormatSpecError, ManifestError
from .formats import resolve_format, total_bitwidth

GBOPS = 1e9


@dataclass(frozen=True)
class LayerSpec:
    """Static cost data for one layer.

    macs is the multiply-accumulate count at base width and kernel.
    mac_table optionally maps 'w{width:g}_k{kernel}' keys to MAC counts for
    searched width/kernel variants; it must contain the identity entry when
    present.  Non-searchable layers pin fixed_format.
    """

    name: str
    macs: int
    searchable: bool = True
    fixed_format: str | None = None
    base_kernel: int | None = None
    mac_table: dict[str, int] | None = None

    def __post_init__(self):
        if self.macs <= 0:
            raise ManifestError(f"layer {self.name!r}: macs must be positive, got {self.macs}")
        if not self.searchable and self.fixed_format is None:
            raise ManifestError(f"layer {self.name!r}: non-searchable layers need fixed_format")


@dataclass(frozen=True)
class ModelManifest:
    name: str
    layers: tuple[LayerSpec, ...]

    def layer_names(self) -> list[str]:
        return [l.name for l in self.layers]

    def searchable_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.searchable]


@dataclass(frozen=True)
class RewardParams:
    """Reward shaping: cost_target in BOPs, gamma the (negative) penalty weight."""

    cost_target: float
    gamma: float = -1.0

    def __post_init__(self):
        if not self.cost_target > 0:
            raise DomainError(f"cost target must be positive, got {self.cost_target}")


def mac_table_key(width_mult: float, kernel: int) -> str:
    return f"w{width_mult:g}_k{kernel}"


def resolve_macs(layer: LayerSpec, arch: ArchChoice) -> int:
    """MAC count for this layer under the sampled width/kernel."""
    base_only = arch.width_mult == 1.0 and (
        arch.kernel is None or arch.kernel == layer.base_kernel
    )
    if base_only:
        return layer.macs
    if layer.mac_table is None:
        raise ManifestError(
            f"layer {layer.name!r}: width/kernel variant requested but no mac_table"
        )
    kernel = arch.kernel if arch.kernel is not None else layer.base_kernel
    if kernel is None:
        raise ManifestError(f"layer {layer.name!r}: no kernel size to look up")
    key = mac_table_key(arch.width_mult, kernel)
    try:
        return layer.mac_table[key]
    except KeyError:
        raise ManifestError(
            f"layer {layer.name!r}: mac_table has no entry {key!r}"
        ) from None


def layer_cost(layer: LayerSpec, arch: ArchChoice) -> float:
    """BOPs for one layer: format bitwidth squared times resolved MACs."""
    b = total_bitwidth(arch.fmt)
    return float(b * b * resolve_macs(layer, arch))


def model_cost(manifest: ModelManifest, archs) -> float:
    """Total BOPs for a per-layer architecture assignment.

    archs must supply one ArchChoice per layer, positionally.  Entries for
    non-searchable layers may be None; their manifest-pinned format is used.
    """
    archs = list(archs)
    if len(archs) != len(manifest.layers):
        raise ManifestError(
            f"expected {len(manifest.layers)} arch choices for {manifest.name!r}, "
            f"got {len(archs)}"
        )
    total = 0.0
    for layer, arch in zip(manifest.layers, archs):
        if not layer.searchable:
            arch = ArchChoice(resolve_format(layer.fixed_format))
        elif arch is None:
            raise ManifestError(f"layer {layer.name!r} is searchable but got no arch choice")
        total += layer_cost(layer, arch)
    return total


def uniform_cost(manifest: ModelManifest, fmt) -> float:
    """Total BOPs with every layer (including non-searchable ones) in fmt."""
    f = resolve_format(fmt)
    b = total_bitwidth(f)
    return float(b * b) * sum(l.macs for l in manifest.layers)


def reward(quality: float, cost: float, params: RewardParams) -> float:
    """Search reward: quality plus gamma-weighted relative cost error."""
    if not (0.0 <= quality <= 1.0):
        raise DomainError(f"quality must lie in [0, 1], got {quality}")
    if cost < 0:
        raise DomainError(f"cost must be nonnegative, got {cost}")
    return quality + params.gamma * abs(cost / params.cost_target - 1.0)


def _layer_from_dict(d: dict, index: int) -> LayerSpec:
    if not isinstance(d, dict):
        raise ManifestError(f"layer entry {index} is not an object")
    unknown = set(d) - {"name", "macs", "searchable", "fixed_format", "base_kernel", "mac_table"}
    if unknown:
        raise ManifestError(f"layer entry {index}: unknown keys {sorted(unknown)}")
    try:
        name = d["name"]
        macs = d["macs"]
    except KeyError as e:
        raise ManifestError(f"layer entry {index}: missing required key {e}") from None
    if not isinstance(name, str) or not name:
        raise ManifestError(f"layer entry {index}: name must be a non-empty string")
    if not isinstance(macs, int) or isinstance(macs, bool):
        raise ManifestError(f"layer {name!r}: macs must be an integer, got {macs!r}")
    table = d.get("mac_table")
    if table is not None:
        if not isinstance(table, dict):
            raise ManifestError(f"layer {name!r}: mac_table must be an object")
        for k, v in table.items():
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise ManifestError(f"layer {name!r}: mac_table[{k!r}] must be a positive integer")
        base_kernel = d.get("base_kernel")
        if base_kernel is not None:
            ident = mac_table_key(1.0, base_kernel)
            if table.get(ident) != macs:
                raise ManifestError(
                    f"layer {name!r}: mac_table identity entry {ident!r} must equal macs"
                )
    fixed = d.get("fixed_format")
    if fixed is not None:
        try:
            resolve_format(fixed)
        except FormatSpecError as e:
            raise ManifestError(f"layer {name!r}: bad fixed_format: {e}") from None
    return LayerSpec(
        name=name,
        macs=macs,
        searchable=d.get("searchable", True),
        fixed_format=fixed,
        base_kernel=d.get("base_kernel"),
        mac_table=table,
    )


def manifest_from_dict(doc: dict) -> ModelManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    unknown = set(doc) - {"model_name", "layers"}
    if unknown:
        raise ManifestError(f"manifest: unknown keys {sorted(unknown)}")
    name = doc.get("model_name")
    layers = doc.get("layers")
    if not isinstance(name, str) or not name:
        raise ManifestError("manifest: model_name must be a non-empty string")
    if not isinstance(layers, list) or not layers:
        raise ManifestError("manifest: layers must be a non-empty array")
    specs = tuple(_layer_from_dict(l, i) for i, l in enumerate(layers))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ManifestError("manifest: duplicate layer names")
    return ModelManifest(name=name, layers=specs)


_BUNDLED = {"resnet18": "resnet18.json", "mobilenetv2": "mobilenetv2.json"}


def load_manifest(source) -> ModelManifest:
    """Load a manifest from a bundled name, a path, or a parsed dict."""
    if isinstance(source, dict):
        return manifest_from_dict(source)
    key = str(source)
    if key in _BUNDLED:
        text = resources.files("fliqs.manifests").joinpath(_BUNDLED[key]).read_text()
    else:
        path = Path(key)
        if not path.exists():
            raise ManifestError(f"manifest {key!r} is neither bundled nor a file")
        text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest {key!r}: invalid JSON: {e}") from None
    return manifest_from_dict(doc)
