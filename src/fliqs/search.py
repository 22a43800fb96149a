"""One-shot mixed-precision search: train once, read the formats off the policy.

A run interleaves normal QAT training steps with controller updates.  Every
step samples one architecture (per-layer format, plus width/kernel when the
model declares options), trains the shared master weights under it, measures
quality on a cycled validation batch, turns quality and cost into a reward,
and lets the REINFORCE controller ascend.  The first quarter of the run is
uniform-sampling warmup; activation quantizers switch on after the first
fifth.  Because the entropy penalty anneals the policies sharp by the end,
the final argmax architecture is served directly from the just-trained
weights, with no retraining pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .arch import ArchChoice
from .controller import (
    AdamParams,
    ControllerState,
    advantage_update,
    arch_from_indices,
    beta_schedule,
    make_controller,
    model_entropy,
    reinforce_step,
    sample_architecture,
)
from .costmodel import GBOPS, ModelManifest, RewardParams, model_cost, reward
from .data import BatchPlan, Dataset, batch_stream, batches, load_idx, synth_blobs, validation_set
from .errors import ConfigError, DomainError, FliqsError, SearchAbort
from .formats import resolve_format, resolve_search_space
from .network import (
    DEFAULT_STD_MULTIPLES,
    Network,
    QuantPhase,
    SGDState,
    ThresholdTable,
    accuracy,
    backward,
    build_model,
    cross_entropy,
    forward,
    load_weights,
    network_manifest,
    phase_for_step,
    profile_thresholds,
    round_weights_to_serving_precision,
    sgd_step,
    update_weight_thresholds,
)
from .quantize import quantize


# The run config.  Each field's type hint, default and range below is its one
# definition: search_config_from_dict checks JSON against the hints, the
# __post_init__ methods check the ranges, and README.md's "Run config
# reference" table lists the same fields.


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"{key} must be {rule}, got {value!r}")


@dataclass
class ControllerConfig:
    lr: float = 4.6e-3
    beta1: float = 0.95
    beta2: float = 0.999
    eps: float = 1e-8
    entropy_beta_end: float = 0.5
    entropy_schedule: str = "cosine"
    reward_ema_decay: float = 0.9

    def __post_init__(self):
        _require(self.lr >= 0.0, "lr", ">= 0", self.lr)
        _require(0.0 <= self.beta1 < 1.0, "beta1", "in [0, 1)", self.beta1)
        _require(0.0 <= self.beta2 < 1.0, "beta2", "in [0, 1)", self.beta2)
        _require(self.eps > 0.0, "eps", "positive", self.eps)
        _require(self.entropy_beta_end >= 0.0, "entropy_beta_end", ">= 0",
                 self.entropy_beta_end)
        _require(self.entropy_schedule in ("cosine", "constant"), "entropy_schedule",
                 "'cosine' or 'constant'", self.entropy_schedule)
        _require(0.0 <= self.reward_ema_decay < 1.0, "reward_ema_decay", "in [0, 1)",
                 self.reward_ema_decay)


@dataclass
class TrainerConfig:
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    validation_fraction: float = 0.1

    def __post_init__(self):
        _require(self.batch_size >= 1, "batch_size", "positive", self.batch_size)
        _require(self.lr >= 0.0, "lr", ">= 0", self.lr)
        _require(0.0 <= self.momentum < 1.0, "momentum", "in [0, 1)", self.momentum)
        _require(self.weight_decay >= 0.0, "weight_decay", ">= 0", self.weight_decay)
        _require(0.0 <= self.validation_fraction < 1.0, "validation_fraction", "in [0, 1)",
                 self.validation_fraction)


class StdMultiple(NamedTuple):
    """Activation clip row: formats of at most max_bits bits clip at multiple * std."""

    max_bits: int | None
    multiple: float


@dataclass
class SearchConfig:
    model: str | dict = "cnn-small"
    data: dict = field(default_factory=lambda: {
        "kind": "blobs", "classes": 10, "dims": 16, "n_per_class": 200,
        "separation": 3.0,
    })
    search_space: str | list[str] = "FLIQS-S-int"
    total_steps: int = 1000
    warmup_fraction: float = 0.25
    act_quant_start_fraction: float = 0.2
    cost_target_gbops: float | None = None
    cost_gamma: float = -1.0
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    profile_batches: int = 4
    std_multiples: tuple[StdMultiple, ...] = DEFAULT_STD_MULTIPLES
    seed: int = 0
    track_switching: bool = True
    format: str | None = None

    def __post_init__(self):
        _check_data(self.data)
        _require(self.total_steps >= 1, "total_steps", "positive", self.total_steps)
        _require(0.0 <= self.warmup_fraction < 1.0, "warmup_fraction", "in [0, 1)",
                 self.warmup_fraction)
        _require(0.0 <= self.act_quant_start_fraction <= 1.0, "act_quant_start_fraction",
                 "in [0, 1]", self.act_quant_start_fraction)
        _require(self.cost_target_gbops is None or self.cost_target_gbops > 0.0,
                 "cost_target_gbops", "positive or null", self.cost_target_gbops)
        _require(self.cost_gamma <= 0.0, "cost_gamma", "<= 0", self.cost_gamma)
        _require(self.profile_batches >= 1, "profile_batches", "positive", self.profile_batches)
        if not self.std_multiples or self.std_multiples[-1][0] is not None:
            raise ConfigError("std_multiples: last row must have null max_bits (catch-all)")
        for i, (max_bits, multiple) in enumerate(self.std_multiples):
            _require(max_bits is None or max_bits >= 1, f"std_multiples[{i}].max_bits",
                     "positive or null", max_bits)
            _require(multiple > 0.0, f"std_multiples[{i}].multiple", "positive", multiple)
        _require(self.seed >= 0, "seed", ">= 0", self.seed)


# The data block stays a plain dict; each kind's keys and their types.
_DATA_KEYS = {
    "blobs": {"kind": str, "classes": int, "dims": int, "n_per_class": int,
              "separation": float},
    "idx": {"kind": str, "images": str, "labels": str, "limit": int | None,
            "classes": int | None},
}


def _check_data(data) -> None:
    """Check a data block's kind, keys and value types against _DATA_KEYS."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("data must be an object with a 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DATA_KEYS:
        raise ConfigError(f"data.kind: unknown data kind {kind!r}")
    keys = _DATA_KEYS[kind]
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"data: unknown keys {unknown}")
    for key, hint in keys.items():
        if key in data:
            _convert(data[key], hint, f"data.{key}")
    if kind == "idx":
        for key in ("images", "labels"):
            if key not in data:
                raise ConfigError(f"data: missing key {key!r}")
        limit = data.get("limit")
        _require(limit is None or limit >= 1, "data.limit", ">= 1 or null", limit)


# JSON kinds, named as the Python types json.loads gives; bool comes before
# int because a bool is an int.
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", tuple: "a list", dict: "an object", type(None): "null"}


def _shape(hint) -> type:
    """The JSON kind a hint that is not a union takes."""
    if dataclasses.is_dataclass(hint):
        return dict
    origin = typing.get_origin(hint) or hint
    return list if issubclass(origin, tuple) else origin


def _kind(value) -> type:
    kind = next((t for t in _KIND_NAMES if isinstance(value, t)), type(value))
    return list if kind is tuple else kind


def _describe(hint) -> str:
    if typing.get_origin(hint) is types.UnionType:
        return " or ".join(dict.fromkeys(map(_describe, typing.get_args(hint))))
    if hasattr(hint, "_fields"):
        return f"[{', '.join(hint._fields)}]"
    return _KIND_NAMES[_shape(hint)]


def _convert(value, hint, where: str):
    """Check a parsed JSON value against a type hint and return it in that type.

    A bool is not a number, null fits only `X | None`, ints become floats for
    float fields, lists become tuples for tuple fields, and objects become
    dataclasses.  Errors are ConfigErrors naming the dotted path `where`.
    """
    arms = typing.get_args(hint) if typing.get_origin(hint) is types.UnionType else (hint,)
    kind = _kind(value)
    takes = {kind, float} if kind is int else {kind}  # an integer is also a number
    arm = next((a for a in arms if _shape(a) in takes), None)
    if arm is None:
        raise ConfigError(f"{where} must be {_describe(hint)}, "
                          f"got {_KIND_NAMES.get(kind, 'a value')}")
    if dataclasses.is_dataclass(arm):
        fields = dataclasses.fields(arm)
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
        missing = [f.name for f in fields if f.name not in value
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"{where}: missing key {missing[0]!r}")
        hints = typing.get_type_hints(arm)
        kwargs = {k: _convert(v, hints[k], f"{where}.{k}") for k, v in value.items()}
        try:
            return arm(**kwargs)
        except ConfigError as e:
            raise ConfigError(f"{where}.{e}") from None
    if arm is float:
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{where} must be a finite number, "
                              "got an integer too large for a float") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return number
    if hasattr(arm, "_fields"):
        if len(value) != len(arm._fields):
            raise ConfigError(f"{where} must be {_describe(arm)}, got {len(value)} items")
        hints = typing.get_type_hints(arm)
        return arm(*(_convert(v, hints[n], f"{where}.{n}") for n, v in zip(arm._fields, value)))
    if kind is list:
        items = [_convert(v, typing.get_args(arm)[0], f"{where}[{i}]")
                 for i, v in enumerate(value)]
        return tuple(items) if typing.get_origin(arm) is tuple else items
    return value


def search_config_from_dict(doc) -> SearchConfig:
    """Build a SearchConfig from parsed JSON; bad keys, types or ranges raise ConfigError."""
    return _convert(doc, SearchConfig, "config")


def _plain(value):
    """asdict output with tuples as lists, as json.loads gives it back."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


def search_config_to_dict(cfg: SearchConfig) -> dict:
    """JSON form of a config, for resolved_config.json; search_config_from_dict reads it back."""
    return _plain(dataclasses.asdict(cfg))


def build_dataset(data_cfg: dict, seed: int) -> Dataset:
    _check_data(data_cfg)
    if data_cfg["kind"] == "blobs":
        return synth_blobs(
            classes=data_cfg.get("classes", 10),
            dims=data_cfg.get("dims", 16),
            n_per_class=data_cfg.get("n_per_class", 200),
            separation=data_cfg.get("separation", 3.0),
            seed=seed,
        )
    images, labels = data_cfg["images"], data_cfg["labels"]
    try:
        return load_idx(images, labels, limit=data_cfg.get("limit"),
                        classes=data_cfg.get("classes"))
    except OSError as e:
        key = "labels" if e.filename and Path(e.filename) == Path(labels) else "images"
        raise ConfigError(f"data.{key}: cannot read {data_cfg[key]}: {e.strerror}") from None


@dataclass
class TraceRecord:
    step: int
    reward: float
    quality: float
    cost_gbops: float
    entropy: float
    beta: float
    loss: float
    advantage: float
    switch_rms: float
    act_quant: int
    sampled: dict[str, str]
    argmax: dict[str, str]
    max_prob: dict[str, float]


TRACE_PREFIX = ["step", "reward", "quality", "cost_gbops", "entropy", "beta",
                "loss", "advantage", "switch_rms", "act_quant"]


def trace_header(layer_names) -> list[str]:
    return TRACE_PREFIX + [f"{col}_{n}" for col in ("arch", "argmax", "maxprob")
                           for n in layer_names]


def trace_row(rec: TraceRecord, layer_names) -> list[str]:
    vals = [str(rec.step), repr(rec.reward), repr(rec.quality), repr(rec.cost_gbops),
            repr(rec.entropy), repr(rec.beta), repr(rec.loss), repr(rec.advantage),
            repr(rec.switch_rms), str(rec.act_quant)]
    vals += [rec.sampled[n] for n in layer_names]
    vals += [rec.argmax[n] for n in layer_names]
    vals += [repr(rec.max_prob[n]) for n in layer_names]
    return vals


def write_trace_csv(records, layer_names, fileobj) -> None:
    fileobj.write(",".join(trace_header(layer_names)) + "\n")
    for rec in records:
        fileobj.write(",".join(trace_row(rec, layer_names)) + "\n")


@dataclass
class SearchResult:
    config: SearchConfig
    mode: str
    layer_names: list[str]
    final_archs: dict[str, ArchChoice]
    final_probs: dict[str, dict[str, float]]
    served_accuracy: float
    served_cost: float
    trace: list[TraceRecord]
    net: Network
    thresholds: ThresholdTable
    manifest: ModelManifest
    warmup_steps: int

    @property
    def served_cost_gbops(self) -> float:
        return self.served_cost / GBOPS

    def result_doc(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "model": self.net.name,
            "seed": self.config.seed,
            "total_steps": self.config.total_steps,
            "warmup_steps": self.warmup_steps,
            "served_accuracy": self.served_accuracy,
            "served_cost_gbops": self.served_cost_gbops,
            "cost_target_gbops": self.config.cost_target_gbops,
            "final_archs": {n: a.label for n, a in self.final_archs.items()},
            "final_probs": self.final_probs,
        }


def option_set_for(layer):
    """Width and kernel axes of one layer's option set."""
    widths = sorted(set(layer.width_options) | {1.0}) if layer.width_options else [1.0]
    kernels = layer.kernel_sizes if len(layer.kernel_sizes) > 1 else [None]
    return widths, kernels


def _controller_for(net: Network, formats, cfg: SearchConfig) -> ControllerState:
    names = []
    option_sets = []
    for layer in net.searchable_layers():
        widths, kernels = option_set_for(layer)
        opts = [
            ArchChoice(f, wm, k)
            for f, wm, k in itertools.product(formats, widths, kernels)
        ]
        names.append(layer.name)
        option_sets.append(opts)
    if not names:
        raise ConfigError(f"model {net.name!r} has no searchable layers")
    c = cfg.controller
    return make_controller(
        names, option_sets,
        warmup_fraction=cfg.warmup_fraction,
        reward_ema_decay=c.reward_ema_decay,
        adam=AdamParams(lr=c.lr, beta1=c.beta1, beta2=c.beta2, eps=c.eps),
    )


def _manifest_archs(manifest: ModelManifest, archs: dict[str, ArchChoice]):
    return [archs.get(l.name) if l.searchable else None for l in manifest.layers]


def _val_batches(images, labels, batch_size):
    n = len(labels)
    if n == 0:
        raise ConfigError("validation split is empty; lower batch size or fraction")
    size = min(batch_size, n)
    return [(images[i : i + size], labels[i : i + size]) for i in range(0, n - size + 1, size)]


def evaluate_accuracy(net: Network, images, labels, archs, phase, thresholds,
                      batch_size: int) -> float:
    """Top-1 accuracy evaluated in batch-size chunks to bound memory."""
    n = len(labels)
    if n == 0:
        raise DomainError("cannot evaluate accuracy on an empty set")
    hits = 0
    for i in range(0, n, batch_size):
        logits, _ = forward(net, images[i : i + batch_size], archs, phase, thresholds,
                            train=False)
        hits += int(np.sum(logits.argmax(axis=1) == labels[i : i + batch_size]))
    return hits / n


def _switch_rms(net: Network, prev: dict[str, ArchChoice], cur: dict[str, ArchChoice],
                thresholds: ThresholdTable) -> float:
    total_sq = 0.0
    count = 0
    for layer in net.searchable_layers():
        a_prev, a_cur = prev[layer.name], cur[layer.name]
        if a_prev.fmt == a_cur.fmt:
            continue
        for w in layer.weight_arrays():
            q_cur = quantize(w, a_cur.fmt, thresholds.weight_threshold(layer.name, a_cur.fmt))
            q_prev = quantize(w, a_prev.fmt, thresholds.weight_threshold(layer.name, a_prev.fmt))
            d = q_cur - q_prev
            total_sq += float(np.sum(d * d))
            count += d.size
    if count == 0:
        return 0.0
    return float(np.sqrt(total_sq / count))


def _profile_formats(formats, net: Network):
    fmts = {f.name: f for f in formats}
    for layer in net.compute_layers():
        if not layer.searchable:
            fmts.setdefault(layer.fixed_format.name, layer.fixed_format)
    return list(fmts.values())


# glibc's mallopt parameters (malloc.h), and the mmap threshold its dynamic
# rule stops at on 64-bit systems (DEFAULT_MMAP_THRESHOLD_MAX)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


@contextlib.contextmanager
def _heap_kept_for_reuse():
    """Keep freed heap memory for reuse while a run lasts; hand it back after.

    Every training step frees its forward caches and gradients, and the next
    step allocates the same sizes again.  By default glibc returns a free
    heap top larger than twice the largest block freed so far to the kernel,
    so each step would fault those pages in afresh.  During the run, blocks
    up to 32 MB come from the heap and the heap is never trimmed, so its
    resident size stays at the run's own high-water mark.  On the way out
    `malloc_trim(0)` hands the free heap back, and the trim threshold is
    left at 64 MB: with the mmap threshold at 32 MB, that is the state
    glibc's own rule reaches once a 32 MB block is freed.  Results do not
    change.  Without glibc this does nothing.
    """
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if libc is None or not hasattr(libc, "mallopt") or not hasattr(libc, "malloc_trim"):
        yield
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    try:
        yield
    finally:
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
        libc.malloc_trim(0)


@_heap_kept_for_reuse()
def _run(cfg: SearchConfig, mode: str, fixed):
    """Train and serve; `fixed` is a static run's archs or a uniform run's format."""
    ds = build_dataset(cfg.data, cfg.seed)
    data_shape = tuple(ds.images.shape[1:])
    net = build_model(cfg.model, seed=cfg.seed, input_shape=data_shape,
                      classes=ds.classes)
    if tuple(net.input_shape) != data_shape:
        raise ConfigError(
            f"model expects input {tuple(net.input_shape)} but the dataset "
            f"provides {data_shape}"
        )
    if net.classes != ds.classes:
        raise ConfigError(
            f"model has {net.classes} classes but the dataset has {ds.classes}"
        )
    manifest = network_manifest(net)
    searchable = [l.name for l in net.searchable_layers()]

    if mode == "search":
        formats = resolve_search_space(cfg.search_space)
        controller = _controller_for(net, formats, cfg)
        if cfg.cost_target_gbops is None:
            raise ConfigError("search runs need cost_target_gbops")
    else:
        fixed_archs = fixed if mode == "static" else {n: ArchChoice(fixed) for n in searchable}
        if set(fixed_archs) != set(searchable):
            raise ConfigError("static runs need one arch per searchable layer")
        formats = sorted({a.fmt for a in fixed_archs.values()}, key=lambda f: f.name)
        controller = None

    plan = BatchPlan(cfg.trainer.batch_size, cfg.seed, cfg.trainer.validation_fraction)
    thresholds = profile_thresholds(
        net, batches(ds, plan, epoch=0), _profile_formats(formats, net),
        std_table=cfg.std_multiples, n_batches=cfg.profile_batches,
    )

    val_images, val_labels = validation_set(ds, plan)
    val_chunks = _val_batches(val_images, val_labels, cfg.trainer.batch_size)

    if cfg.cost_target_gbops is not None:
        reward_params = RewardParams(cfg.cost_target_gbops * GBOPS, cfg.cost_gamma)
    else:
        base = model_cost(manifest, _manifest_archs(manifest, fixed_archs))
        reward_params = RewardParams(base, cfg.cost_gamma)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xC7])))
    train_iter = batch_stream(ds, plan)
    sgd = SGDState()
    total = cfg.total_steps
    warmup_steps = int(round(cfg.warmup_fraction * total)) if mode == "search" else 0
    act_start = int(round(cfg.act_quant_start_fraction * total))
    has_branches = any(len(l.kernel_sizes) > 1 for l in net.searchable_layers())
    records: list[TraceRecord] = []
    prev_archs: dict[str, ArchChoice] | None = None

    try:
        for t in range(total):
            progress = t / total
            if controller is not None:
                indices = sample_architecture(controller, rng, progress)
                archs = dict(zip(searchable, arch_from_indices(controller, indices)))
            else:
                indices = None
                archs = fixed_archs
            joint = False
            if has_branches and cfg.warmup_fraction > 0 and mode == "search":
                p_joint = max(0.0, 1.0 - progress / cfg.warmup_fraction)
                joint = bool(rng.random() < p_joint)

            phase = phase_for_step(t, act_start)
            update_weight_thresholds(net, thresholds)

            images, labels = next(train_iter)
            logits, cache = forward(net, images, archs, phase, thresholds,
                                    joint_branches=joint)
            loss = cross_entropy(logits, labels)
            grads = backward(net, cache, labels)
            sgd_step(net, grads, sgd, cfg.trainer.lr, cfg.trainer.momentum,
                     cfg.trainer.weight_decay)
            # this step's caches go before the validation forward and the next step
            del cache, grads

            vb_images, vb_labels = val_chunks[t % len(val_chunks)]
            vlogits, _ = forward(net, vb_images, archs, phase, thresholds, train=False)
            quality = accuracy(vlogits, vb_labels)

            cost = model_cost(manifest, _manifest_archs(manifest, archs))
            r = reward(quality, cost, reward_params)

            if controller is not None:
                adv = advantage_update(controller, r)
                beta = beta_schedule(progress, cfg.controller.entropy_beta_end,
                                     cfg.controller.entropy_schedule)
                if t >= warmup_steps:
                    reinforce_step(controller, indices, adv, beta)
                entropy = model_entropy(controller)
                argmax = {n: a.label for n, a in
                          zip(searchable, controller.argmax_arch())}
                max_prob = {p.layer_name: float(np.max(p.probs()))
                            for p in controller.policies}
            else:
                adv = 0.0
                beta = 0.0
                entropy = 0.0
                argmax = {n: a.label for n, a in archs.items()}
                max_prob = {n: 1.0 for n in searchable}

            if cfg.track_switching and prev_archs is not None:
                switch = _switch_rms(net, prev_archs, archs, thresholds)
            else:
                switch = 0.0
            prev_archs = archs

            records.append(TraceRecord(
                step=t, reward=r, quality=quality, cost_gbops=cost / GBOPS,
                entropy=entropy, beta=beta, loss=loss, advantage=adv,
                switch_rms=switch, act_quant=int(phase.act_quant),
                sampled={n: archs[n].label for n in searchable},
                argmax=argmax, max_prob=max_prob,
            ))
    except FliqsError as e:
        step = len(records)
        raise SearchAbort(f"run aborted at step {step}: {e}", step, records) from e

    if controller is not None:
        final_archs = dict(zip(searchable, controller.argmax_arch()))
        final_probs = {
            p.layer_name: {
                opt.label: float(prob)
                for opt, prob in zip(p.option_set, p.probs())
            }
            for p in controller.policies
        }
    else:
        final_archs = dict(fixed_archs)
        final_probs = {n: {a.label: 1.0} for n, a in final_archs.items()}

    # serving failures (e.g. non-finite weights) abort like in-loop ones
    try:
        round_weights_to_serving_precision(net)
        update_weight_thresholds(net, thresholds)
        serve_phase = QuantPhase(weight_quant=True, act_quant=True)
        served_accuracy = evaluate_accuracy(
            net, val_images, val_labels, final_archs, serve_phase, thresholds,
            cfg.trainer.batch_size,
        )
        served_cost = model_cost(manifest, _manifest_archs(manifest, final_archs))
    except SearchAbort:
        raise
    except FliqsError as e:
        step = len(records)
        raise SearchAbort(f"run aborted at step {step}: {e}", step, records) from e

    return SearchResult(
        config=cfg, mode=mode, layer_names=searchable,
        final_archs=final_archs, final_probs=final_probs,
        served_accuracy=served_accuracy, served_cost=served_cost,
        trace=records, net=net, thresholds=thresholds, manifest=manifest,
        warmup_steps=warmup_steps,
    )


def run_search(cfg: SearchConfig) -> SearchResult:
    """Run the one-shot mixed-precision search and serve the argmax model."""
    return _run(cfg, "search", None)


def run_static(cfg: SearchConfig, archs: dict[str, ArchChoice]) -> SearchResult:
    """Train with a fixed per-layer assignment (no controller), same schedule."""
    return _run(cfg, "static", dict(archs))


def run_uniform(cfg: SearchConfig, fmt=None) -> SearchResult:
    """Train with one format everywhere; the degenerate single-option search."""
    if fmt is None and cfg.format is None:
        raise ConfigError("uniform runs need a format")
    return _run(cfg, "uniform", resolve_format(fmt if fmt is not None else cfg.format))


@dataclass
class ServedLayer:
    """One compute layer's entry in a served document."""

    name: str
    format: str
    width_mult: float = 1.0
    kernel: int | None = None
    weight_threshold: float | None = None
    act_threshold: float | None = None


@dataclass
class ServedBuiltin:
    """A built-in model in a served document, with the shapes it was built for."""

    builtin: str
    input_shape: list[int]
    classes: int

    def __post_init__(self):
        _require(len(self.input_shape) in (1, 3) and all(n >= 1 for n in self.input_shape),
                 "input_shape", "1 or 3 positive sizes", self.input_shape)
        _require(self.classes >= 1, "classes", "positive", self.classes)


@dataclass
class ServedDoc:
    """served_config.json: serve_config writes it, served_doc_from_dict checks it.

    `model` is a model config object, a built-in name, or a ServedBuiltin
    (an object with a "builtin" key).
    """

    model: str | dict | ServedBuiltin
    layers: list[ServedLayer]
    weights_file: str
    schema_version: int = 1
    seed: int | None = None
    validation_accuracy: float | None = None
    cost_gbops: float | None = None


def serve_config(result: SearchResult) -> dict:
    """Serving document: every compute layer's choice plus the thresholds it ran with.

    Pinned layers are written with their fixed format, so a pinned quantized
    layer's thresholds travel with the files like a searched layer's do.
    """
    layers = []
    for layer in result.net.compute_layers():
        arch = result.final_archs.get(layer.name, ArchChoice(layer.fixed_format))
        layers.append(ServedLayer(
            layer.name, arch.fmt.name, arch.width_mult, arch.kernel,
            result.thresholds.weight_threshold(layer.name, arch.fmt),
            result.thresholds.act_threshold(layer.name, arch.fmt),
        ))
    model = result.config.model
    model_doc = model if isinstance(model, dict) else ServedBuiltin(
        model, list(result.net.input_shape), result.net.classes)
    return _plain(dataclasses.asdict(ServedDoc(
        model_doc, layers, "weights.bin", seed=result.config.seed,
        validation_accuracy=result.served_accuracy, cost_gbops=result.served_cost_gbops,
    )))


def served_doc_from_dict(doc) -> ServedDoc:
    """Check a parsed served document; bad keys or types raise ConfigError."""
    served = _convert(doc, ServedDoc, "served config")
    if isinstance(served.model, dict) and "builtin" in served.model:
        served.model = _convert(served.model, ServedBuiltin, "served config.model")
    return served


def load_served(doc: dict, weights_path):
    """Rebuild (net, archs, thresholds) from a serving document + checkpoint."""
    served = served_doc_from_dict(doc)
    model = served.model
    if isinstance(model, ServedBuiltin):
        net = build_model(model.builtin, seed=0, input_shape=model.input_shape,
                          classes=model.classes)
    else:
        net = build_model(model, seed=0)
    load_weights(net, weights_path)
    archs = {}
    thresholds = ThresholdTable()
    for entry in served.layers:
        fmt = resolve_format(entry.format)
        archs[entry.name] = ArchChoice(fmt, entry.width_mult, entry.kernel)
        if fmt.kind != "bf16":
            if entry.weight_threshold is None:
                raise ConfigError(f"served config: layer {entry.name!r} ({fmt.name}) "
                                  "has no weight_threshold")
            thresholds.set_weight(entry.name, entry.weight_threshold)
            thresholds.set_act(entry.name, fmt.name, entry.act_threshold)
    return net, archs, thresholds


def served_accuracy_from_files(doc: dict, weights_path, dataset: Dataset,
                               plan: BatchPlan) -> float:
    """Re-evaluate a served model on the dataset's validation split."""
    net, archs, thresholds = load_served(doc, weights_path)
    val_images, val_labels = validation_set(dataset, plan)
    phase = QuantPhase(weight_quant=True, act_quant=True)
    return evaluate_accuracy(net, val_images, val_labels, archs, phase,
                             thresholds, plan.batch_size)
