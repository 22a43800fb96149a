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

import itertools
from dataclasses import dataclass, field

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
    network_manifest,
    phase_for_step,
    profile_thresholds,
    round_weights_to_serving_precision,
    sgd_step,
    update_weight_thresholds,
)
from .quantize import quantize


@dataclass
class ControllerConfig:
    lr: float = 4.6e-3
    beta1: float = 0.95
    beta2: float = 0.999
    eps: float = 1e-8
    entropy_beta_end: float = 0.5
    entropy_schedule: str = "cosine"
    reward_ema_decay: float = 0.9


@dataclass
class TrainerConfig:
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    validation_fraction: float = 0.1


@dataclass
class SearchConfig:
    model: object = "cnn-small"
    data: dict = field(default_factory=lambda: {
        "kind": "blobs", "classes": 10, "dims": 16, "n_per_class": 200,
        "separation": 3.0,
    })
    search_space: object = "FLIQS-S-int"
    total_steps: int = 1000
    warmup_fraction: float = 0.25
    act_quant_start_fraction: float = 0.2
    cost_target_gbops: float | None = None
    cost_gamma: float = -1.0
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    profile_batches: int = 4
    std_multiples: tuple = DEFAULT_STD_MULTIPLES
    seed: int = 0
    track_switching: bool = True
    format: str | None = None

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be positive, got {self.total_steps}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if not 0.0 <= self.act_quant_start_fraction <= 1.0:
            raise ConfigError(
                f"act_quant_start_fraction must be in [0, 1], got {self.act_quant_start_fraction}"
            )


_DATA_KEYS = {
    "blobs": {"kind", "classes", "dims", "n_per_class", "separation"},
    "idx": {"kind", "images", "labels", "limit", "classes"},
}


def build_dataset(data_cfg: dict, seed: int) -> Dataset:
    if not isinstance(data_cfg, dict) or "kind" not in data_cfg:
        raise ConfigError("data config must be an object with a 'kind'")
    kind = data_cfg["kind"]
    if kind not in _DATA_KEYS:
        raise ConfigError(f"unknown data kind {kind!r}")
    unknown = set(data_cfg) - _DATA_KEYS[kind]
    if unknown:
        raise ConfigError(f"data config: unknown keys {sorted(unknown)}")
    if kind == "blobs":
        return synth_blobs(
            classes=data_cfg.get("classes", 10),
            dims=data_cfg.get("dims", 16),
            n_per_class=data_cfg.get("n_per_class", 200),
            separation=data_cfg.get("separation", 3.0),
            seed=seed,
        )
    try:
        images, labels = data_cfg["images"], data_cfg["labels"]
    except KeyError as e:
        raise ConfigError(f"idx data config: missing key {e}") from None
    return load_idx(images, labels, limit=data_cfg.get("limit"),
                    classes=data_cfg.get("classes"))


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
    cols = list(TRACE_PREFIX)
    for n in layer_names:
        cols.append(f"arch_{n}")
    for n in layer_names:
        cols.append(f"argmax_{n}")
    for n in layer_names:
        cols.append(f"maxprob_{n}")
    return cols


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
    sizes = getattr(layer, "kernel_sizes", None)
    kernels = sizes if sizes and len(sizes) > 1 else [None]
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
    chunks = [(images[i : i + size], labels[i : i + size])
              for i in range(0, n - size + 1, size)]
    return chunks


def evaluate_accuracy(net: Network, images, labels, archs, phase, thresholds,
                      batch_size: int) -> float:
    """Top-1 accuracy evaluated in batch-size chunks to bound memory."""
    n = len(labels)
    if n == 0:
        raise DomainError("cannot evaluate accuracy on an empty set")
    hits = 0
    for i in range(0, n, batch_size):
        logits, _ = forward(net, images[i : i + batch_size], archs, phase, thresholds)
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


def _run(cfg: SearchConfig, mode: str, fixed_archs: dict[str, ArchChoice] | None):
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
        if fixed_archs is None or set(fixed_archs) != set(searchable):
            raise ConfigError("static runs need one arch per searchable layer")
        formats = sorted({a.fmt for a in fixed_archs.values()}, key=lambda f: f.name)
        controller = None

    plan = BatchPlan(cfg.trainer.batch_size, cfg.seed, cfg.trainer.validation_fraction)
    profile_fmts = _profile_formats(formats, net)
    thresholds = profile_thresholds(
        net, batches(ds, plan, epoch=0), profile_fmts,
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
    has_branches = any(
        len(getattr(l, "kernel_sizes", [])) > 1 for l in net.searchable_layers()
    )
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
            update_weight_thresholds(net, thresholds, profile_fmts)

            images, labels = next(train_iter)
            logits, cache = forward(net, images, archs, phase, thresholds,
                                    joint_branches=joint)
            loss = cross_entropy(logits, labels)
            grads = backward(net, cache, labels)
            sgd_step(net, grads, sgd, cfg.trainer.lr, cfg.trainer.momentum,
                     cfg.trainer.weight_decay)

            vb_images, vb_labels = val_chunks[t % len(val_chunks)]
            vlogits, _ = forward(net, vb_images, archs, phase, thresholds)
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
        update_weight_thresholds(net, thresholds, profile_fmts)
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
    f = resolve_format(fmt if fmt is not None else cfg.format)
    net = build_model(cfg.model, seed=cfg.seed)
    archs = {l.name: ArchChoice(f) for l in net.searchable_layers()}
    return _run(cfg, "uniform", archs)


def serve_config(result: SearchResult) -> dict:
    """Serving document: every compute layer's choice plus the thresholds it ran with.

    Pinned layers are written with their fixed format, so a pinned quantized
    layer's thresholds travel with the files like a searched layer's do.
    """
    layers = []
    for layer in result.net.compute_layers():
        name = layer.name
        arch = result.final_archs.get(name, ArchChoice(layer.fixed_format))
        if arch.fmt.kind == "bf16":
            w_t = None
            a_t = None
        else:
            w_t = result.thresholds.weight_threshold(name, arch.fmt)
            a_t = result.thresholds.act_threshold(name, arch.fmt)
        layers.append({
            "name": name,
            "format": arch.fmt.name,
            "width_mult": arch.width_mult,
            "kernel": arch.kernel,
            "weight_threshold": w_t,
            "act_threshold": a_t,
        })
    model = result.config.model
    model_doc = model if isinstance(model, dict) else {
        "builtin": model,
        "input_shape": list(result.net.input_shape),
        "classes": result.net.classes,
    }
    return {
        "schema_version": 1,
        "model": model_doc,
        "seed": result.config.seed,
        "layers": layers,
        "weights_file": "weights.bin",
        "validation_accuracy": result.served_accuracy,
        "cost_gbops": result.served_cost_gbops,
    }


def load_served(doc: dict, weights_path):
    """Rebuild (net, archs, thresholds) from a serving document + checkpoint."""
    from .network import load_weights

    model_doc = doc["model"]
    if isinstance(model_doc, dict) and "builtin" in model_doc:
        net = build_model(model_doc["builtin"], seed=0,
                          input_shape=model_doc.get("input_shape"),
                          classes=model_doc.get("classes"))
    else:
        net = build_model(model_doc, seed=0)
    load_weights(net, weights_path)
    archs = {}
    thresholds = ThresholdTable()
    for entry in doc["layers"]:
        fmt = resolve_format(entry["format"])
        archs[entry["name"]] = ArchChoice(
            fmt, entry.get("width_mult", 1.0), entry.get("kernel")
        )
        if fmt.kind != "bf16":
            thresholds.set(entry["name"], fmt.name,
                           entry["weight_threshold"], entry["act_threshold"])
    return net, archs, thresholds


def served_accuracy_from_files(doc: dict, weights_path, dataset: Dataset,
                               plan: BatchPlan) -> float:
    """Re-evaluate a served model on the dataset's validation split."""
    net, archs, thresholds = load_served(doc, weights_path)
    val_images, val_labels = validation_set(dataset, plan)
    phase = QuantPhase(weight_quant=True, act_quant=True)
    return evaluate_accuracy(net, val_images, val_labels, archs, phase,
                             thresholds, plan.batch_size)


_TOP_KEYS = {
    "model", "data", "search_space", "total_steps", "warmup_fraction",
    "act_quant_start_fraction", "cost_target_gbops", "cost_gamma",
    "controller", "trainer", "profile_batches", "std_multiples", "seed",
    "track_switching", "format",
}
_CONTROLLER_KEYS = {"lr", "beta1", "beta2", "eps", "entropy_beta_end",
                    "entropy_schedule", "reward_ema_decay"}
_TRAINER_KEYS = {"batch_size", "lr", "momentum", "weight_decay",
                 "validation_fraction"}


def _want(doc, key, types, where):
    if key not in doc:
        return None
    v = doc[key]
    if isinstance(v, bool) and bool not in types:
        raise ConfigError(f"{where}.{key}: expected {types}, got a boolean")
    if not isinstance(v, types):
        names = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise ConfigError(f"{where}.{key}: expected {names}, got {type(v).__name__}")
    return v


def _std_multiples_from(doc):
    rows = doc.get("std_multiples")
    if rows is None:
        return DEFAULT_STD_MULTIPLES
    if not isinstance(rows, list) or not rows:
        raise ConfigError("config.std_multiples: expected a non-empty list of [max_bits, multiple]")
    out = []
    for i, row in enumerate(rows):
        if (not isinstance(row, list)) or len(row) != 2:
            raise ConfigError(f"config.std_multiples[{i}]: expected [max_bits, multiple]")
        max_bits, mult = row
        if max_bits is not None and (isinstance(max_bits, bool) or not isinstance(max_bits, int)):
            raise ConfigError(f"config.std_multiples[{i}]: max_bits must be an integer or null")
        if not isinstance(mult, (int, float)) or isinstance(mult, bool):
            raise ConfigError(f"config.std_multiples[{i}]: multiple must be a number")
        out.append((max_bits, float(mult)))
    if out[-1][0] is not None:
        raise ConfigError("config.std_multiples: last row must have null max_bits (catch-all)")
    return tuple(out)


def search_config_from_dict(doc: dict) -> SearchConfig:
    """Build a SearchConfig from parsed JSON, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"config: unknown key {unknown[0]!r}")
    cfg = SearchConfig()

    model = doc.get("model", cfg.model)
    if not isinstance(model, (str, dict)):
        raise ConfigError("config.model: expected a model name or an inline object")
    space = doc.get("search_space", cfg.search_space)
    if not isinstance(space, (str, list)):
        raise ConfigError("config.search_space: expected a name or a list of formats")

    ctrl = ControllerConfig()
    sub = doc.get("controller")
    if sub is not None:
        if not isinstance(sub, dict):
            raise ConfigError("config.controller: expected an object")
        unknown = sorted(set(sub) - _CONTROLLER_KEYS)
        if unknown:
            raise ConfigError(f"config.controller: unknown key {unknown[0]!r}")
        ctrl = ControllerConfig(
            lr=float(_want(sub, "lr", (int, float), "controller") or ctrl.lr),
            beta1=float(sub.get("beta1", ctrl.beta1)),
            beta2=float(sub.get("beta2", ctrl.beta2)),
            eps=float(sub.get("eps", ctrl.eps)),
            entropy_beta_end=float(sub.get("entropy_beta_end", ctrl.entropy_beta_end)),
            entropy_schedule=str(sub.get("entropy_schedule", ctrl.entropy_schedule)),
            reward_ema_decay=float(sub.get("reward_ema_decay", ctrl.reward_ema_decay)),
        )
        if ctrl.entropy_schedule not in ("cosine", "constant"):
            raise ConfigError(
                f"config.controller.entropy_schedule: unknown kind {ctrl.entropy_schedule!r}"
            )

    tr = TrainerConfig()
    sub = doc.get("trainer")
    if sub is not None:
        if not isinstance(sub, dict):
            raise ConfigError("config.trainer: expected an object")
        unknown = sorted(set(sub) - _TRAINER_KEYS)
        if unknown:
            raise ConfigError(f"config.trainer: unknown key {unknown[0]!r}")
        bs = sub.get("batch_size", tr.batch_size)
        if isinstance(bs, bool) or not isinstance(bs, int):
            raise ConfigError("config.trainer.batch_size: expected an integer")
        tr = TrainerConfig(
            batch_size=bs,
            lr=float(sub.get("lr", tr.lr)),
            momentum=float(sub.get("momentum", tr.momentum)),
            weight_decay=float(sub.get("weight_decay", tr.weight_decay)),
            validation_fraction=float(sub.get("validation_fraction", tr.validation_fraction)),
        )

    steps = doc.get("total_steps", cfg.total_steps)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ConfigError("config.total_steps: expected an integer")
    seed = doc.get("seed", cfg.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config.seed: expected an integer")
    profile_batches = doc.get("profile_batches", cfg.profile_batches)
    if isinstance(profile_batches, bool) or not isinstance(profile_batches, int):
        raise ConfigError("config.profile_batches: expected an integer")
    target = doc.get("cost_target_gbops", cfg.cost_target_gbops)
    if target is not None and (isinstance(target, bool) or not isinstance(target, (int, float))):
        raise ConfigError("config.cost_target_gbops: expected a number")
    fmt = doc.get("format")
    if fmt is not None and not isinstance(fmt, str):
        raise ConfigError("config.format: expected a format name")
    track = doc.get("track_switching", cfg.track_switching)
    if not isinstance(track, bool):
        raise ConfigError("config.track_switching: expected a boolean")

    return SearchConfig(
        model=model,
        data=doc.get("data", cfg.data),
        search_space=space,
        total_steps=steps,
        warmup_fraction=float(doc.get("warmup_fraction", cfg.warmup_fraction)),
        act_quant_start_fraction=float(
            doc.get("act_quant_start_fraction", cfg.act_quant_start_fraction)
        ),
        cost_target_gbops=None if target is None else float(target),
        cost_gamma=float(doc.get("cost_gamma", cfg.cost_gamma)),
        controller=ctrl,
        trainer=tr,
        profile_batches=profile_batches,
        std_multiples=_std_multiples_from(doc),
        seed=seed,
        track_switching=track,
        format=fmt,
    )


def search_config_to_dict(cfg: SearchConfig) -> dict:
    """Round-trippable JSON form of a config, for resolved_config.json."""
    return {
        "model": cfg.model,
        "data": cfg.data,
        "search_space": list(cfg.search_space) if isinstance(cfg.search_space, (list, tuple))
        else cfg.search_space,
        "total_steps": cfg.total_steps,
        "warmup_fraction": cfg.warmup_fraction,
        "act_quant_start_fraction": cfg.act_quant_start_fraction,
        "cost_target_gbops": cfg.cost_target_gbops,
        "cost_gamma": cfg.cost_gamma,
        "controller": {
            "lr": cfg.controller.lr,
            "beta1": cfg.controller.beta1,
            "beta2": cfg.controller.beta2,
            "eps": cfg.controller.eps,
            "entropy_beta_end": cfg.controller.entropy_beta_end,
            "entropy_schedule": cfg.controller.entropy_schedule,
            "reward_ema_decay": cfg.controller.reward_ema_decay,
        },
        "trainer": {
            "batch_size": cfg.trainer.batch_size,
            "lr": cfg.trainer.lr,
            "momentum": cfg.trainer.momentum,
            "weight_decay": cfg.trainer.weight_decay,
            "validation_fraction": cfg.trainer.validation_fraction,
        },
        "profile_batches": cfg.profile_batches,
        "std_multiples": [[mb, m] for mb, m in cfg.std_multiples],
        "seed": cfg.seed,
        "track_switching": cfg.track_switching,
        "format": cfg.format,
    }
