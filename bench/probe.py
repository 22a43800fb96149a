"""Spans around fliqs' public names, installed from outside the program.

`Probe` always wraps the two names that bound the search loop in
`fliqs.search`: `batch_stream` (its first batch starts the loop) and
`evaluate_accuracy` (the closing serving evaluation ends it).  With
`full=True` it also wraps the layer functions, the layer classes'
forward/backward and the `quantize` name in `fliqs.network` and
`fliqs.search`, and keeps per-phase totals.  A name the program no longer
has is skipped, so its metric is left out instead of failing the run.

Checksumming quantize inputs (to count repeated calls) is the probe's own
work: its time is taken out of every span that encloses it and out of the
loop's self time, so it shows only in the traced run's overhead.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYER_KINDS = ("conv", "depthwise_conv", "dense", "relu", "maxpool")
LAYER_CLASSES = {"conv": "Conv2D", "depthwise_conv": "DepthwiseConv2D", "dense": "Dense",
                 "relu": "ReLU", "maxpool": "MaxPool2D"}
QUANT_KINDS = ("int", "float", "bf16")

# (module, name, span key)
_FUNCTIONS = (
    ("search", "load_idx", "data.load_idx"),
    ("search", "profile_thresholds", "network.profile_thresholds"),
    ("search", "backward", "network.backward"),
    ("search", "sgd_step", "network.sgd_step"),
    ("search", "update_weight_thresholds", "network.update_weight_thresholds"),
    ("search", "sample_architecture", "controller.sample"),
    ("search", "advantage_update", "controller.advantage"),
    ("search", "reinforce_step", "controller.reinforce"),
    ("search", "model_entropy", "controller.entropy"),
    ("search", "model_cost", "costmodel.model_cost"),
)


class Probe:
    """Loop boundaries for every round; per-layer spans when full."""

    def __init__(self, modules: dict, full: bool):
        self.mods = modules
        self.full = full
        self.patches: list[tuple[object, str, object]] = []
        self.keys: set[str] = set()      # span keys of every name ever wrapped
        self.time = defaultdict(float)   # (phase, key) -> seconds
        self.calls = defaultdict(int)    # (phase, key) -> calls
        self.elems = defaultdict(int)    # quantize kind -> elements, loop phase
        self.repeats = 0
        self.child_s = 0.0               # top-level spans inside the loop
        self.overhead = 0.0              # checksum time, all phases
        self.loop_overhead = 0.0         # checksum time inside the loop
        self.depth = 0
        self.steps = 0
        self.begin_round()

    def begin_round(self):
        self.phase = "setup"
        self.loop_start = None
        self.loop_end = None
        self.train_next = False
        self.seen: set = set()

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, make) -> None:
        orig = getattr(owner, name, None)
        if orig is None:
            return
        self.patches.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def install(self):
        search = self.mods["search"]
        self._patch(search, "batch_stream", self._stream)
        self._patch(search, "evaluate_accuracy", self._closing_eval)
        if not self.full:
            return self
        for mod, name, key in _FUNCTIONS:
            self._patch(self.mods[mod], name, lambda f, key=key: self._span(f, key))
        # the whole search: a span, but not a parent that hides the loop's children
        self._patch(self.mods["cli"], "run_search",
                    lambda f: self._span(f, "cli.run_search", nest=False))
        self._patch(search, "forward", self._forward)
        for kind, cls_name in LAYER_CLASSES.items():
            cls = getattr(self.mods["network"], cls_name, None)
            if cls is None:
                continue
            self._patch(cls, "forward", lambda f, k=kind: self._span(f, f"layer.{k}.fwd"))
            self._patch(cls, "backward", lambda f, k=kind: self._span(f, f"layer.{k}.bwd"))
        self._patch(self.mods["network"], "quantize", lambda f: self._quantize(f, False))
        self._patch(search, "quantize", lambda f: self._quantize(f, True))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _record(self, phase, key, dt, top):
        self.time[(phase, key)] += dt
        self.calls[(phase, key)] += 1
        if top and phase == "loop":
            self.child_s += dt

    def _span(self, fn, key, nest=True):
        self.keys.add(key)

        def wrapper(*args, **kwargs):
            phase, top = self.phase, self.depth == 0
            self.depth += nest
            o0 = self.overhead
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (self.overhead - o0)
                self.depth -= nest
                self._record(phase, key, dt, top and nest)
        return wrapper

    def _stream(self, fn):
        if self.full:
            self.keys.add("data.batch")

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                if self.loop_start is None:
                    self.loop_start = t0
                    self.phase = "loop"
                self.steps += 1
                self.train_next = True
                self.seen.clear()
                try:
                    item = next(it)
                except StopIteration:
                    return
                if self.full:
                    self._record(self.phase, "data.batch", perf_counter() - t0, True)
                yield item
        return wrapper

    def _closing_eval(self, fn):
        self.keys.add("search.serve_eval")

        def wrapper(*args, **kwargs):
            if self.phase != "loop":
                return fn(*args, **kwargs)
            self.loop_end = perf_counter()
            self.phase = "search_eval"
            try:
                return fn(*args, **kwargs)
            finally:
                self._record("search_eval", "search.serve_eval",
                             perf_counter() - self.loop_end, False)
                self.phase = "artifacts"
        return wrapper

    def _forward(self, fn):
        inner = self._span(fn, "network.forward")
        train = self._span(fn, "network.forward_train")
        val = self._span(fn, "network.forward_val")

        def wrapper(*args, **kwargs):
            if self.phase != "loop":
                return inner(*args, **kwargs)
            if self.train_next:
                self.train_next = False
                return train(*args, **kwargs)
            return val(*args, **kwargs)
        return wrapper

    def _quantize(self, fn, from_search):
        fmt_of = self.mods["formats"].resolve_format
        self.keys.add("quantize.switch" if from_search else "quantize")

        def wrapper(x, fmt, *args, **kwargs):
            phase, top = self.phase, self.depth == 0
            f = fmt_of(fmt)
            if phase == "loop":
                c0 = perf_counter()
                a = np.ascontiguousarray(x, dtype=np.float64)
                threshold = args[0] if args else kwargs.get("threshold")
                key = (zlib.crc32(a), a.shape, f.name, threshold)
                if key in self.seen:
                    self.repeats += 1
                self.seen.add(key)
                self.elems[f.kind] += a.size
                spent = perf_counter() - c0
                self.overhead += spent
                self.loop_overhead += spent
            self.depth += 1
            t0 = perf_counter()
            try:
                return fn(x, fmt, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.depth -= 1
                self._record(phase, f"quantize.{f.kind}", dt, top)
                if from_search:
                    self.time[(phase, "quantize.switch")] += dt
        return wrapper

    # -- results ------------------------------------------------------------

    def loop_seconds(self) -> float:
        """Loop wall time of the round just run; fails if a boundary was missed."""
        if self.loop_start is None:
            raise RuntimeError("the search never drew a training batch from batch_stream")
        if self.loop_end is None:
            raise RuntimeError("the search never reached its closing evaluate_accuracy")
        return self.loop_end - self.loop_start

    def metrics(self, rounds: int, loop_s: float, main_s: float) -> dict:
        """Per-layer metrics from the totals of `rounds` traced rounds.

        A metric whose name was wrapped but never called reads 0 (the layer
        does not run on this workload); one whose name is missing is absent.
        """
        t, n, steps = self.time, self.calls, self.steps
        out = {}

        def put(name, unit, key, phase="loop", scale=1e3, per=None):
            if key in self.keys:
                out[name] = (t[(phase, key)] * scale / (per or steps), unit)

        put("data.load_idx_ms", "ms", "data.load_idx", "setup", per=rounds)
        put("data.batch_us", "us", "data.batch", scale=1e6)
        for part in ("forward_train", "forward_val", "backward", "sgd_step",
                     "update_weight_thresholds"):
            put(f"network.{part}_ms", "ms", f"network.{part}")
        put("network.profile_thresholds_ms", "ms", "network.profile_thresholds", "setup",
            per=rounds)
        serve_batches = n[("serve", "network.forward")]
        for kind in LAYER_KINDS:
            put(f"network.{kind}.fwd_ms", "ms", f"layer.{kind}.fwd")
            put(f"network.{kind}.bwd_ms", "ms", f"layer.{kind}.bwd")
            if serve_batches:
                put(f"serve.{kind}.fwd_ms", "ms", f"layer.{kind}.fwd", "serve",
                    per=serve_batches)
        if "quantize" in self.keys:
            for kind in QUANT_KINDS:
                out[f"quantize.{kind}.ms_per_step"] = (
                    t[("loop", f"quantize.{kind}")] * 1e3 / steps, "ms")
            for kind in ("int", "float"):
                busy = t[("loop", f"quantize.{kind}")]
                out[f"quantize.{kind}.melem_per_s"] = (
                    self.elems[kind] / busy / 1e6 if busy else 0.0, "Melem/s")
            calls = sum(n[("loop", f"quantize.{k}")] for k in QUANT_KINDS)
            out["quantize.calls_per_step"] = (calls / steps, "count")
            out["quantize.repeat_calls_per_step"] = (self.repeats / steps, "count")
        put("quantize.switch_ms_per_step", "ms", "quantize.switch")
        for part in ("sample", "advantage", "reinforce", "entropy"):
            put(f"controller.{part}_us", "us", f"controller.{part}", scale=1e6)
        put("costmodel.model_cost_us", "us", "costmodel.model_cost", scale=1e6)
        self_s = loop_s - self.child_s - self.loop_overhead
        out["search.self_ms_per_step"] = (self_s * 1e3 / steps, "ms")
        put("search.serve_eval_ms", "ms", "search.serve_eval", "search_eval", per=rounds)
        if "cli.run_search" in self.keys:
            # the run_search span excludes the checksum time spent inside it
            searched = sum(v for (_, key), v in t.items() if key == "cli.run_search")
            out["cli.artifacts_ms"] = ((main_s - searched - self.overhead) * 1e3 / rounds, "ms")
        return out
