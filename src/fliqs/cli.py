"""Command line front end: runs, sweeps, analyses, and cost queries.

Every run-producing command creates a fresh timestamped directory under the
output root (``--out``, else ``$FLIQS_OUT``, else ``./runs``) and never
overwrites an existing one.  Exit codes: 0 on success, 2 for bad input
(config, manifest, flags), 1 for failures at runtime.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .arch import ArchChoice
from .costmodel import GBOPS, layer_cost, load_manifest, model_cost
from .errors import ConfigError, DataError, FitError, FliqsError, FormatSpecError, \
    ManifestError, SearchAbort
from .formats import resolve_format
from .network import save_weights
from .search import ServedBuiltin, _convert, _require, run_search, run_uniform, \
    search_config_from_dict, search_config_to_dict, serve_config, served_doc_from_dict, \
    write_trace_csv

# errors that mean bad input (configs, data and run files): the CLI exits 2 on these
_BAD_INPUT = (ConfigError, DataError, FormatSpecError, ManifestError)


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except (OSError, ValueError) as e:  # a directory, undecodable bytes, over-long integers
        raise ConfigError(f"{p}: cannot read JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return doc


def _apply_overrides(doc: dict, assignments) -> dict:
    """Apply --set path.to.key=value entries; values parse as JSON when they can."""
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        if not all(parts):
            raise ConfigError(f"--set: empty path component in {key!r}")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = doc
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ConfigError(f"--set {key}: {part!r} is not an object")
            node = child
        node[parts[-1]] = value
    return doc


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_root(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("FLIQS_OUT")
    return Path(env) if env else Path("runs")


def _make_run_dir(root: Path, command: str, seed: int) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"{command}-{stamp}-s{seed}"
    root.mkdir(parents=True, exist_ok=True)
    for n in range(1000):
        name = base if n == 0 else f"{base}-{n}"
        try:
            (root / name).mkdir()
        except FileExistsError:
            continue
        return root / name
    raise ConfigError(f"could not allocate a run directory under {root}")


def _flush_partial_trace(run_dir: Path, abort: SearchAbort) -> None:
    if not abort.trace:
        return
    layer_names = list(abort.trace[0].sampled)
    with open(run_dir / "trace.csv", "w", newline="") as fh:
        write_trace_csv(abort.trace, layer_names, fh)


def _write_run_artifacts(run_dir: Path, result) -> None:
    with open(run_dir / "trace.csv", "w", newline="") as fh:
        write_trace_csv(result.trace, result.layer_names, fh)
    _write_json(run_dir / "result.json", result.result_doc())
    _write_json(run_dir / "served_config.json", serve_config(result))
    save_weights(result.net, run_dir / "weights.bin")


def _resolved_doc(cfg, command: str) -> dict:
    doc = search_config_to_dict(cfg)
    doc["command"] = command
    return doc


def _prepare_config(args, command: str):
    doc = _load_json(args.config)
    _apply_overrides(doc, args.set)
    if args.seed is not None:
        doc["seed"] = args.seed
    if command == "uniform" and getattr(args, "format", None):
        doc["format"] = args.format
    cfg = search_config_from_dict(doc)
    if command == "uniform" and cfg.format is None:
        raise ConfigError("uniform runs need a format (--format or config key 'format')")
    return cfg


def _cmd_run(args, command: str) -> int:
    cfg = _prepare_config(args, command)
    run_dir = _make_run_dir(_output_root(args), command, cfg.seed)
    _write_json(run_dir / "resolved_config.json", _resolved_doc(cfg, command))
    print(f"run dir: {run_dir}")
    try:
        result = run_search(cfg) if command == "search" else run_uniform(cfg)
    except SearchAbort as e:
        _flush_partial_trace(run_dir, e)
        print(f"error: {e}", file=sys.stderr)
        return 1
    _write_run_artifacts(run_dir, result)
    print(f"served accuracy: {result.served_accuracy:.4f}")
    print(f"served cost: {result.served_cost_gbops:.6f} GBOPs")
    for name in result.layer_names:
        print(f"  {name}: {result.final_archs[name].label}")
    return 0


def cmd_search(args) -> int:
    return _cmd_run(args, "search")


def cmd_uniform(args) -> int:
    return _cmd_run(args, "uniform")


_SWEEP_KEYS = {"kind", "base", "targets", "formats", "seeds"}


def _sweep_rows(doc: dict):
    """Expand a sweep config into (command, row-config-doc, label) tuples."""
    unknown = sorted(set(doc) - _SWEEP_KEYS)
    if unknown:
        raise ConfigError(f"sweep config: unknown key {unknown[0]!r}")
    kind = doc.get("kind")
    if kind not in ("pareto", "uniform-formats"):
        raise ConfigError(f"sweep config: kind must be 'pareto' or 'uniform-formats', got {kind!r}")
    base = doc.get("base")
    if not isinstance(base, dict):
        raise ConfigError("sweep config: 'base' must hold a run config object")
    base_cfg = search_config_from_dict(base)

    seeds = doc.get("seeds", [base_cfg.seed])
    if not isinstance(seeds, list) or not seeds or \
            any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise ConfigError("sweep config: 'seeds' must be a non-empty list of integers")

    rows = []
    if kind == "pareto":
        targets = doc.get("targets")
        if not isinstance(targets, list) or not targets or \
                any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in targets):
            raise ConfigError("sweep config: pareto sweeps need a list of 'targets' in GBOPs")
        if "formats" in doc:
            raise ConfigError("sweep config: 'formats' only applies to uniform-formats sweeps")
        try:
            targets = [float(t) for t in targets]
        except OverflowError:
            raise ConfigError("sweep config: a target is too large for a float") from None
        for target in targets:
            for seed in seeds:
                row = dict(base)
                row["cost_target_gbops"] = target
                row["seed"] = seed
                rows.append(("search", row, f"t{target:g}"))
    else:
        formats = doc.get("formats")
        if not isinstance(formats, list) or not formats:
            raise ConfigError("sweep config: uniform-formats sweeps need a list of 'formats'")
        if "targets" in doc:
            raise ConfigError("sweep config: 'targets' only applies to pareto sweeps")
        for fmt in formats:
            resolve_format(fmt)
            for seed in seeds:
                row = dict(base)
                row["format"] = fmt
                row["seed"] = seed
                rows.append(("uniform", row, str(fmt)))
    for command, row, _ in rows:
        search_config_from_dict(row)
    return rows


def _sweep_worker(job):
    """Run one sweep row; returns a result summary. Must stay picklable."""
    command, row_doc, row_dir = job
    cfg = search_config_from_dict(row_doc)
    path = Path(row_dir)
    path.mkdir(parents=True, exist_ok=True)
    _write_json(path / "resolved_config.json", _resolved_doc(cfg, command))
    try:
        result = run_search(cfg) if command == "search" else run_uniform(cfg)
    except _BAD_INPUT:
        raise  # bad input is the whole sweep's, as under `fliqs search`
    except FliqsError as e:
        # a failed row fails only that row; the other rows still run
        if isinstance(e, SearchAbort):
            _flush_partial_trace(path, e)
        return {"status": "error", "error": str(e),
                "served_accuracy": "", "served_cost_gbops": ""}
    _write_run_artifacts(path, result)
    return {"status": "ok", "error": "",
            "served_accuracy": repr(result.served_accuracy),
            "served_cost_gbops": repr(result.served_cost_gbops)}


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    _apply_overrides(doc, args.set)
    rows = _sweep_rows(doc)
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    sweep_dir = _make_run_dir(_output_root(args), "sweep", 0)
    _write_json(sweep_dir / "resolved_config.json", dict(doc, command="sweep"))
    print(f"run dir: {sweep_dir} ({len(rows)} rows)")

    jobs = []
    for i, (command, row_doc, label) in enumerate(rows):
        row_dir = sweep_dir / f"row-{i:03d}-{label}-s{row_doc['seed']}"
        jobs.append((command, row_doc, str(row_dir)))

    if args.jobs == 1:
        outcomes = [_sweep_worker(job) for job in jobs]
    else:
        # multiprocessing loads only for a sweep that runs in parallel
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))

    failed = 0
    with open(sweep_dir / "results.csv", "w", newline="") as fh:
        fh.write("row,kind,param,seed,status,served_accuracy,served_cost_gbops,run_dir,error\n")
        for i, ((command, row_doc, label), out) in enumerate(zip(rows, outcomes)):
            if out["status"] != "ok":
                failed += 1
            param = row_doc.get("cost_target_gbops") if doc["kind"] == "pareto" \
                else row_doc.get("format")
            cells = [str(i), doc["kind"], str(param), str(row_doc["seed"]),
                     out["status"], out["served_accuracy"], out["served_cost_gbops"],
                     jobs[i][2], out["error"].replace(",", ";")]
            fh.write(",".join(cells) + "\n")
    print(f"rows complete: {len(rows) - failed} ok, {failed} failed")
    return 1 if failed else 0


# The analyze configs, checked by the run config's converter: each field's
# type hint and default below, and its range in __post_init__.


@dataclass
class SynthStudy:
    """Keys of the analyses that draw synthetic tensors."""

    kind: str
    distribution: str = "gaussian"
    tensor_size: int = 4096
    outlier_rate: float = 0.0
    outlier_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _require(self.distribution in ("gaussian", "laplacian"), "distribution",
                 "'gaussian' or 'laplacian'", self.distribution)
        _require(self.tensor_size >= 1, "tensor_size", "positive", self.tensor_size)
        _require(0.0 <= self.outlier_rate < 1.0, "outlier_rate", "in [0, 1)",
                 self.outlier_rate)
        _require(self.seed >= 0, "seed", ">= 0", self.seed)

    def spec(self):
        from .analysis import SynthSpec

        return SynthSpec(self.distribution, self.tensor_size, self.outlier_rate,
                         self.outlier_scale)


@dataclass
class SwitchingStudy(SynthStudy):
    k1: list[int] = field(default_factory=lambda: [4, 5, 6, 7, 8])
    k2: int = 8
    trials: int = 200
    percentile: float = 99.9
    fit: bool = True

    def __post_init__(self):
        super().__post_init__()
        _require(len(self.k1) > 0, "k1", "a non-empty list", self.k1)
        _require(self.trials >= 1, "trials", "positive", self.trials)
        _require(0.0 < self.percentile <= 100.0, "percentile", "in (0, 100]", self.percentile)


@dataclass
class PercentileGrid:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        _require(0.0 < self.start <= 100.0, "start", "in (0, 100]", self.start)
        _require(0.0 < self.stop <= 100.0, "stop", "in (0, 100]", self.stop)
        _require(self.count >= 1, "count", "positive", self.count)


@dataclass
class ClippingStudy(SynthStudy):
    formats: list[str] = field(default_factory=lambda: ["INT4", "INT8"])
    trials: int = 100
    grid: PercentileGrid | None = None

    def __post_init__(self):
        super().__post_init__()
        _require(len(self.formats) > 0, "formats", "a non-empty list", self.formats)
        _require(self.trials >= 1, "trials", "positive", self.trials)


@dataclass
class EntropyStudy:
    kind: str
    run_dir: str
    min_steps: int = 100


def _analyze_switching(study: SwitchingStudy, out_dir: Path) -> dict:
    from .analysis import fit_exponential, switching_sweep

    sweep = switching_sweep(study.k1, study.k2, study.spec(), trials=study.trials,
                            seed=study.seed, percentile=study.percentile)
    with open(out_dir / "switching.csv", "w", newline="") as fh:
        fh.write("k1,mean_rms,stderr\n")
        for k, m, s in zip(sweep["k1"], sweep["mean_rms"], sweep["stderr"]):
            fh.write(f"{k},{m!r},{s!r}\n")
    summary = {"kind": "switching", "k1": [int(k) for k in sweep["k1"]],
               "mean_rms": [float(v) for v in sweep["mean_rms"]]}
    if study.fit:
        try:
            fit = fit_exponential([float(k) for k in sweep["k1"]],
                                  [float(v) for v in sweep["mean_rms"]])
        except FitError as e:
            if e.best is None:
                raise
            fit = e.best
        fit_doc = {"a": fit.a, "b": fit.b, "c": fit.c,
                   "residual": fit.residual,
                   "r_squared": fit.r_squared([float(k) for k in sweep["k1"]],
                                              [float(v) for v in sweep["mean_rms"]])}
        _write_json(out_dir / "fit.json", fit_doc)
        summary["fit"] = fit_doc
    return summary


def _analyze_clipping(study: ClippingStudy, out_dir: Path) -> dict:
    from .analysis import clipping_sweep

    fmts = [resolve_format(n) for n in study.formats]
    percentiles = None
    if study.grid is not None:
        percentiles = np.linspace(study.grid.start, study.grid.stop, study.grid.count)
    sweeps = [
        clipping_sweep(fmt, study.spec(), trials=study.trials,
                       percentiles=percentiles, seed=study.seed)
        for fmt in fmts
    ]
    with open(out_dir / "clipping.csv", "w", newline="") as fh:
        fh.write("percentile," + ",".join(f"mse_{f.name}" for f in fmts) + "\n")
        for i, p in enumerate(sweeps[0]["percentiles"]):
            cells = [repr(float(p))] + [repr(float(s["mse"][i])) for s in sweeps]
            fh.write(",".join(cells) + "\n")
    optimal = {f.name: float(s["optimal_percentile"]) for f, s in zip(fmts, sweeps)}
    _write_json(out_dir / "optimal.json", {"optimal_percentile": optimal})
    return {"kind": "clipping", "optimal_percentile": optimal}


def _run_value(doc: dict, path: Path, key: str, hint: type):
    """One value of a run directory's JSON file, checked against hint; never defaulted."""
    if key not in doc:
        raise ConfigError(f"{path}: missing key {key!r}")
    return _convert(doc[key], hint, f"{path}: {key}")


def _warmup_steps(run: Path) -> int:
    """result.json records the run's warmup steps; without it, resolved_config.json's schedule."""
    path = run / "result.json"
    if path.exists():
        return _run_value(_load_json(path), path, "warmup_steps", int)
    path = run / "resolved_config.json"
    resolved = _load_json(path)
    total = _run_value(resolved, path, "total_steps", int)
    return int(round(_run_value(resolved, path, "warmup_fraction", float) * total))


_ENTROPY_COLUMNS = (("step", int), ("entropy", float), ("switch_rms", float))


def _analyze_entropy(study: EntropyStudy, out_dir: Path) -> dict:
    from .analysis import entropy_switch_correlation

    run = Path(study.run_dir)
    trace_path = run / "trace.csv"
    if not trace_path.exists():
        raise ConfigError(f"{trace_path}: no trace found")
    warmup_steps = _warmup_steps(run)

    entropy = []
    switch = []
    with open(trace_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for key, _ in _ENTROPY_COLUMNS:
            if key not in (reader.fieldnames or ()):
                raise DataError(f"{trace_path}: no {key!r} column")
        for rec in reader:
            try:
                step, ent, sw = (kind(rec[key]) for key, kind in _ENTROPY_COLUMNS)
            except (TypeError, ValueError):  # TypeError: a short row gives None
                raise DataError(f"{trace_path}: line {reader.line_num}: step, entropy and "
                                "switch_rms must be numbers") from None
            if step < warmup_steps:
                continue
            entropy.append(ent)
            switch.append(sw)
    rho = entropy_switch_correlation(entropy, switch, min_steps=study.min_steps)
    summary = {"kind": "entropy", "spearman": rho, "steps": len(entropy),
               "warmup_steps": warmup_steps, "run_dir": str(run)}
    _write_json(out_dir / "entropy.json", summary)
    return summary


_STUDIES = {"switching": (SwitchingStudy, _analyze_switching),
            "clipping": (ClippingStudy, _analyze_clipping),
            "entropy": (EntropyStudy, _analyze_entropy)}


def cmd_analyze(args) -> int:
    doc = _load_json(args.config)
    _apply_overrides(doc, args.set)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _STUDIES:
        raise ConfigError(
            f"analyze config: kind must be one of {sorted(_STUDIES)}, got {kind!r}"
        )
    schema, handler = _STUDIES[kind]
    study = _convert(doc, schema, "analyze config")
    out_dir = _make_run_dir(_output_root(args), "analyze", getattr(study, "seed", 0))
    try:
        _write_json(out_dir / "resolved_config.json", dict(doc, command="analyze"))
        summary = handler(study, out_dir)
    except BaseException:
        shutil.rmtree(out_dir)  # a study that did not finish leaves no run directory
        raise
    print(f"run dir: {out_dir}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _assignment_archs(manifest, assign_doc: dict):
    if not isinstance(assign_doc, dict):
        raise ConfigError("assignment file: top level must be a JSON object")
    unknown = sorted(set(assign_doc) - {"default", "layers"})
    if unknown:
        raise ConfigError(f"assignment file: unknown key {unknown[0]!r}")
    default = assign_doc.get("default")
    per_layer = assign_doc.get("layers", {})
    if not isinstance(per_layer, dict):
        raise ConfigError("assignment file: 'layers' must map layer names to formats")
    known = {l.name for l in manifest.layers}
    for name in per_layer:
        if name not in known:
            raise ConfigError(f"assignment file: unknown layer {name!r}")
    archs = []
    for layer in manifest.layers:
        if not layer.searchable:
            archs.append(None)
            continue
        name = per_layer.get(layer.name, default)
        if name is None:
            raise ConfigError(
                f"assignment file: layer {layer.name!r} has no format and no default"
            )
        archs.append(ArchChoice(resolve_format(name)))
    return archs


def cmd_cost(args) -> int:
    if (args.format is None) == (args.assignment is None):
        raise ConfigError("cost: pass exactly one of --format or --assignment")
    manifest = load_manifest(args.manifest)
    if args.format is not None:
        fmt = resolve_format(args.format)
        archs = [ArchChoice(fmt) if l.searchable else None for l in manifest.layers]
    else:
        archs = _assignment_archs(manifest, _load_json(args.assignment))
    total = model_cost(manifest, archs)
    rows = []
    for layer, arch in zip(manifest.layers, archs):
        # model_cost mirrors this substitution for pinned layers
        choice = arch if arch is not None else ArchChoice(resolve_format(layer.fixed_format))
        rows.append({"name": layer.name, "format": choice.fmt.name,
                     "macs": layer.macs, "gbops": layer_cost(layer, choice) / GBOPS})
    if args.json:
        print(json.dumps({"manifest": manifest.name, "total_gbops": total / GBOPS,
                          "layers": rows}, indent=2, sort_keys=True))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['format']:>6}  {r['macs']:>12d}  "
                  f"{r['gbops']:.6f}")
        print(f"{'total':<{width}}  {'':>6}  {'':>12}  {total / GBOPS:.6f} GBOPs")
    return 0


def cmd_serve_info(args) -> int:
    path = Path(args.run_dir)
    doc_path = path if path.is_file() else path / "served_config.json"
    if not doc_path.exists():
        raise ConfigError(f"{doc_path}: no serving config found")
    doc = _load_json(doc_path)
    served = served_doc_from_dict(doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    model = served.model
    model_name = model.builtin if isinstance(model, ServedBuiltin) else (
        "inline" if isinstance(model, dict) else model)
    print(f"model: {model_name}")
    print(f"seed: {served.seed}")
    if served.validation_accuracy is not None:
        print(f"validation accuracy: {served.validation_accuracy:.4f}")
    if served.cost_gbops is not None:
        print(f"cost: {served.cost_gbops:.6f} GBOPs")
    print(f"weights file: {served.weights_file}")
    for entry in served.layers:
        parts = [entry.format]
        if entry.width_mult != 1.0:
            parts.append(f"w{entry.width_mult:g}")
        if entry.kernel is not None:
            parts.append(f"k{entry.kernel}")
        thr = ""
        if entry.weight_threshold is not None:
            thr = f"  w_thr={entry.weight_threshold:.6g}"
            if entry.act_threshold is not None:
                thr += f"  a_thr={entry.act_threshold:.6g}"
        print(f"  {entry.name}: {';'.join(parts)}{thr}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fliqs",
        description="One-shot mixed-precision quantization search toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, with_config=True):
        if with_config:
            p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None,
                       help="output root (default $FLIQS_OUT or ./runs)")

    p = sub.add_parser("search", help="run the mixed-precision search")
    add_run_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("uniform", help="train with a single format everywhere")
    add_run_flags(p)
    p.add_argument("--format", default=None, help="format name, e.g. INT8 or E4M3")
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("sweep", help="run a batch of searches or uniform baselines")
    add_run_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="switching, clipping, or entropy studies")
    add_run_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cost", help="price a format assignment against a manifest")
    p.add_argument("--manifest", required=True,
                   help="bundled manifest name or a JSON path")
    p.add_argument("--format", default=None, help="one format for every layer")
    p.add_argument("--assignment", default=None,
                   help="JSON file with a default and per-layer formats")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("serve-info", help="summarize a run's serving config")
    p.add_argument("run_dir", help="run directory or served_config.json path")
    p.add_argument("--json", action="store_true", help="print the raw document")
    p.set_defaults(func=cmd_serve_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BAD_INPUT as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FliqsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
