"""Self-test of the benchmark's checks.

For each workload it runs one search round, confirms that every check
passes on the clean files, then corrupts one artifact at a time in a copy
of the run directory and confirms that the check aimed at it fails.
Exit code 0 means every corruption was caught.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

import checks
import reference
import run as bench_run
from workloads import WORKLOADS, compute_specs, make_inputs


def _edit_trace(edit):
    def apply(d: Path, ctx):
        rows = checks.read_trace(d / "trace.csv")
        edit(rows, ctx)
        with open(d / "trace.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
    return apply


def _edit_json(name, edit):
    def apply(d: Path, ctx):
        doc = json.loads((d / name).read_text())
        if edit(doc, ctx) is False:
            return False
        (d / name).write_text(json.dumps(doc))
    return apply


def _write_weights(path: Path, arrays: dict) -> None:
    with open(path, "wb") as f:
        f.write(b"FLQW" + struct.pack("<LL", 1, len(arrays)))
        for name, arr in arrays.items():
            raw = name.encode()
            f.write(struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}L", *arr.shape))
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _edit_weights(edit):
    def apply(d: Path, ctx):
        arrays = checks.read_weights(d / "weights.bin")
        if edit(arrays, ctx) is False:
            return False
        _write_weights(d / "weights.bin", arrays)
    return apply


def _quantized_layer(ctx, with_act=False):
    """First served layer in a clipped format (optionally with an act threshold)."""
    for e in ctx["doc"]["layers"]:
        if e["format"] != "BF16" and (not with_act or e["act_threshold"] is not None):
            return e
    return None


def _scale_max_weight(arrays, ctx):
    e = _quantized_layer(ctx)
    if e is None:
        return False
    key = max((k for k in arrays if k.startswith(f"{e['name']}/W")),
              key=lambda k: np.max(np.abs(arrays[k])))
    a = arrays[key].reshape(-1)
    a[np.argmax(np.abs(a))] *= 1.5


def _set_threshold(field, factor, with_act=False):
    def edit(doc, ctx):
        name = (_quantized_layer(ctx, with_act) or {}).get("name")
        if name is None:
            return False
        for e in doc["layers"]:
            if e["name"] == name:
                e[field] *= factor
    return edit


def _set_cell(column, row, value):
    def edit(rows, ctx):
        col = column(ctx) if callable(column) else column
        r = row(ctx) if callable(row) else row
        rows[r][col] = value(rows[r][col], ctx)
    return edit


def _first_maxprob(ctx):
    return f"maxprob_{compute_specs(ctx['wl'])[0].name}"


def _max_entropy(_, ctx):
    return repr(sum(math.log(k) for k in checks.option_counts(ctx["wl"]).values()) + 0.1)


CORRUPTIONS = [
    ("trace.csv: a cost_gbops cell x1.5", "trace",
     _edit_trace(_set_cell("cost_gbops", 3, lambda v, c: repr(float(v) * 1.5)))),
    ("trace.csv: last row dropped", "trace", _edit_trace(lambda rows, c: rows.pop())),
    ("trace.csv: a reward cell +0.01", "trace",
     _edit_trace(_set_cell("reward", 3, lambda v, c: repr(float(v) + 0.01)))),
    ("trace.csv: last beta cell +1e-3", "trace",
     _edit_trace(_set_cell("beta", -1, lambda v, c: repr(float(v) + 1e-3)))),
    ("trace.csv: act_quant off at its switch-on step", "trace",
     _edit_trace(_set_cell("act_quant", lambda c: int(round(0.2 * c["steps"])),
                           lambda v, c: "0"))),
    ("trace.csv: a warmup maxprob cell set to 0.9", "trace",
     _edit_trace(_set_cell(_first_maxprob, 0, lambda v, c: "0.9"))),
    ("trace.csv: an entropy cell above sum(ln k)", "trace",
     _edit_trace(_set_cell("entropy", 0, _max_entropy))),
    ("served_config.json: cost_gbops x1.01", "served",
     _edit_json("served_config.json", lambda d, c: d.update(cost_gbops=d["cost_gbops"] * 1.01))),
    ("served_config.json: a weight_threshold x1.001", "served",
     _edit_json("served_config.json", _set_threshold("weight_threshold", 1.001))),
    ("served_config.json: an act_threshold x0.1", "files",
     _edit_json("served_config.json", _set_threshold("act_threshold", 0.1, with_act=True))),
    ("weights.bin: a layer's largest |w| x1.5", "served", _edit_weights(_scale_max_weight)),
    ("weights.bin: a weight set to NaN", "served",
     _edit_weights(lambda a, c: a[next(iter(a))].reshape(-1).__setitem__(0, np.nan))),
    ("weights.bin: an output bias +100", "files",
     _edit_weights(lambda a, c: a[f"{compute_specs(c['wl'])[-1].name}/b"]
                   .__setitem__(0, 100.0))),
    ("result.json: served_accuracy set to half of chance", "files",
     _edit_json("result.json",
                lambda d, c: d.update(served_accuracy=0.5 / c["wl"].classes))),
    ("trace.csv: a loss cell +1e-9 in a repeated round", "repeat",
     _edit_trace(_set_cell("loss", 5, lambda v, c: repr(float(v) + 1e-9)))),
    ("program logits: classes rotated by one", "reference", None),
]


def run_check(which, d: Path, ctx, rotate=False) -> list[str]:
    wl, config = ctx["wl"], ctx["config"]
    if which == "repeat":
        return checks.check_repeat(ctx["run_dir"], d)
    if which == "trace":
        return checks.check_trace(checks.read_trace(d / "trace.csv"), wl, config)
    doc = json.loads((d / "served_config.json").read_text())
    result = json.loads((d / "result.json").read_text())
    if which == "served":
        return checks.check_served(doc, result, checks.read_weights(d / "weights.bin"), wl)
    if which == "files":
        return checks.check_files_accuracy(d, config, result, wl)
    x = ctx["images"][: wl.reference_images]
    ref = reference.reference_logits(wl, doc, checks.read_weights(d / "weights.bin"), x)
    prog = reference.program_logits(doc, d / "weights.bin", x)
    return reference.compare(ref, np.roll(prog, 1, axis=1) if rotate else prog)[0]


def self_test(wl, seed: int, mods, work: Path) -> bool:
    from probe import Probe

    cfg_path = make_inputs(wl, seed, work)
    config = json.loads(cfg_path.read_text())
    serve_set = bench_run.serving_set(wl, config, mods, work)
    r = bench_run.search_round(mods, Probe(mods, full=False), wl, config, cfg_path,
                               work / "runs", serve_set)
    ctx = {"wl": wl, "config": config, "steps": config["total_steps"], "run_dir": r.run_dir,
           "doc": json.loads((r.run_dir / "served_config.json").read_text()),
           "images": serve_set()[0]}
    ok = True
    for which in ("trace", "served", "files", "repeat", "reference"):
        fails = run_check(which, r.run_dir, ctx)
        print(f"{wl.name}: clean files, {which} check: {'pass' if not fails else fails[:2]}")
        ok &= not fails
    for label, which, corrupt in CORRUPTIONS:
        d = work / "corrupt"
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(r.run_dir, d)
        if corrupt is not None and corrupt(d, ctx) is False:
            print(f"{wl.name}: {label}: not applicable (no quantized layer served)")
            continue
        fails = run_check(which, d, ctx, rotate=corrupt is None)
        caught = bool(fails)
        ok &= caught
        print(f"{wl.name}: {label} -> {which} check "
              f"{'FAILS as it should: ' + fails[0] if caught else 'PASSES: NOT CAUGHT'}")
    return ok


def main(args) -> int:
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    mods = bench_run.import_program(Path.cwd())
    out_root = Path.cwd() / ".bench_out"
    out_root.mkdir(exist_ok=True)
    ok = True
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=out_root))
        try:
            ok &= self_test(WORKLOADS[name], args.seed, mods, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("self-test:", "every corruption caught" if ok else "FAILED")
    return 0 if ok else 1
