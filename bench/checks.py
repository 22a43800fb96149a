"""Checks of one search run's files, each recomputed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
BOPs, the reward, the entropy schedule and the warmup policy are worked out
here from the workload's layout and config, not read from the program.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import SEARCH_SPACES, Workload, bops, compute_specs, parse_label

REL = 1e-12


def _close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def option_counts(wl: Workload) -> dict[str, int]:
    """Options per searchable layer: formats x widths x kernels."""
    n_formats = len(SEARCH_SPACES[wl.space])
    return {s.name: n_formats * s.option_count_per_format for s in compute_specs(wl)}


def check_trace(rows: list[dict], wl: Workload, config: dict) -> list[str]:
    """Row count, BOPs, reward, beta ramp, act-quant switch, warmup, entropy."""
    fails = []
    steps = config["total_steps"]
    specs = compute_specs(wl)
    target = config["cost_target_gbops"] * 1e9
    counts = option_counts(wl)
    max_entropy = sum(math.log(k) for k in counts.values())
    warmup = int(round(0.25 * steps))
    act_start = int(round(0.2 * steps))
    beta_end = 0.5
    if len(rows) != steps:
        fails.append(f"trace: {len(rows)} rows for {steps} steps")
    for t, row in enumerate(rows):
        where = f"trace row {t}"
        if int(row["step"]) != t:
            fails.append(f"{where}: step column reads {row['step']}")
            break
        assignment = {s.name: parse_label(row[f"arch_{s.name}"]) for s in specs}
        cost = bops(specs, assignment)
        if not _close(float(row["cost_gbops"]), cost / 1e9):
            fails.append(f"{where}: cost_gbops {row['cost_gbops']} != {cost / 1e9!r}")
        quality = float(row["quality"])
        if not 0.0 <= quality <= 1.0:
            fails.append(f"{where}: quality {quality} outside [0, 1]")
        want_reward = quality - abs(cost / target - 1.0)
        if not _close(float(row["reward"]), want_reward, 1e-9):
            fails.append(f"{where}: reward {row['reward']} != {want_reward!r}")
        want_beta = 0.5 * beta_end * (1.0 - math.cos(math.pi * t / steps))
        if not math.isclose(float(row["beta"]), want_beta, abs_tol=1e-12):
            fails.append(f"{where}: beta {row['beta']} != {want_beta!r}")
        if int(row["act_quant"]) != int(t >= act_start):
            fails.append(f"{where}: act_quant {row['act_quant']}, switch-on step {act_start}")
        if t < warmup:
            for name, k in counts.items():
                if not _close(float(row[f"maxprob_{name}"]), 1.0 / k):
                    fails.append(f"{where}: warmup maxprob_{name} {row[f'maxprob_{name}']}"
                                 f" != 1/{k}")
        entropy = float(row["entropy"])
        if not -1e-12 <= entropy <= max_entropy + 1e-9:
            fails.append(f"{where}: entropy {entropy} outside [0, {max_entropy}]")
        if len(fails) > 10:
            break
    return fails


def read_weights(path: Path) -> dict[str, np.ndarray]:
    """Parse a FLQW checkpoint: magic, version, layer table, float32 payload."""
    buf = path.read_bytes()
    if buf[:4] != b"FLQW":
        raise ValueError(f"{path.name}: bad magic {buf[:4]!r}")
    _, count = struct.unpack_from("<LL", buf, 4)
    off = 12
    metas = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        name = buf[off + 2 : off + 2 + nlen].decode()
        off += 2 + nlen
        (ndim,) = struct.unpack_from("<B", buf, off)
        shape = struct.unpack_from(f"<{ndim}L", buf, off + 1)
        off += 1 + 4 * ndim
        metas.append((name, shape))
    out = {}
    for name, shape in metas:
        n = math.prod(shape)
        out[name] = np.frombuffer(buf, dtype="<f4", count=n, offset=off).reshape(shape)
        off += 4 * n
    if off != len(buf):
        raise ValueError(f"{path.name}: {len(buf) - off} trailing bytes")
    return {k: v.astype(np.float64) for k, v in out.items()}


def check_served(doc: dict, result: dict, weights: dict, wl: Workload) -> list[str]:
    """Served cost against our BOPs, and thresholds against the weights file."""
    fails = []
    specs = compute_specs(wl)
    entries = {e["name"]: e for e in doc["layers"]}
    if set(entries) != {s.name for s in specs}:
        return [f"served_config: layers {sorted(entries)} != {[s.name for s in specs]}"]
    assignment = {n: (e["format"], e["width_mult"], e["kernel"]) for n, e in entries.items()}
    cost = bops(specs, assignment) / 1e9
    for where, value in (("served_config cost_gbops", doc["cost_gbops"]),
                         ("result served_cost_gbops", result["served_cost_gbops"])):
        if not _close(value, cost):
            fails.append(f"{where} {value!r} != {cost!r}")
    if not all(np.all(np.isfinite(a)) for a in weights.values()):
        fails.append("weights.bin: non-finite parameter")
    for name, e in entries.items():
        if e["format"] == "BF16":
            continue
        arrays = [a for key, a in weights.items() if key.startswith(f"{name}/W")]
        w_max = max(float(np.max(np.abs(a))) for a in arrays)
        if e["weight_threshold"] != w_max:
            fails.append(f"{name}: weight_threshold {e['weight_threshold']!r} != "
                         f"max|w| {w_max!r} in weights.bin")
        a_t = e["act_threshold"]
        last = name == specs[-1].name
        if last != (a_t is None) or (a_t is not None and not (0 < a_t < math.inf)):
            fails.append(f"{name}: act_threshold {a_t!r}")
    return fails


def check_files_accuracy(run_dir: Path, config: dict, result: dict, wl: Workload) -> list[str]:
    """served_accuracy_from_files on the written files, and accuracy over chance."""
    from fliqs.data import BatchPlan
    from fliqs.errors import FliqsError
    from fliqs.search import build_dataset, served_accuracy_from_files

    fails = []
    doc = json.loads((run_dir / "served_config.json").read_text())
    dataset = build_dataset(config["data"], config["seed"])
    plan = BatchPlan(config["trainer"]["batch_size"], config["seed"], 0.1)
    try:
        acc = served_accuracy_from_files(doc, run_dir / "weights.bin", dataset, plan)
    except FliqsError as e:
        return [f"served_accuracy_from_files raised {type(e).__name__}: {e}"]
    if acc != result["served_accuracy"]:
        fails.append(f"served accuracy from files {acc!r} != result.json "
                     f"{result['served_accuracy']!r}")
    if result["served_accuracy"] < wl.min_accuracy:
        fails.append(f"served accuracy {result['served_accuracy']} below {wl.min_accuracy}"
                     f" (chance {1 / wl.classes:g})")
    return fails


def check_repeat(first: Path, other: Path) -> list[str]:
    """Rounds of one config must leave byte-identical traces."""
    if (first / "trace.csv").read_bytes() != (other / "trace.csv").read_bytes():
        return [f"{other.name}: trace.csv differs from {first.name}'s for the same config"]
    return []


def check_run(run_dir: Path, wl: Workload, config: dict, full: bool = True) -> list[str]:
    """The checks on one run directory; `full` adds the served-accuracy pass."""
    result = json.loads((run_dir / "result.json").read_text())
    doc = json.loads((run_dir / "served_config.json").read_text())
    fails = check_trace(read_trace(run_dir / "trace.csv"), wl, config)
    try:
        weights = read_weights(run_dir / "weights.bin")
    except (ValueError, struct.error) as e:
        return fails + [f"weights.bin: {e}"]
    fails += check_served(doc, result, weights, wl)
    if full:
        fails += check_files_accuracy(run_dir, config, result, wl)
    return fails
