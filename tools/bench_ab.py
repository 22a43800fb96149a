"""Same-session A/B benchmark: a base revision against this tree.

    python3 tools/bench_ab.py --base 78b4432 --label config_schema [--pairs 3]

The base revision is exported with `git archive` into a temporary directory.
This tree's `bench/run.py` then runs from the root of each side, so both
sides are measured by the same harness.  Runs alternate within one session:
each pair runs one seed on both sides, and the side that goes first swaps
from pair to pair, so drift of the host's speed hits both sides alike.

Writes `BENCH_<label>.json` at the root of this tree: every run's metrics
and resource use (minor page faults and user/system CPU seconds, the
`RUSAGE_CHILDREN` delta around the run), per-side medians and interquartile
ranges, the machine record, and a flag for every end-to-end metric of
BENCHMARK.json whose median on this tree is more than 10% worse than the
base's.  Every end-to-end metric also gets a claim verdict: the pairs this
tree won (ties count for neither side), the gap between the medians in the
better direction, the base's IQR, and `resolved`, true only when at least
10 pairs ran, this tree won at least 9 in 10 of them and the gap exceeds
the base's IQR.  Exits 1 when a metric is flagged or a run fails its
checks; an unresolved verdict alone does not fail.  A SIGTERM ends the
run under way and exits 143.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAG_PCT = 10.0
MIN_PAIRS = 10      # a gain is resolved only over at least this many pairs
RUSAGE = ("minor_faults", "minor_faults_per_step", "user_s", "sys_s")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def export(rev: str, dest: Path) -> str:
    """Extract `rev` into dest; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    with subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            # the "data" filter came in Python 3.10.12 / 3.11.4; a git archive needs none
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {commit} failed with status {proc.returncode}")
    return commit


def run_once(side_root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run from side_root: its result line, resource use
    and machine record."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen(cmd, cwd=side_root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        # an interrupted run (SIGTERM, Ctrl-C) takes its child with it
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not stdout.strip():
        tail = stderr.strip().splitlines()[-5:]
        raise SystemExit(f"{' '.join(cmd)} in {side_root} exited {proc.returncode}: "
                         + " | ".join(tail))
    result = json.loads(stdout.strip().splitlines()[-1])
    machine = None
    for line in stderr.splitlines():
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: "):])
    faults = after.ru_minflt - before.ru_minflt
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            # a side that is faster fits more rounds into the run, so faults
            # are also given per attempted search step
            "rusage": {"minor_faults": faults,
                       "minor_faults_per_step": faults / result["attempted"],
                       "user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime},
            "machine": machine}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(runs: list[dict], wl: str, metric: dict, sides: dict) -> dict:
    """Whether this tree's gain on one metric is resolved: pairs won, median gap, base IQR."""
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0   # sign * (base - change) > 0 is a win
    pairs: dict[int, dict] = {}
    for r in runs:
        if r["workload"] == wl:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
    won = sum(sign * (p["base"] - p["change"]) > 0 for p in pairs.values())
    gap = sign * (sides["base"]["median"] - sides["change"]["median"])
    out = {"pairs": len(pairs), "pairs_won": won, "median_gap": gap,
           "base_iqr": sides["base"]["iqr"],
           # won at least nine in ten, counted in integers
           "resolved": len(pairs) >= MIN_PAIRS and 10 * won >= 9 * len(pairs)
           and gap > sides["base"]["iqr"]}
    if len(pairs) < MIN_PAIRS:
        out["note"] = f"only {len(pairs)} pairs ran; a gain needs at least {MIN_PAIRS}"
    return out


def summarize(runs: list[dict], spec: dict) -> tuple[dict, list[str]]:
    """Per workload and end-to-end metric: each side's spread, the change and its verdict."""
    summary, flags = {}, []
    for wl in sorted({r["workload"] for r in runs}):
        summary[wl] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = {side: spread([r["metrics"][name] for r in runs
                                   if r["workload"] == wl and r["side"] == side])
                     for side in ("base", "change")}
            ratio = sides["change"]["median"] / sides["base"]["median"]
            worse_pct = (ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio) * 100.0
            flagged = worse_pct > FLAG_PCT
            summary[wl][name] = {"unit": metric["unit"], "better": metric["better"],
                                 "bound_pct": metric["bound"] * 100.0, **sides,
                                 "worse_pct": worse_pct, "flagged": flagged,
                                 "verdict": verdict(runs, wl, metric, sides)}
            if flagged:
                flags.append(f"{wl} {name}: change median is {worse_pct:.1f}% worse "
                             f"than base ({sides['change']['median']:.4g} against "
                             f"{sides['base']['median']:.4g} {metric['unit']})")
    return summary, flags


def summarize_rusage(runs: list[dict]) -> dict:
    """Per workload and resource counter: each side's spread; nothing is flagged."""
    return {wl: {name: {side: spread([r["rusage"][name] for r in runs
                                      if r["workload"] == wl and r["side"] == side])
                        for side in ("base", "change")}
                 for name in RUSAGE}
            for wl in sorted({r["workload"] for r in runs})}


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, so `finally` blocks stop the child and clean up."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    exit_on_sigterm()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=3, help="run pairs per workload (>= 3)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 3:
        p.error("--pairs must be at least 3: quartiles of fewer runs say nothing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = []
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base_root = Path(tmp)
        commit = export(args.base, base_root)
        roots = {"base": base_root, "change": ROOT}
        for wl in workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    log(f"{wl} pair {i + 1}/{args.pairs} seed {seed}: {side}")
                    run = run_once(roots[side], wl, seed, seconds)
                    runs.append({"side": side, "workload": wl, "seed": seed, "pair": i,
                                 "first": side == order[0], **run})
                    log(f"  {json.dumps(run['metrics'])}")
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    summary, flags = summarize(runs, spec)
    machines = [r.pop("machine") for r in runs]
    correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    doc = {
        "label": args.label,
        "base": commit,
        "change": "working tree of " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True).stdout.strip(),
        "method": {
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} "
                       "--trace 0",
            "sides": "base = `git archive` of the base revision; change = this tree; "
                     "this tree's bench/run.py runs from each side's root",
            "order": "one seed per pair, both sides; the side that runs first swaps "
                     "every pair; one run at a time",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over one side's runs",
            "flag": f"an end-to-end metric whose change median is more than {FLAG_PCT:g}% "
                    "worse than the base median",
            "verdict": f"resolved when at least {MIN_PAIRS} pairs ran, the change won at "
                       "least 9 in 10 of them (ties count for neither) and the median gap "
                       "in the better direction exceeds the base's IQR",
            "rusage": "resource.getrusage(RUSAGE_CHILDREN) before and after each run; "
                      "minor_faults_per_step divides by the run's attempted search steps",
            "session": f"{started} to {finished}",
        },
        "machine": machines[0],
        "machine_changed_during_session": any(m != machines[0] for m in machines),
        "correct": correct,
        "flags": flags,
        "summary": summary,
        "rusage_summary": summarize_rusage(runs),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log(f"wrote {out}")
    for wl, metrics in summary.items():
        for name, s in metrics.items():
            v = s["verdict"]
            log(f"{wl:10s} {name:20s} base {s['base']['median']:10.4g} "
                f"change {s['change']['median']:10.4g}  worse {s['worse_pct']:+6.1f}%  "
                f"won {v['pairs_won']}/{v['pairs']}  gap {v['median_gap']:+.4g} "
                f"(base IQR {v['base_iqr']:.4g})  "
                f"{'resolved' if v['resolved'] else 'unresolved'}"
                f"{'  FLAGGED' if s['flagged'] else ''}")
    if args.pairs < MIN_PAIRS:
        log(f"note: only {args.pairs} pairs ran; no gain is resolved with fewer than "
            f"{MIN_PAIRS}")
    for wl, counters in doc["rusage_summary"].items():
        for name, s in counters.items():
            log(f"{wl:10s} {name:20s} base {s['base']['median']:10.4g} "
                f"change {s['change']['median']:10.4g}")
    for f in flags:
        log(f"flag: {f}")
    if not correct:
        log("flag: a run failed its checks")
    return 1 if flags or not correct else 0


if __name__ == "__main__":
    sys.exit(main())
