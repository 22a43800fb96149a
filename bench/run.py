"""Search and serving benchmark for fliqs.

    python3 bench/run.py --workload desk-int --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test [--workload W] [--seed N]

Run from the root of a checkout: the program is imported from ./src.  One
run generates its inputs from the seed, then repeats rounds while the next
one fits in --seconds.  A round is one in-process
`fliqs.cli.main(["search", ...])` plus serving passes over the model rebuilt
from the run directory's files.  The first round's set-up is the cold one.
After the last round, checks.py and an independent reference forward pass
check every round's files.  The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, read_idx_images  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def machine() -> dict:
    """CPU count, numpy and BLAS build, BLAS threads in use, thread env vars."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


@dataclass
class Round:
    run_dir: Path
    traced: bool
    main_s: float
    loop_s: float
    step_ms: float
    first_batch: float
    serve_rates: list


def search_round(mods, probe, wl, config, cfg_path, out_dir, serve_set) -> Round:
    """One `fliqs search` call and its serving passes.

    serve_set() returns the serving images; it is called after the search so
    that the first round's set-up stays cold.
    """
    probe.begin_round()
    probe.install()
    try:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(["search", "--config", str(cfg_path),
                                     "--out", str(out_dir)])
        main_s = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"fliqs search exited {code}: {buf.getvalue().strip()}")
        loop_s = probe.loop_seconds()
        first_batch = probe.loop_start
        run_dir = Path(buf.getvalue().split("run dir: ", 1)[1].splitlines()[0])

        probe.phase = "serve"
        doc = json.loads((run_dir / "served_config.json").read_text())
        net, archs, thresholds = mods["search"].load_served(doc, run_dir / "weights.bin")
        phase = mods["network"].QuantPhase(weight_quant=True, act_quant=True)
        images, labels = serve_set()
        rates = []
        for _ in range(wl.serve_passes):
            t0 = perf_counter()
            mods["search"].evaluate_accuracy(net, images, labels, archs, phase, thresholds,
                                              config["trainer"]["batch_size"])
            rates.append(len(labels) / (perf_counter() - t0))
        probe.phase = "idle"
    finally:
        probe.uninstall()
    return Round(run_dir, probe.full, main_s, loop_s, loop_s * 1e3 / config["total_steps"],
                 first_batch, rates)


def serving_set(wl, config, mods, work: Path):
    """A fixed number of images for the serving passes, built on first call."""
    return functools.cache(lambda: _serving_images(wl, config, mods, work))


def _serving_images(wl, config, mods, work: Path):
    if config["data"]["kind"] == "idx":
        images = read_idx_images(work / "images.idx")[: wl.serve_images]
        labels = np.frombuffer((work / "labels.idx").read_bytes(), np.uint8, offset=8)
        return images, labels[: wl.serve_images].astype(np.int64)
    ds = mods["search"].build_dataset(config["data"], config["seed"])
    return (np.resize(ds.images, (wl.serve_images,) + ds.images.shape[1:]),
            np.resize(ds.labels, wl.serve_images))


def run_checks(wl, config, rounds: list[Round], serve_set) -> list[str]:
    """Every round's trace and served files; the last round in full.

    Rounds repeat one config, so their traces must match byte for byte; the
    served accuracy from files and the reference forward pass, which cost a
    validation pass each, run on the last round only.
    """
    import checks
    import reference

    fails = []
    for i, r in enumerate(rounds):
        fails += [f"round {i + 1}: {f}" for f in checks.check_run(r.run_dir, wl, config,
                                                                   full=r is rounds[-1])]
        fails += checks.check_repeat(rounds[0].run_dir, r.run_dir)
    last = rounds[-1].run_dir
    doc = json.loads((last / "served_config.json").read_text())
    x = serve_set[0][: wl.reference_images]
    ref = reference.reference_logits(wl, doc, checks.read_weights(last / "weights.bin"), x)
    ref_fails, stats = reference.compare(ref, reference.program_logits(doc, last / "weights.bin", x))
    log(f"reference: {stats}")
    return fails + ref_fails


def import_program(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import fliqs  # noqa: F401
    from fliqs import cli, formats, network, search

    return {"cli": cli, "search": search, "network": network, "formats": formats}


def bench(args) -> dict:
    from probe import Probe
    from workloads import make_inputs

    wl = WORKLOADS[args.workload]
    out_root = Path.cwd() / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-s{args.seed}-", dir=out_root))
    try:
        cfg_path = make_inputs(wl, args.seed, work)
        config = json.loads(cfg_path.read_text())

        t_import = perf_counter()
        mods = import_program(Path.cwd())
        plain = Probe(mods, full=False)
        traced = Probe(mods, full=True) if args.trace else None
        serve_set = serving_set(wl, config, mods, work)
        rounds: list[Round] = []
        t_start = perf_counter()
        while True:
            probe = traced if traced is not None and len(rounds) % 2 == 1 else plain
            t_round = perf_counter()
            rounds.append(search_round(mods, probe, wl, config, cfg_path, work / "runs",
                                       serve_set))
            r = rounds[-1]
            if len(rounds) == 1:
                # the first round's peak: later rounds add allocator fragmentation,
                # so a peak taken after them would depend on how many rounds fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            served = json.loads((r.run_dir / "served_config.json").read_text())
            log(f"round {len(rounds)}{' traced' if r.traced else ''}: step {r.step_ms:.2f} ms, "
                f"run {r.main_s:.3f} s, serve {statistics.median(r.serve_rates):.1f} img/s, "
                f"served accuracy {served['validation_accuracy']:.4f} with "
                f"{' '.join(e['format'] for e in served['layers'])}")
            # stop before a round that would overrun --seconds
            elapsed = perf_counter() - t_start
            if elapsed + (perf_counter() - t_round) > args.seconds and \
                    (traced is None or len(rounds) >= 2):
                break
        setup_s = rounds[0].first_batch - t_import

        failures = run_checks(wl, config, rounds, serve_set())
        for f in failures[:20]:
            log(f"check failed: {f}")
        log(f"machine: {json.dumps(machine())}")

        if args.trace:
            metrics = traced_metrics(traced, rounds)
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "step_ms": (statistics.median(r.step_ms for r in rounds), "ms/step"),
                "run_s": (statistics.median(r.main_s for r in rounds), "s"),
                "serve_images_per_s": (
                    statistics.median(x for r in rounds for x in r.serve_rates), "images/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        return {
            "correct": not failures,
            "attempted": config["total_steps"] * len(rounds),
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_metrics(probe, rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = probe.metrics(len(traced), sum(r.loop_s for r in traced),
                        sum(r.main_s for r in traced))
    t_ms = statistics.median(r.step_ms for r in traced)
    u_ms = statistics.median(r.step_ms for r in plain)
    out["trace.traced_step_ms"] = (t_ms, "ms/step")
    out["trace.untraced_step_ms"] = (u_ms, "ms/step")
    out["trace.overhead_pct"] = ((t_ms / u_ms - 1.0) * 100.0, "%")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that every check fails on a corrupted artifact")
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "fliqs" / "__init__.py").is_file():
        log("error: run from the root of a fliqs checkout (no src/fliqs here)")
        return 2
    if args.self_test:
        import selftest

        return selftest.main(args)
    if args.workload is None:
        p.error("--workload is required")
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
