"""Full-strength checks of the package's headline guarantees.

Each check prints one [PASS] line with its measured numbers so a release run
reads as a checklist.  The desk-scale training runs share one session fixture;
expect the whole module to take on the order of fifteen minutes on a laptop
CPU.  Run with `pytest -s tests/test_acceptance.py` for live output.
"""

import json
import time

import numpy as np
import pytest

from fliqs.analysis import SynthSpec, clipping_sweep, fit_exponential, switching_sweep
from fliqs.arch import ArchChoice
from fliqs.controller import LayerPolicy, beta_schedule, policy_gradient
from fliqs.costmodel import load_manifest, uniform_cost
from fliqs.data import Dataset, write_idx
from fliqs.formats import int_format, max_representable, representable_values
from fliqs.network import build_model, network_manifest
from fliqs.quantize import quantize
from fliqs.search import (
    ControllerConfig,
    SearchConfig,
    TrainerConfig,
    run_search,
    run_static,
    run_uniform,
)
from controller_reference import objective
from quantize_oracle import oracle_quantize
from test_controller import DESIGNATED, _bandit
from test_quantize import ORACLE_FORMATS

GBOPS = 1e9


def _pass(capsys, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[PASS] {label}: {detail}")


# ---------------------------------------------------------------- acceptance 1: cost model

PUBLISHED_GBOPS = {
    "resnet18": {"BF16": 467.7, "INT8": 116.9, "INT4": 29.23},
    "mobilenetv2": {"BF16": 77.00, "INT8": 19.25, "INT4": 4.81},
}


def test_acceptance_1_cost_model_reproduction(capsys):
    t0 = time.time()
    got = {}
    for name, targets in PUBLISHED_GBOPS.items():
        manifest = load_manifest(name)
        for fmt, expected in targets.items():
            gbops = uniform_cost(manifest, fmt) / GBOPS
            assert gbops == pytest.approx(expected, rel=0.01), (name, fmt)
            got[f"{name}/{fmt}"] = gbops
    elapsed = time.time() - t0
    assert elapsed < 1.0
    detail = ", ".join(f"{k}={v:.4g}" for k, v in got.items())
    _pass(capsys, "acceptance 1 (cost model)",
          f"{detail}; all within 1% in {elapsed:.2f}s")


# ---------------------------------------------------------------- acceptance 2: quantizer


def _oracle_inputs(fmt, rng, n=100_000):
    """Random mass plus every constructed tie and fixed point, n total."""
    if fmt.kind == "int":
        qmax = 2 ** (fmt.bits - 1) - 1
        t = qmax * 0.25
        points = np.arange(-qmax, qmax + 1) * 0.25
        mids = (np.arange(-qmax, qmax) + 0.5) * 0.25
    else:
        t = max_representable(fmt) * 0.25
        points = representable_values(fmt) * 0.25
        mids = (points[:-1] + points[1:]) / 2.0
    fixed = np.concatenate([points, mids, [t, -t, 0.0, 10 * t, -10 * t]])
    random = rng.normal(0.0, 0.6 * t, size=n - fixed.size)
    return np.concatenate([fixed, random]), t


def test_acceptance_2_quantizer_matches_bruteforce_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0xACE2)
    for fmt in ORACLE_FORMATS:
        x, t = _oracle_inputs(fmt, rng)
        got = quantize(x, fmt, t)
        want = oracle_quantize(x, fmt, t)
        assert np.array_equal(got, want), fmt.name
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(capsys, "acceptance 2 (quantizer oracle)",
          f"exact match on 1e5 inputs for {len(ORACLE_FORMATS)} formats "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- acceptance 3: switching


def test_acceptance_3_switching_error_decays_exponentially(capsys):
    t0 = time.time()
    out = switching_sweep([4, 5, 6, 7], k2=8, spec=SynthSpec(), trials=1000,
                          seed=0)
    means = out["mean_rms"]
    assert np.all(np.diff(means) < 0), means
    fit = fit_exponential(out["k1"], means)
    r2 = fit.r_squared(out["k1"], means)
    assert r2 > 0.9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(capsys, "acceptance 3 (switching error)",
          f"mean RMS strictly decreasing over k1=4..7 "
          f"({', '.join(f'{m:.4f}' for m in means)}), exp fit R^2={r2:.4f} "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- acceptance 4: clipping


def test_acceptance_4_low_bit_formats_need_tighter_clipping(capsys):
    t0 = time.time()
    spec = SynthSpec(tensor_size=4096, outlier_rate=1e-3, outlier_scale=5.0)
    grid = np.linspace(90.0, 100.0, 41)
    p4 = clipping_sweep("INT4", spec, trials=200, percentiles=grid, seed=0)
    p8 = clipping_sweep("INT8", spec, trials=200, percentiles=grid, seed=0)
    assert p4["optimal_percentile"] < p8["optimal_percentile"]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(capsys, "acceptance 4 (clipping ordering)",
          f"INT4 optimum {p4['optimal_percentile']:.2f}% < "
          f"INT8 optimum {p8['optimal_percentile']:.2f}% in {elapsed:.1f}s")


# ---------------------------------------------------------------- acceptance 5: gradient


def test_acceptance_5_policy_gradient_matches_finite_differences(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0xACE5)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        logits = rng.normal(0, 2, size=k)
        idx = int(rng.integers(k))
        adv = float(rng.normal(0, 1))
        beta = float(rng.uniform(0, 1))
        policy = LayerPolicy("a", [ArchChoice(int_format(4))] * k,
                             logits=logits.copy())
        (g,) = policy_gradient([policy], [idx], adv, beta)
        num = np.zeros(k)
        for j in range(k):
            up = LayerPolicy("a", policy.option_set, logits=logits.copy())
            up.logits[j] += h
            dn = LayerPolicy("a", policy.option_set, logits=logits.copy())
            dn.logits[j] -= h
            num[j] = (objective([up], [idx], adv, beta)
                      - objective([dn], [idx], adv, beta)) / (2 * h)
        rel = np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-9)
        assert rel < 1e-5, rel
        worst = max(worst, rel)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _pass(capsys, "acceptance 5 (policy gradient)",
          f"100 random configurations, worst relative error {worst:.2e} "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- acceptance 6: bandit


def test_acceptance_6_controller_solves_bandit_for_all_seeds(capsys):
    t0 = time.time()
    worst = 1.0
    for seed in range(10):
        state = _bandit(seed, beta_end=0.5)
        for policy, designated in zip(state.policies, DESIGNATED):
            probs = policy.probs()
            assert int(np.argmax(probs)) == designated, seed
            assert probs[designated] > 0.9, (seed, probs)
            worst = min(worst, probs[designated])
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _pass(capsys, "acceptance 6 (controller bandit)",
          f"seeds 0-9 all converge to the designated optimum, "
          f"worst per-layer probability {worst:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------- acceptance 7: schedule


def test_acceptance_7_cosine_schedule_endpoints(capsys):
    for beta_end in (0.5, 0.8, 2.0):
        assert beta_schedule(0.0, beta_end) == 0.0
        assert beta_schedule(0.5, beta_end) == beta_end / 2
        assert beta_schedule(1.0, beta_end) == beta_end
    _pass(capsys, "acceptance 7 (cosine schedule)",
          "beta(0)=0, beta(0.5)=end/2, beta(1)=end exact for three end values")


# ------------------------------------------------------- criteria 8 and 9


def _blur(a, passes=3):
    for _ in range(passes):
        a = (np.roll(a, 1, -2) + a + np.roll(a, -1, -2)) / 3.0
        a = (np.roll(a, 1, -1) + a + np.roll(a, -1, -1)) / 3.0
    return a


def _make_desk_data(n=10_000, eps=0.5, sigma=1.0, seed=0xDE5C) -> Dataset:
    """Ten smooth class templates plus correlated noise, MNIST-shaped.

    The class signal is deliberately modest so coarse formats measurably
    trail fine ones; eps scales the per-class template, sigma the noise.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    base = _blur(rng.standard_normal((28, 28)))
    base /= base.std()
    deltas = _blur(rng.standard_normal((10, 28, 28)))
    deltas /= deltas.std(axis=(1, 2), keepdims=True)
    protos = base[None] + eps * deltas

    labels = np.repeat(np.arange(10), n // 10)
    rng.shuffle(labels)
    noise = _blur(rng.standard_normal((n, 28, 28)))
    noise /= noise.std(axis=(1, 2), keepdims=True)
    x = protos[labels] + sigma * noise
    x = np.clip(0.5 + x / (2.0 * (1.0 + eps + sigma)), 0.0, 1.0)
    return Dataset(images=x[:, None, :, :], labels=labels, classes=10)


DESK_SEEDS = (0, 1, 2)
DESK_STEPS = 450


def _desk_config(seed, images_path, labels_path, target_gbops):
    return SearchConfig(
        model="cnn-small",
        data={"kind": "idx", "images": images_path, "labels": labels_path,
              "limit": 10_000},
        search_space="FLIQS-S-int",
        total_steps=DESK_STEPS,
        cost_target_gbops=target_gbops,
        controller=ControllerConfig(lr=0.02),
        trainer=TrainerConfig(batch_size=64, lr=0.05),
        seed=seed,
    )


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Search, uniform, and retrain-from-scratch runs on the desk CNN."""
    root = tmp_path_factory.mktemp("desk-data")
    images = str(root / "train-images.idx")
    labels = str(root / "train-labels.idx")
    write_idx(_make_desk_data(), images, labels)

    manifest = network_manifest(build_model("cnn-small"))
    target = (uniform_cost(manifest, "INT4")
              + uniform_cost(manifest, "INT8")) / 2.0 / GBOPS

    out = {"target_gbops": target, "search": [], "int4": [], "int8": [],
           "retrain": []}
    timers = {}

    t0 = time.time()
    for seed in DESK_SEEDS:
        out["search"].append(
            run_search(_desk_config(seed, images, labels, target)))
    timers["search"] = time.time() - t0

    for fmt in ("int4", "int8"):
        t0 = time.time()
        for seed in DESK_SEEDS:
            out[fmt].append(
                run_uniform(_desk_config(seed, images, labels, target),
                            fmt.upper()))
        timers[fmt] = time.time() - t0

    t0 = time.time()
    for seed, searched in zip(DESK_SEEDS, out["search"]):
        cfg = _desk_config(seed, images, labels, target)
        out["retrain"].append(run_static(cfg, searched.final_archs))
    timers["retrain"] = time.time() - t0

    out["timers"] = timers
    return out


def test_acceptance_8_desk_search_beats_uniform_low_bit(desk_runs, capsys):
    served_acc = np.mean([r.served_accuracy for r in desk_runs["search"]])
    served_cost = np.mean([r.served_cost_gbops for r in desk_runs["search"]])
    int4_acc = np.mean([r.served_accuracy for r in desk_runs["int4"]])
    target = desk_runs["target_gbops"]
    elapsed = desk_runs["timers"]["search"] + desk_runs["timers"]["int4"]

    assert served_acc >= int4_acc
    assert served_cost <= 1.15 * target
    assert elapsed < 15 * 60
    _pass(capsys, "acceptance 8 (desk search)",
          f"mean served accuracy {served_acc:.4f} >= uniform INT4 "
          f"{int4_acc:.4f}; mean served cost {served_cost:.5f} GBOPs <= "
          f"1.15 x target {1.15 * target:.5f} in {elapsed:.0f}s")


def test_acceptance_9_serving_matches_retraining(desk_runs, capsys):
    served = np.mean([r.served_accuracy for r in desk_runs["search"]])
    retrained = np.mean([r.served_accuracy for r in desk_runs["retrain"]])
    elapsed = desk_runs["timers"]["search"] + desk_runs["timers"]["retrain"]

    diff = abs(served - retrained)
    assert diff <= 0.010
    assert elapsed < 30 * 60
    _pass(capsys, "acceptance 9 (no-retrain equivalence)",
          f"mean served {served:.4f} vs retrained-from-scratch "
          f"{retrained:.4f}, |diff| {diff:.4f} <= 0.010 in {elapsed:.0f}s")


def test_desk_uniform_bitwidth_ordering(desk_runs, capsys):
    int4 = np.mean([r.served_accuracy for r in desk_runs["int4"]])
    int8 = np.mean([r.served_accuracy for r in desk_runs["int8"]])
    assert int4 <= int8
    _pass(capsys, "desk baseline ordering",
          f"uniform INT4 mean accuracy {int4:.4f} <= INT8 {int8:.4f} "
          f"(3-seed means)")


# --------------------------------------------------------------- acceptance 10: determinism


def test_acceptance_10_trace_files_are_byte_identical(capsys, tmp_path):
    from fliqs.cli import main

    doc = {
        "model": "mlp-2x16",
        "data": {"kind": "blobs", "classes": 4, "dims": 12,
                 "n_per_class": 150, "separation": 4.0},
        "search_space": "FLIQS-S-int",
        "total_steps": 80,
        "cost_target_gbops": 2.048e-5,
        "controller": {"lr": 0.02},
        "trainer": {"batch_size": 64, "lr": 0.05},
        "seed": 3,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))

    traces = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        traces.append((run_dir / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    _pass(capsys, "acceptance 10 (determinism)",
          f"two identical CLI runs produced byte-identical trace.csv "
          f"({len(traces[0])} bytes)")
