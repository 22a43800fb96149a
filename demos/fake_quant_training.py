"""Training under fake quantization with the raw network API.

Builds a small MLP, profiles per-(layer, format) clipping thresholds from
activation statistics, then trains it with INT4 weights and activations.
The quantizers run in the forward pass only; master weights stay full
precision and the straight-through estimator passes gradients inside the
clipping range.  Also shows the IDX file round trip used for image data.
"""

import tempfile
from pathlib import Path

import numpy as np

from fliqs.arch import arch_for
from fliqs.data import BatchPlan, batch_stream, load_idx, validation_set, write_idx
from fliqs.network import (
    QuantPhase,
    SGDState,
    accuracy,
    backward,
    build_model,
    builtin_model_config,
    cross_entropy,
    forward,
    profile_thresholds,
    sgd_step,
)
from fliqs.search import build_dataset

# Synthetic blobs, round-tripped through the MNIST-style IDX format just to
# show the plumbing: pixels land on the 8-bit grid and reload bit-exactly.

blobs = build_dataset({"kind": "blobs", "classes": 4, "dims": 12,
                       "n_per_class": 200, "separation": 5.0}, seed=0)
tmp = Path(tempfile.mkdtemp())
write_idx(blobs, tmp / "images.idx", tmp / "labels.idx")
ds = load_idx(tmp / "images.idx", tmp / "labels.idx")
print(f"IDX round trip: {ds.images.shape[0]} examples, "
      f"shape {list(ds.images.shape[1:])}, {ds.classes} classes")

# Model, data plan, and per-layer thresholds for the formats we will use.
# Weight thresholds track max |w|; activation thresholds are a multiple of
# the observed post-ReLU standard deviation (coarser formats clip tighter).

net = build_model(builtin_model_config("mlp-2x16", list(ds.images.shape[1:]),
                                       ds.classes), seed=0)
plan = BatchPlan(batch_size=64, seed=0)
archs = {name: arch_for("INT4") for name in ("fc1", "fc2", "out")}

int4 = archs["fc1"].fmt
profile_iter = batch_stream(ds, plan)
thresholds = profile_thresholds(net, profile_iter, [int4], n_batches=4)
for name in ("fc1", "fc2"):
    w = thresholds.weight_threshold(name, int4)
    a = thresholds.act_threshold(name, int4)
    print(f"{name}: weight threshold {w:.3f}, activation threshold {a:.3f}")

# The training loop itself: quantized forward, STE backward, SGD update.

phase = QuantPhase(weight_quant=True, act_quant=True)
stream = batch_stream(ds, plan)
state = SGDState()
for step in range(300):
    xb, yb = next(stream)
    logits, cache = forward(net, xb, archs, phase, thresholds)
    grads = backward(net, cache, yb)
    sgd_step(net, grads, state, lr=0.05)
    if step % 100 == 0:
        print(f"step {step:3d}  loss {cross_entropy(logits, yb):.4f}")

vx, vy = validation_set(ds, plan)
logits, _ = forward(net, vx, archs, phase, thresholds, train=False)
print(f"INT4 validation accuracy: {accuracy(logits, vy):.4f}")
