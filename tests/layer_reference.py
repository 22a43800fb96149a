"""Direct loop implementations of the network's layer kernels.

Used to check the vectorised kernels in `fliqs.network`.  Every convolution
here visits output pixels one at a time and every pooling window is scanned
element by element, so the code shares no im2col, GEMM layout or strided
trick with the library.  Fake quantization goes through the brute-force
oracle and the clipped straight-through estimator is spelled out per layer.
"""

import numpy as np

from quantize_oracle import oracle_quantize


def _pad(x, k):
    p = k // 2
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), p


def conv_forward(x, w, b):
    """Same-padded stride-1 convolution; w is (out, in, k, k)."""
    n, _, h, wd = x.shape
    o, _, k, _ = w.shape
    xp, _ = _pad(x, k)
    y = np.empty((n, o, h, wd))
    for r in range(h):
        for s in range(wd):
            patch = xp[:, :, r : r + k, s : s + k]
            y[:, :, r, s] = np.einsum("ncij,ocij->no", patch, w)
    return y + b[None, :, None, None]


def conv_backward(x, w, dy):
    """(dx, dW, db) of conv_forward."""
    n, _, h, wd = x.shape
    k = w.shape[-1]
    xp, p = _pad(x, k)
    dxp = np.zeros(xp.shape)
    dw = np.zeros(w.shape)
    for r in range(h):
        for s in range(wd):
            g = dy[:, :, r, s]
            dw += np.einsum("no,ncij->ocij", g, xp[:, :, r : r + k, s : s + k])
            dxp[:, :, r : r + k, s : s + k] += np.einsum("no,ocij->ncij", g, w)
    return dxp[:, :, p : p + h, p : p + wd], dw, dy.sum(axis=(0, 2, 3))


def depthwise_forward(x, w, b):
    """Same-padded per-channel convolution; w is (channels, k, k)."""
    n, c, h, wd = x.shape
    k = w.shape[-1]
    xp, _ = _pad(x, k)
    y = np.empty((n, c, h, wd))
    for r in range(h):
        for s in range(wd):
            patch = xp[:, :, r : r + k, s : s + k]
            y[:, :, r, s] = (patch * w[None]).sum(axis=(2, 3))
    return y + b[None, :, None, None]


def depthwise_backward(x, w, dy):
    """(dx, dW, db) of depthwise_forward."""
    n, c, h, wd = x.shape
    k = w.shape[-1]
    xp, p = _pad(x, k)
    dxp = np.zeros(xp.shape)
    dw = np.zeros(w.shape)
    for r in range(h):
        for s in range(wd):
            g = dy[:, :, r, s][:, :, None, None]
            dw += (g * xp[:, :, r : r + k, s : s + k]).sum(axis=0)
            dxp[:, :, r : r + k, s : s + k] += g * w[None]
    return dxp[:, :, p : p + h, p : p + wd], dw, dy.sum(axis=(0, 2, 3))


def maxpool_forward(x, size):
    """(y, winners): each window's max and the (row, col) of its first max
    in row-major order."""
    n, c, h, wd = x.shape
    y = np.empty((n, c, h // size, wd // size))
    winners = {}
    for a in range(n):
        for ch in range(c):
            for r in range(h // size):
                for s in range(wd // size):
                    best = None
                    for i in range(size):
                        for j in range(size):
                            v = x[a, ch, r * size + i, s * size + j]
                            if best is None or v > best[0]:
                                best = (v, r * size + i, s * size + j)
                    y[a, ch, r, s] = best[0]
                    winners[a, ch, r, s] = best[1:]
    return y, winners


def maxpool_backward(x_shape, winners, dy):
    dx = np.zeros(x_shape)
    for (a, ch, r, s), (i, j) in winners.items():
        dx[a, ch, i, j] = dy[a, ch, r, s]
    return dx


def _fake_quant(v, fmt, threshold):
    """(quantized view, STE mask) for one clipped format."""
    return oracle_quantize(v, fmt, threshold), np.abs(v) <= threshold


def reference_step(layers, params, x, labels, archs, weight_quant, act_quant,
                   thresholds, joint_branches=False):
    """Logits and per-layer gradients of softmax cross-entropy.

    `layers` is the model's layer list (conv, depthwise_conv, relu, maxpool,
    flatten, dense, each compute layer named); `params` maps layer names to
    {param: array} as `Network.parameters()` does.  `thresholds` maps a
    compute layer to (weight threshold, activation threshold).
    """
    tape = []
    owner = None
    for cfg in layers:
        kind = cfg["type"]
        if kind in ("conv", "depthwise_conv", "dense"):
            name = cfg["name"]
            fmt = archs[name].fmt
            w_t, a_t = thresholds.get(name, (None, None))
            owner = (fmt, a_t)
            p = params[name]
            if kind == "dense":
                branches = ["W"]
            elif joint_branches and len(cfg.get("kernel_options", [])) > 1:
                branches = [f"W{k}" for k in sorted(cfg["kernel_options"])]
            else:
                branches = [f"W{archs[name].kernel or cfg['kernel']}"]
            views = {}
            for key in branches:
                if weight_quant:
                    views[key] = _fake_quant(p[key], fmt, w_t)
                else:
                    views[key] = (p[key], np.ones(p[key].shape, dtype=bool))
            if kind == "dense":
                y = x @ views["W"][0].T + p["b"]
            else:
                fwd = conv_forward if kind == "conv" else depthwise_forward
                y = sum(fwd(x, views[key][0], p["b"]) for key in branches) / len(branches)
            tape.append((kind, name, x, views))
        elif kind == "relu":
            a = np.maximum(x, 0.0)
            live = x > 0.0
            if act_quant:
                fmt, a_t = owner
                y, ste = _fake_quant(a, fmt, a_t)
                live = live & ste
            else:
                y = a
            tape.append((kind, None, live, None))
        elif kind == "maxpool":
            y, winners = maxpool_forward(x, cfg["size"])
            tape.append((kind, None, x.shape, winners))
        elif kind == "flatten":
            y = x.reshape(x.shape[0], -1)
            tape.append((kind, None, x.shape, None))
        else:
            raise ValueError(f"no reference for layer type {kind!r}")
        x = y

    logits = x
    n = len(labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    dy = e / e.sum(axis=1, keepdims=True)
    dy[np.arange(n), labels] -= 1.0
    dy /= n
    grads = {}
    for kind, name, saved, extra in reversed(tape):
        if kind == "relu":
            dy = dy * saved
        elif kind == "maxpool":
            dy = maxpool_backward(saved, extra, dy)
        elif kind == "flatten":
            dy = dy.reshape(saved)
        elif kind == "dense":
            wq, ste = extra["W"]
            grads[name] = {"W": (dy.T @ saved) * ste, "b": dy.sum(axis=0)}
            dy = dy @ wq
        else:
            bwd = conv_backward if kind == "conv" else depthwise_backward
            share = 1.0 / len(extra)
            g, dx = {}, 0.0
            for key, (wq, ste) in extra.items():
                d_x, d_w, d_b = bwd(saved, wq, dy)
                g[key] = d_w * share * ste
                g["b"] = d_b
                dx = dx + d_x * share
            grads[name] = g
            dy = dx
    return logits, grads
