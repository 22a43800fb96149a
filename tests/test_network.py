import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliqs.arch import arch_for
from fliqs.costmodel import uniform_cost
from fliqs.errors import ConfigError, DataError, DomainError, ThresholdError
from fliqs.formats import int_format, resolve_format
from fliqs.network import (
    Dense,
    MaxPool2D,
    QuantPhase,
    SGDState,
    ThresholdTable,
    accuracy,
    backward,
    build_model,
    builtin_model_config,
    cross_entropy,
    forward,
    load_weights,
    network_manifest,
    phase_for_step,
    profile_thresholds,
    round_weights_to_serving_precision,
    save_weights,
    sgd_step,
    std_multiple_for,
    update_weight_thresholds,
    _mask_for,
)
from layer_reference import maxpool_backward, maxpool_forward, reference_step

BF16 = resolve_format("BF16")


def _two_blob_batch(n=64, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([
        rng.normal(-1.0, 0.5, size=(half, dim)),
        rng.normal(+1.0, 0.5, size=(n - half, dim)),
    ])
    y = np.array([0] * half + [1] * (n - half))
    return x.reshape(n, 1, 1, dim), y


def _mixed_stack():
    """Conv, depthwise, pooling, and dense layers all in one tiny model."""
    return build_model(
        {
            "name": "stack",
            "input_shape": [2, 8, 8],
            "classes": 3,
            "layers": [
                {"type": "conv", "name": "c1", "out_channels": 3, "kernel": 3},
                {"type": "relu"},
                {"type": "maxpool", "size": 2},
                {"type": "depthwise_conv", "name": "dw", "kernel": 3},
                {"type": "relu"},
                {"type": "avgpool", "size": 2},
                {"type": "flatten"},
                {"type": "dense", "name": "fc", "out_features": 3},
            ],
        },
        seed=7,
    )


class TestBuiltinConfigs:
    def test_mlp_expansion(self):
        net = build_model("mlp-2x32", input_shape=(1, 1, 16))
        names = [l.name for l in net.compute_layers()]
        assert names == ["fc1", "fc2", "out"]
        assert net.layer_by_name("fc1").in_features == 16
        assert net.layer_by_name("fc2").out_features == 32
        assert net.layer_by_name("out").out_features == 10
        assert net.input_shape == (1, 1, 16)

    def test_cnn_small_mac_counts(self):
        net = build_model("cnn-small")
        macs = {l.name: l.base_macs for l in net.compute_layers()}
        assert macs == {
            "conv1": 8 * 1 * 9 * 28 * 28,
            "conv2": 16 * 8 * 9 * 14 * 14,
            "conv3": 32 * 16 * 9 * 7 * 7,
            "fc1": 32 * 7 * 7 * 64,
            "fc2": 64 * 10,
        }
        assert sum(macs.values()) == 609024

    def test_manifest_matches_network(self):
        net = build_model("cnn-small")
        manifest = network_manifest(net)
        assert [l.name for l in manifest.layers] == [
            "conv1", "conv2", "conv3", "fc1", "fc2",
        ]
        # INT8 everywhere: 64 BOPs per MAC
        assert uniform_cost(manifest, int_format(8)) == 64 * 609024

    def test_same_seed_same_weights(self):
        a = build_model("mlp-1x8", seed=3)
        b = build_model("mlp-1x8", seed=3)
        c = build_model("mlp-1x8", seed=4)
        assert np.array_equal(a.layer_by_name("fc1").W, b.layer_by_name("fc1").W)
        assert not np.array_equal(a.layer_by_name("fc1").W, c.layer_by_name("fc1").W)

    def test_relu_owner_wiring(self):
        net = build_model("cnn-small")
        relus = [l for l in net.layers if l.kind == "relu"]
        assert [r.owner for r in relus] == ["conv1", "conv2", "conv3", "fc1"]

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_model_config("resnet-9000")


class TestBuildValidation:
    def _cfg(self, layers):
        return {"name": "t", "input_shape": [1, 4, 4], "classes": 2, "layers": layers}

    def test_unknown_layer_type(self):
        with pytest.raises(ConfigError, match="unknown type"):
            build_model(self._cfg([{"type": "gru"}]))

    def test_dense_before_flatten(self):
        with pytest.raises(ConfigError, match="before flatten"):
            build_model(self._cfg([{"type": "dense", "out_features": 2}]))

    def test_conv_after_flatten(self):
        with pytest.raises(ConfigError, match="after flatten"):
            build_model(self._cfg([
                {"type": "flatten"},
                {"type": "conv", "out_channels": 2},
            ]))

    def test_pool_divisibility(self):
        with pytest.raises(ConfigError, match="not divisible"):
            build_model(self._cfg([
                {"type": "maxpool", "size": 3},
                {"type": "flatten"},
                {"type": "dense", "out_features": 2},
            ]))

    def test_final_layer_must_match_classes(self):
        with pytest.raises(ConfigError, match="dense layer with 2 outputs"):
            build_model(self._cfg([
                {"type": "flatten"},
                {"type": "dense", "out_features": 5},
            ]))

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            build_model(self._cfg([
                {"type": "flatten"},
                {"type": "dense", "name": "d", "out_features": 4},
                {"type": "relu"},
                {"type": "dense", "name": "d", "out_features": 2},
            ]))

    def test_unknown_layer_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_model(self._cfg([
                {"type": "flatten"},
                {"type": "dense", "out_features": 2, "stride": 2},
            ]))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            build_model(self._cfg([
                {"type": "conv", "out_channels": 2, "kernel": 2},
                {"type": "flatten"},
                {"type": "dense", "out_features": 2},
            ]))

    def test_dense_cannot_search_kernels(self):
        with pytest.raises(ConfigError, match="cannot search kernels"):
            Dense("d", 4, 2, kernel_options=[3, 5])

    def test_unknown_top_key(self):
        cfg = self._cfg([{"type": "flatten"}, {"type": "dense", "out_features": 2}])
        cfg["epochs"] = 3
        with pytest.raises(ConfigError, match="unknown keys"):
            build_model(cfg)


class TestPhases:
    def test_weight_quant_from_start(self):
        p = phase_for_step(0, act_quant_start_step=100)
        assert p.weight_quant and not p.act_quant

    def test_act_quant_joins_later(self):
        assert phase_for_step(99, 100).act_quant is False
        assert phase_for_step(100, 100).act_quant is True

    def test_std_multiples(self):
        assert std_multiple_for(int_format(4)) == 3.0
        assert std_multiple_for(resolve_format("E2M1")) == 3.0
        assert std_multiple_for(int_format(6)) == 3.5
        assert std_multiple_for(int_format(8)) == 4.0
        assert std_multiple_for(resolve_format("E4M3")) == 4.0


class TestMasks:
    def test_keep_count_rounds_up(self):
        assert _mask_for(0.5, 8).sum() == 4
        assert _mask_for(0.26, 8).sum() == 3
        assert _mask_for(1.0, 8).sum() == 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 1.0), st.floats(0.01, 1.0),
        st.integers(1, 32),
    )
    def test_narrower_mask_is_contained(self, w1, w2, channels):
        lo, hi = sorted([w1, w2])
        m_lo = _mask_for(lo, channels)
        m_hi = _mask_for(hi, channels)
        assert np.all(m_lo <= m_hi)

    def test_width_mult_zeroes_output_channels(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=0)
        x = np.random.default_rng(0).normal(size=(5, 1, 1, 4))
        archs = {
            "fc1": arch_for("INT8", width_mult=0.5),
            "out": arch_for("BF16"),
        }
        table = ThresholdTable()
        table.set("fc1", "INT8", 10.0, 10.0)
        logits, cache = forward(net, x, archs, QuantPhase(True, False), table)
        fc1_ctx = next(c for c in cache["layers"] if c["layer"] == "fc1")
        assert fc1_ctx["mask"] is not None
        # masked channels contribute nothing and receive no gradient
        grads = backward(net, cache, np.zeros(5, dtype=int))
        assert np.all(grads["fc1"]["W"][4:] == 0.0)
        assert np.all(grads["fc1"]["b"][4:] == 0.0)


class TestForwardBackward:
    def test_gradcheck_mixed_stack(self):
        net = _mixed_stack()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2, 8, 8))
        labels = rng.integers(0, 3, size=4)

        def loss():
            logits, _ = forward(net, x)
            return cross_entropy(logits, labels)

        _, cache = forward(net, x)
        grads = backward(net, cache, labels)
        h = 1e-6
        checked = 0
        for lname, lgrads in grads.items():
            layer = net.layer_by_name(lname)
            params = layer.params()
            for pname, g in lgrads.items():
                w = params[pname]
                flat = w.reshape(-1)
                for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss()
                    flat[idx] = orig - h
                    dn = loss()
                    flat[idx] = orig
                    num = (up - dn) / (2 * h)
                    ana = g.reshape(-1)[idx]
                    assert ana == pytest.approx(num, rel=1e-4, abs=1e-9), (lname, pname)
                    checked += 1
        assert checked >= 20

    def test_ste_blocks_gradient_outside_threshold(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=1)
        fc1 = net.layer_by_name("fc1")
        fc1.W[0, 0] = 5.0   # way past any reasonable clip
        threshold = 1.0
        table = ThresholdTable()
        table.set("fc1", "INT4", threshold, 4.0)
        table.set("out", "INT4", float(np.max(np.abs(net.layer_by_name("out").W))), None)
        x = np.random.default_rng(2).normal(size=(8, 1, 1, 4))
        archs = {"fc1": arch_for("INT4"), "out": arch_for("INT4")}
        _, cache = forward(net, x, archs, QuantPhase(weight_quant=True), table)
        grads = backward(net, cache, np.zeros(8, dtype=int))
        outside = np.abs(fc1.W) > threshold
        assert outside.any()
        assert np.all(grads["fc1"]["W"][outside] == 0.0)
        assert np.any(grads["fc1"]["W"][~outside] != 0.0)

    def test_act_quant_needs_threshold_table(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        x = np.zeros((2, 1, 1, 4))
        archs = {"fc1": arch_for("INT4"), "out": arch_for("INT4")}
        with pytest.raises(DomainError, match="threshold"):
            forward(net, x, archs, QuantPhase(True, True), thresholds=None)

    def test_missing_arch_for_searchable_layer(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        x = np.zeros((2, 1, 1, 4))
        with pytest.raises(DomainError, match="fc1"):
            forward(net, x, {"out": arch_for("BF16")}, QuantPhase(True, False),
                    ThresholdTable())

    def test_input_shape_mismatch(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        with pytest.raises(DomainError, match="input shape"):
            forward(net, np.zeros((2, 1, 1, 5)))

    def test_wide_int_weight_view_near_identity(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=3)
        fc1 = net.layer_by_name("fc1")
        fmt = int_format(24)
        t = float(np.max(np.abs(fc1.W)))
        wq, _ = fc1.quant_weight(fc1.W, fmt, t, active=True)
        rel = np.linalg.norm(wq - fc1.W) / np.linalg.norm(fc1.W)
        assert rel < 1e-4

    def test_accuracy_helper(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestTraining:
    def test_loss_halves_in_200_steps(self):
        net = build_model("mlp-1x16", input_shape=(1, 1, 16), classes=2, seed=0)
        x, y = _two_blob_batch()
        state = SGDState()
        logits, cache = forward(net, x)
        first = cross_entropy(logits, y)
        for _ in range(200):
            logits, cache = forward(net, x)
            sgd_step(net, backward(net, cache, y), state, lr=0.05)
        logits, _ = forward(net, x)
        final = cross_entropy(logits, y)
        assert final < 0.5 * first
        assert accuracy(logits, y) > 0.9

    def test_momentum_hand_example(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=0)
        fc1 = net.layer_by_name("fc1")
        w0 = fc1.W.copy()
        ones = {"fc1": {"W": np.ones_like(fc1.W)}}
        state = SGDState()
        sgd_step(net, ones, state, lr=0.1, momentum=0.9)
        sgd_step(net, ones, state, lr=0.1, momentum=0.9)
        # v1 = 1, v2 = 1.9; total step = -0.1 * (1 + 1.9) = -0.29
        assert np.allclose(fc1.W, w0 - 0.29)

    def test_zero_lr_is_identity(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=0)
        w0 = net.layer_by_name("fc1").W.copy()
        grads = {"fc1": {"W": np.ones_like(w0)}}
        sgd_step(net, grads, SGDState(), lr=0.0)
        assert np.array_equal(net.layer_by_name("fc1").W, w0)

    def test_weight_decay_skips_biases(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=0)
        fc1 = net.layer_by_name("fc1")
        fc1.b[:] = 1.0
        w0, b0 = fc1.W.copy(), fc1.b.copy()
        zero = {"fc1": {"W": np.zeros_like(fc1.W), "b": np.zeros_like(fc1.b)}}
        sgd_step(net, zero, SGDState(), lr=0.1, momentum=0.0, weight_decay=0.01)
        assert np.all(np.abs(fc1.W) < np.abs(w0))
        assert np.array_equal(fc1.b, b0)


class TestThresholds:
    def _calib_batches(self, net, n=4, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield rng.normal(size=(32, *net.input_shape)), None

    def test_profile_matches_direct_stats(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        batches = list(self._calib_batches(net))
        table = profile_thresholds(net, iter(batches), ["INT4", "INT8", "BF16"])

        # recompute the activation std by hand from the same batches
        acts = []
        for images, _ in batches:
            _, cache = forward(net, images)
            ctx = next(c for c in cache["layers"]
                       if c["layer"].startswith("relu"))
            acts.append(ctx["pre_quant"].ravel())
        std = float(np.std(np.concatenate(acts)))

        assert table.act_threshold("fc1", int_format(4)) == pytest.approx(3.0 * std)
        assert table.act_threshold("fc1", int_format(8)) == pytest.approx(4.0 * std)
        w_max = float(np.max(np.abs(net.layer_by_name("fc1").W)))
        assert table.weight_threshold("fc1", int_format(4)) == w_max

    def test_bf16_needs_no_threshold(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        table = profile_thresholds(net, self._calib_batches(net), ["BF16"])
        assert table.weight_threshold("fc1", BF16) is None
        assert table.act_threshold("fc1", BF16) is None
        with pytest.raises(ThresholdError):
            table.weight_threshold("fc1", int_format(4))

    def test_layer_without_relu_has_no_act_threshold(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        table = profile_thresholds(net, self._calib_batches(net), ["INT4"])
        assert table.act_threshold("out", int_format(4)) is None

    def test_dead_layer_is_an_error(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        fc1 = net.layer_by_name("fc1")
        fc1.W[:] = 0.0
        fc1.b[:] = -1.0   # ReLU output identically zero
        with pytest.raises(ThresholdError, match="zero activation variance"):
            profile_thresholds(net, self._calib_batches(net), ["INT4"])

    def test_no_batches_is_an_error(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6))
        with pytest.raises(DataError):
            profile_thresholds(net, iter([]), ["INT4"])

    def test_weight_refresh_keeps_act_entries(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        table = profile_thresholds(net, self._calib_batches(net), ["INT4"])
        act_before = table.act_threshold("fc1", int_format(4))
        net.layer_by_name("fc1").W *= 2.0
        update_weight_thresholds(net, table, ["INT4"])
        assert table.weight_threshold("fc1", int_format(4)) == pytest.approx(
            float(np.max(np.abs(net.layer_by_name("fc1").W)))
        )
        assert table.act_threshold("fc1", int_format(4)) == act_before


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build_model("cnn-small", seed=9)
        round_weights_to_serving_precision(net)
        path = tmp_path / "w.bin"
        save_weights(net, path)
        other = build_model("cnn-small", seed=1)
        load_weights(other, path)
        for lname, params in net.parameters().items():
            for pname, arr in params.items():
                got = other.layer_by_name(lname).params()[pname]
                assert np.array_equal(arr, got), (lname, pname)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        with pytest.raises(DataError, match="magic"):
            load_weights(net, path)

    def test_architecture_mismatch(self, tmp_path):
        net = build_model("mlp-2x8", input_shape=(1, 1, 4))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        other = build_model("mlp-1x8", input_shape=(1, 1, 4))
        with pytest.raises(DataError, match="mismatch"):
            load_weights(other, path)

    def test_shape_mismatch(self, tmp_path):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        other = build_model("mlp-1x16", input_shape=(1, 1, 4))
        with pytest.raises(DataError, match="shape"):
            load_weights(other, path)

    def test_trailing_bytes(self, tmp_path):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_weights(net, path)

    def test_serving_round_preserves_float32_values(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4), seed=0)
        round_weights_to_serving_precision(net)
        w = net.layer_by_name("fc1").W
        assert np.array_equal(w, w.astype(np.float32).astype(np.float64))


class TestKernelBranches:
    def _branch_net(self):
        return build_model(
            {
                "name": "kb",
                "input_shape": [1, 6, 6],
                "classes": 2,
                "layers": [
                    {"type": "conv", "name": "c1", "out_channels": 2,
                     "kernel": 3, "kernel_options": [3, 5]},
                    {"type": "relu"},
                    {"type": "gap"},
                    {"type": "dense", "name": "fc", "out_features": 2},
                ],
            },
            seed=4,
        )

    def test_joint_branch_forward_averages(self):
        net = self._branch_net()
        x = np.random.default_rng(0).normal(size=(3, 1, 6, 6))
        archs = {"c1": arch_for("BF16"), "fc": arch_for("BF16")}
        y3, _ = forward(net, x, {**archs, "c1": arch_for("BF16", kernel=3)})
        y5, _ = forward(net, x, {**archs, "c1": arch_for("BF16", kernel=5)})
        yj, _ = forward(net, x, archs, joint_branches=True)
        assert not np.allclose(y3, y5)
        assert not np.allclose(yj, y3)

    def test_unknown_kernel_rejected(self):
        net = self._branch_net()
        x = np.zeros((1, 1, 6, 6))
        archs = {"c1": arch_for("BF16", kernel=7), "fc": arch_for("BF16")}
        with pytest.raises(ConfigError, match="kernel 7"):
            forward(net, x, archs)

    def test_manifest_scales_kernel_macs(self):
        net = self._branch_net()
        manifest = network_manifest(net)
        c1 = manifest.layers[0]
        base = net.layer_by_name("c1").base_macs
        assert c1.mac_table["w1_k3"] == base
        assert c1.mac_table["w1_k5"] == int(round(base * 25 / 9))


class TestLayerKernels:
    """The vectorised kernels against the loop reference in layer_reference.py."""

    # c0 has no ReLU, so the tested layer's input stays off any quantization
    # grid: a sum of grid products can cancel to 0.0 in one summation order and
    # to +-1e-17 in another, flipping the ReLU mask in one and not the other.
    # c0's weight gradient checks the tested layer's input gradient.
    CONV_NET = [
        {"type": "conv", "name": "c0", "out_channels": 3, "kernel": 1},
        {"type": "conv", "name": "c1", "out_channels": 4, "kernel": 3},
        {"type": "relu"},
        {"type": "maxpool", "size": 2},
        {"type": "flatten"},
        {"type": "dense", "name": "fc", "out_features": 3},
    ]
    DW_NET = [
        {"type": "conv", "name": "c0", "out_channels": 3, "kernel": 1},
        {"type": "depthwise_conv", "name": "dw", "kernel": 3, "kernel_options": [3, 5]},
        {"type": "relu"},
        {"type": "maxpool", "size": 2},
        {"type": "flatten"},
        {"type": "dense", "name": "fc", "out_features": 3},
    ]
    SETTINGS = [("BF16", False, False), ("INT4", True, False), ("E2M1", True, False),
                ("INT4", True, True), ("E2M1", True, True)]

    @staticmethod
    def _rel(got, want):
        return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)

    @pytest.mark.parametrize("fmt,weight_quant,act_quant", SETTINGS)
    @pytest.mark.parametrize("layers,kernel,joint", [
        ("CONV_NET", None, False),
        ("DW_NET", None, True),
        ("DW_NET", 3, False),
        ("DW_NET", 5, False),
    ])
    def test_matches_loop_reference(self, layers, kernel, joint, fmt, weight_quant,
                                    act_quant):
        layers = getattr(self, layers)
        net = build_model({"name": "k", "input_shape": [2, 6, 6], "classes": 3,
                           "layers": layers}, seed=5)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 6, 6))
        labels = rng.integers(0, 3, size=4)
        archs = {l.name: arch_for(fmt, kernel=kernel if l.kind == "depthwise_conv" else None)
                 for l in net.compute_layers()}
        table = ThresholdTable()
        limits = {}
        for l in net.compute_layers():
            w_t = 0.7 * l.max_abs_weight()
            a_t = None if l.name in ("c0", "fc") else 1.0
            table.set(l.name, fmt, w_t, a_t)
            limits[l.name] = (w_t, a_t)
        phase = QuantPhase(weight_quant, act_quant)
        logits, cache = forward(net, x, archs, phase, table, joint_branches=joint)
        grads = backward(net, cache, labels)
        want_logits, want_grads = reference_step(
            layers, net.parameters(), x, labels, archs, weight_quant, act_quant,
            limits, joint_branches=joint)
        assert self._rel(logits, want_logits) <= 1e-12
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g.keys() == want_grads[name].keys(), name
            for key, arr in g.items():
                assert self._rel(arr, want_grads[name][key]) <= 1e-12, (name, key)

    def test_maxpool_matches_reference_on_tied_input(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, size=(2, 3, 6, 6)).astype(np.float64)
        dy = rng.normal(size=(2, 3, 3, 3))
        pool = MaxPool2D("p", 2)
        ctx = {}
        y = pool.forward(x, ctx)
        dx, _ = pool.backward(dy, ctx)
        want_y, winners = maxpool_forward(x, 2)
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, maxpool_backward(x.shape, winners, dy))

    def test_maxpool_tie_goes_to_first_element(self):
        x = np.array([[[[1.0, 1.0, 2.0, 5.0],
                        [1.0, 1.0, 5.0, 4.0]]]])
        pool = MaxPool2D("p", 2)
        ctx = {}
        assert np.array_equal(pool.forward(x, ctx), [[[[1.0, 5.0]]]])
        dx, _ = pool.backward(np.array([[[[3.0, 7.0]]]]), ctx)
        assert np.array_equal(dx, [[[[3.0, 0.0, 0.0, 7.0],
                                     [0.0, 0.0, 0.0, 0.0]]]])
