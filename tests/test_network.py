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
    Network,
    QuantPhase,
    Quantizer,
    ReLU,
    SGDState,
    ThresholdTable,
    accuracy,
    backward,
    build_model,
    builtin_model_config,
    cross_entropy,
    fake_quant,
    forward,
    load_weight_arrays,
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
        table.set_weight("fc1", 10.0)
        table.set_act("fc1", "INT8", 10.0)
        logits, cache = forward(net, x, archs, QuantPhase(True, False), table)
        fc1_cache = cache.layers[net.layers.index(net.layer_by_name("fc1"))]
        assert fc1_cache.mask is not None
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
        table.set_weight("fc1", threshold)
        table.set_act("fc1", "INT4", 4.0)
        table.set_weight("out", float(np.max(np.abs(net.layer_by_name("out").W))))
        table.set_act("out", "INT4", None)
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
        wq, _ = fake_quant(fc1.W, Quantizer(fmt, t))
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
            relu_cache = next(c for l, c in zip(net.layers, cache.layers) if l.kind == "relu")
            acts.append(relu_cache.pre_quant.ravel())
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
        update_weight_thresholds(net, table)
        assert table.weight_threshold("fc1", int_format(4)) == pytest.approx(
            float(np.max(np.abs(net.layer_by_name("fc1").W)))
        )
        assert table.act_threshold("fc1", int_format(4)) == act_before


    def test_one_weight_threshold_per_layer(self):
        net = build_model("mlp-1x8", input_shape=(1, 1, 6), seed=2)
        table = profile_thresholds(net, self._calib_batches(net), ["INT4", "INT8"])
        net.layer_by_name("fc1").W *= 2.0
        update_weight_thresholds(net, table)
        w_max = float(np.max(np.abs(net.layer_by_name("fc1").W)))
        assert table.weight_threshold("fc1", int_format(4)) == w_max
        assert table.weight_threshold("fc1", int_format(8)) == w_max
        with pytest.raises(ThresholdError, match="INT6"):
            table.weight_threshold("fc1", int_format(6))


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

    @pytest.mark.parametrize("cut", [2, 10, 30, -8, -1])
    def test_truncated_checkpoint(self, tmp_path, cut):
        net = build_model("mlp-1x8", input_shape=(1, 1, 4))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataError, match="truncated|magic"):
            load_weight_arrays(path)

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_weight_arrays(tmp_path / "absent.bin")

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
    # a conv with kernel search: 3 input channels, the k=5 branch and the joint average
    CONV_KB_NET = [
        {"type": "conv", "name": "c0", "out_channels": 3, "kernel": 1},
        {"type": "conv", "name": "c1", "out_channels": 4, "kernel": 3, "kernel_options": [3, 5]},
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
        ("CONV_KB_NET", 5, False),
        ("CONV_KB_NET", None, True),
    ])
    def test_matches_loop_reference(self, layers, kernel, joint, fmt, weight_quant,
                                    act_quant):
        layers = getattr(self, layers)
        net = build_model({"name": "k", "input_shape": [2, 6, 6], "classes": 3,
                           "layers": layers}, seed=5)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 6, 6))
        labels = rng.integers(0, 3, size=4)
        archs = {l.name: arch_for(fmt, kernel=kernel if l.kernel_options else None)
                 for l in net.compute_layers()}
        table = ThresholdTable()
        limits = {}
        for l in net.compute_layers():
            w_t = 0.7 * l.max_abs_weight()
            a_t = None if l.name in ("c0", "fc") else 1.0
            table.set_weight(l.name, w_t)
            table.set_act(l.name, fmt, a_t)
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
        y, cache = pool.forward(x)
        dx, _ = pool.backward(dy, cache)
        want_y, winners = maxpool_forward(x, 2)
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, maxpool_backward(x.shape, winners, dy))

    def test_maxpool_tie_goes_to_first_element(self):
        x = np.array([[[[1.0, 1.0, 2.0, 5.0],
                        [1.0, 1.0, 5.0, 4.0]]]])
        pool = MaxPool2D("p", 2)
        y, cache = pool.forward(x)
        assert np.array_equal(y, [[[[1.0, 5.0]]]])
        dx, _ = pool.backward(np.array([[[[3.0, 7.0]]]]), cache)
        assert np.array_equal(dx, [[[[3.0, 0.0, 0.0, 7.0],
                                     [0.0, 0.0, 0.0, 0.0]]]])


class TestInferenceForward:
    """forward(train=False) keeps no backward state and gives the training forward's bits."""

    # the bench nas-fp layout: depthwise-separable, kernel options on dw2, widths on pw1
    DS_NET = {
        "name": "ds-net", "input_shape": [1, 28, 28], "classes": 10,
        "layers": [
            {"type": "conv", "name": "stem", "out_channels": 8, "kernel": 3},
            {"type": "relu"}, {"type": "maxpool", "size": 2},
            {"type": "depthwise_conv", "name": "dw1", "kernel": 3}, {"type": "relu"},
            {"type": "conv", "name": "pw1", "out_channels": 16, "kernel": 1,
             "width_options": [0.5, 0.75]},
            {"type": "relu"}, {"type": "maxpool", "size": 2},
            {"type": "depthwise_conv", "name": "dw2", "kernel": 3, "kernel_options": [3, 5]},
            {"type": "relu"}, {"type": "flatten"},
            {"type": "dense", "name": "fc1", "out_features": 64}, {"type": "relu"},
            {"type": "dense", "name": "fc", "out_features": 10},
        ],
    }
    SPACES = {"int": ("INT4", "INT8", "BF16"), "fp": ("E2M1", "E4M3", "BF16")}
    PHASES = (QuantPhase(), QuantPhase(True, False), QuantPhase(True, True))

    @classmethod
    def _case(cls, model):
        """(net with nonzero biases, images with many tied pixels, labels, width and kernel)."""
        rng = np.random.default_rng(4)
        if model == "mlp-2x16":
            net = build_model(model, seed=2)
            x, labels = _two_blob_batch(n=16)
            shape = {}
        else:
            net = build_model(cls.DS_NET if model == "ds-net" else model, seed=2)
            # three pixel levels: max-pool windows tie from the first layer on
            x = rng.integers(0, 3, size=(8, 1, 28, 28)) / 2.0
            labels = rng.integers(0, 10, size=8)
            shape = {"pw1": (0.5, None), "dw2": (1.0, 5)}
        for params in net.parameters().values():
            params["b"][...] = rng.normal(scale=0.1, size=params["b"].shape)
        return net, x, labels, shape

    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("model", ["cnn-small", "ds-net", "mlp-2x16"])
    def test_logits_match_the_training_forward(self, model, space):
        net, x, labels, shape = self._case(model)
        fmts = self.SPACES[space]
        table = profile_thresholds(net, [(x, labels)], fmts, n_batches=1)
        for fmt in fmts:
            archs = {l.name: arch_for(fmt, *shape.get(l.name, (1.0, None)))
                     for l in net.searchable_layers()}
            for phase in self.PHASES:
                want, cache = forward(net, x, archs, phase, table)
                got, none = forward(net, x, archs, phase, table, train=False)
                assert cache is not None and none is None
                assert got.tobytes() == want.tobytes(), (fmt, phase)

    def test_maxpool_ties_give_the_first_max_bits(self):
        rng = np.random.default_rng(3)
        pool = MaxPool2D("p", 2)
        for x in (rng.integers(0, 3, size=(2, 3, 6, 6)) / 2.0,
                  np.zeros((1, 2, 4, 4)),
                  np.transpose(rng.integers(-2, 3, size=(2, 6, 6, 3)), (0, 3, 1, 2)) * 0.25):
            want, _ = pool.forward(x)
            got, none = pool.forward(x, train=False)
            assert none is None and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_layers_build_no_cache(self):
        net, x, labels, _ = self._case("cnn-small")
        int4 = resolve_format("INT4")
        table = profile_thresholds(net, [(x, labels)], [int4], n_batches=1)
        for layer in net.layers:
            if layer.is_compute:
                quant = Quantizer(int4, table.weight_threshold(layer.name, int4))
                y, cache = layer.forward(x, arch_for(int4), quant, train=False)
            elif layer.kind == "relu":
                quant = Quantizer(int4, table.act_threshold(layer.owner, int4))
                y, cache = layer.forward(x, quant, train=False)
            elif layer.kind == "maxpool":
                y, cache = layer.forward(x, train=False)
            else:
                y, cache = layer.forward(x)[0], None
            assert cache is None, layer.name
            x = y
        w = net.layers[0].weights[3]
        assert fake_quant(w, Quantizer(int4, 0.1), train=False)[1] is None
        assert fake_quant(w, Quantizer(int4, 0.1))[1] is not None


class TestPooledOrder:
    """Inference runs each ReLU -> MaxPool2D pair pool first; training keeps ReLU then pool.

    Max pooling commutes with ReLU and every quantizer (all non-decreasing), so
    TestInferenceForward's byte checks cover the values; this checks what runs.
    """

    @staticmethod
    def _calls(net, x, train, monkeypatch):
        """[(layer name, input shape)] of every ReLU and MaxPool2D forward, in call order."""
        calls = []
        for cls in (ReLU, MaxPool2D):
            def spy(self, x, *args, _orig=cls.forward, **kwargs):
                calls.append((self.name, x.shape))
                return _orig(self, x, *args, **kwargs)
            monkeypatch.setattr(cls, "forward", spy)
        fmt = resolve_format("INT4")
        table = profile_thresholds(net, [(x, np.zeros(len(x), dtype=int))], [fmt], n_batches=1)
        archs = {l.name: arch_for(fmt) for l in net.searchable_layers()}
        calls.clear()  # profiling runs a training forward of its own
        forward(net, x, archs, QuantPhase(True, True), table, train=train)
        return calls

    @staticmethod
    def _pairs(net):
        """(ReLU, MaxPool2D) layers that follow one another directly."""
        layers = net.layers
        return [(a, b) for a, b in zip(layers, layers[1:])
                if a.kind == "relu" and b.kind == "maxpool"]

    @pytest.mark.parametrize("model", ["cnn-small", "ds-net"])
    def test_inference_pools_before_the_relu(self, model, monkeypatch):
        net, x, _, _ = TestInferenceForward._case(model)
        in_shape = dict(self._calls(net, x, True, monkeypatch))
        calls = self._calls(net, x, False, monkeypatch)
        names = [name for name, _ in calls]
        pairs = self._pairs(net)
        assert len(pairs) == 2
        for relu, pool in pairs:
            n, c, h, w = in_shape[relu.name]
            assert names.count(pool.name) == 1 and names.count(relu.name) == 1
            assert names.index(pool.name) < names.index(relu.name)
            assert dict(calls)[pool.name] == (n, c, h, w)
            assert dict(calls)[relu.name] == (n, c, h // pool.size, w // pool.size)
        lone = [l.name for l in net.layers if l.kind == "relu" and l not in dict(pairs)]
        assert lone and all(dict(calls)[name] == in_shape[name] for name in lone)

    @pytest.mark.parametrize("model", ["cnn-small", "ds-net"])
    def test_training_keeps_relu_then_pool(self, model, monkeypatch):
        net, x, _, _ = TestInferenceForward._case(model)
        calls = self._calls(net, x, True, monkeypatch)
        assert [name for name, _ in calls] == [l.name for l in net.layers
                                              if l.kind in ("relu", "maxpool")]
        for relu, pool in self._pairs(net):
            assert dict(calls)[pool.name] == dict(calls)[relu.name]


class TestFirstLayerBackward:
    """backward asks the first compute layer for weight gradients only; no gradient changes."""

    @staticmethod
    def _dense_first_case():
        """An MLP with no flatten: its first layer is a dense layer."""
        rng = np.random.default_rng(4)
        net = Network("dense-first", [Dense("fc1", 16, 16), ReLU("relu1", owner="fc1"),
                                      Dense("out", 16, 2)], (16,), 2)
        for layer in net.layers:
            layer.init(rng)
            for array in layer.params().values():
                array[...] += rng.normal(scale=0.1, size=array.shape)
        x, labels = _two_blob_batch(n=16)
        return net, x.reshape(16, 16), labels, {}

    @staticmethod
    def _every_layer_backward(net, cache, labels):
        """The reference: every layer's backward, the first one's input gradient included."""
        n = len(labels)
        e = np.exp(cache.logits - cache.logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        dy = p / n
        grads = {}
        for layer, layer_cache in zip(reversed(net.layers), reversed(cache.layers)):
            dy, g = layer.backward(dy, layer_cache)
            if g:
                grads[layer.name] = g
        return grads

    @pytest.mark.parametrize("space", sorted(TestInferenceForward.SPACES))
    @pytest.mark.parametrize("model,joint", [("cnn-small", False), ("ds-net", False),
                                             ("ds-net", True), ("mlp-2x16", False),
                                             ("dense-first", False)])
    def test_gradients_keep_their_bytes(self, model, joint, space, monkeypatch):
        if model == "dense-first":
            net, x, labels, shape = self._dense_first_case()
        else:
            net, x, labels, shape = TestInferenceForward._case(model)
        fmts = TestInferenceForward.SPACES[space]
        table = profile_thresholds(net, [(x, labels)], fmts, n_batches=1)
        asked = []
        for cls in {type(l) for l in net.compute_layers()}:
            def spy(self, dy, cache, input_grad=True, _orig=cls.backward):
                asked.append((self.name, input_grad))
                return _orig(self, dy, cache, input_grad)
            monkeypatch.setattr(cls, "backward", spy)
        first = net.compute_layers()[0].name
        for fmt in fmts:
            archs = {l.name: arch_for(fmt, *shape.get(l.name, (1.0, None)))
                     for l in net.searchable_layers()}
            for phase in TestInferenceForward.PHASES:
                _, cache = forward(net, x, archs, phase, table, joint_branches=joint)
                asked.clear()
                got = backward(net, cache, labels)
                assert asked[-1] == (first, False)
                assert all(input_grad for _, input_grad in asked[:-1])
                want = self._every_layer_backward(net, cache, labels)
                assert list(got) == list(want)
                for name, g in got.items():
                    assert list(g) == list(want[name]), name
                    for key, arr in g.items():
                        assert arr.tobytes() == want[name][key].tobytes(), (fmt, phase, name, key)


class TestInputsUnchanged:
    """Kernels write only into arrays they allocated: inputs and masters stay as they were."""

    NET = {
        "name": "pool-first", "input_shape": [2, 8, 8], "classes": 3,
        # max pooling and a ReLU meet the caller's array first
        "layers": [
            {"type": "maxpool", "size": 2}, {"type": "relu"},
            {"type": "conv", "name": "c1", "out_channels": 4, "kernel": 3,
             "width_options": [0.5]},
            {"type": "relu"}, {"type": "depthwise_conv", "name": "dw", "kernel": 3},
            {"type": "relu"}, {"type": "flatten"},
            {"type": "dense", "name": "fc", "out_features": 3, "width_options": [0.5]},
        ],
    }

    @pytest.mark.parametrize("fmt", ["INT4", "E4M3", "BF16"])
    @pytest.mark.parametrize("train", [True, False])
    def test_quantized_forward_leaves_input_and_masters(self, fmt, train):
        net = build_model(self.NET, seed=1)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2, 8, 8))
        labels = rng.integers(0, 3, size=4)
        table = profile_thresholds(net, [(x, labels)], [fmt], n_batches=1)
        archs = {l.name: arch_for(fmt, 0.5 if l.width_options else 1.0)
                 for l in net.searchable_layers()}
        masters = {f"{l}/{k}": a.copy() for l, p in net.parameters().items()
                   for k, a in p.items()}
        x_before = x.copy()
        forward(net, x, archs, QuantPhase(True, True), table, train=train)
        assert x.tobytes() == x_before.tobytes()
        for l, p in net.parameters().items():
            for k, a in p.items():
                assert a.tobytes() == masters[f"{l}/{k}"].tobytes(), (l, k)
