import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fliqs.arch import ArchChoice
from fliqs.costmodel import (
    GBOPS,
    LayerSpec,
    ModelManifest,
    RewardParams,
    layer_cost,
    load_manifest,
    mac_table_key,
    manifest_from_dict,
    model_cost,
    resolve_macs,
    reward,
    uniform_cost,
)
from fliqs.errors import DomainError, ManifestError
from fliqs.formats import int_format, parse_format


def _arch(name):
    return ArchChoice(parse_format(name))


def _uniform_archs(manifest, name):
    return [_arch(name) if l.searchable else None for l in manifest.layers]


class TestLayerCost:
    def test_int8_1000_macs(self):
        layer = LayerSpec("l", 1000)
        assert layer_cost(layer, _arch("INT8")) == 64000.0

    def test_4bit_float_1000_macs(self):
        layer = LayerSpec("l", 1000)
        assert layer_cost(layer, _arch("E2M1")) == 16000.0

    def test_bf16_1000_macs(self):
        layer = LayerSpec("l", 1000)
        assert layer_cost(layer, _arch("BF16")) == 256000.0

    def test_quadratic_in_bitwidth(self):
        layer = LayerSpec("l", 12345)
        assert layer_cost(layer, _arch("INT8")) == 4 * layer_cost(layer, _arch("INT4"))

    def test_linear_in_macs(self):
        a = layer_cost(LayerSpec("l", 1000), _arch("INT6"))
        b = layer_cost(LayerSpec("l", 3000), _arch("INT6"))
        assert b == 3 * a


class TestMacTable:
    def _layer(self):
        return LayerSpec(
            "conv", 900, base_kernel=3,
            mac_table={"w1_k3": 900, "w0.5_k3": 450, "w1_k5": 2500},
        )

    def test_base_choice_uses_macs(self):
        layer = self._layer()
        assert resolve_macs(layer, ArchChoice(int_format(8))) == 900
        assert resolve_macs(layer, ArchChoice(int_format(8), 1.0, 3)) == 900

    def test_width_lookup(self):
        assert resolve_macs(self._layer(), ArchChoice(int_format(8), 0.5)) == 450

    def test_kernel_lookup(self):
        assert resolve_macs(self._layer(), ArchChoice(int_format(8), 1.0, 5)) == 2500

    def test_missing_entry(self):
        with pytest.raises(ManifestError):
            resolve_macs(self._layer(), ArchChoice(int_format(8), 0.25))

    def test_variant_without_table(self):
        layer = LayerSpec("conv", 900, base_kernel=3)
        with pytest.raises(ManifestError):
            resolve_macs(layer, ArchChoice(int_format(8), 0.5))

    def test_key_format(self):
        assert mac_table_key(0.5, 3) == "w0.5_k3"
        assert mac_table_key(1.0, 5) == "w1_k5"


class TestModelCost:
    def _manifest(self):
        return ModelManifest("toy", (
            LayerSpec("a", 100),
            LayerSpec("b", 200),
            LayerSpec("head", 50, searchable=False, fixed_format="BF16"),
        ))

    def test_additive_over_layers(self):
        m = self._manifest()
        total = model_cost(m, [_arch("INT4"), _arch("INT8"), None])
        assert total == 16 * 100 + 64 * 200 + 256 * 50

    def test_arity_mismatch(self):
        with pytest.raises(ManifestError):
            model_cost(self._manifest(), [_arch("INT4")])

    def test_searchable_layer_needs_choice(self):
        with pytest.raises(ManifestError):
            model_cost(self._manifest(), [None, _arch("INT8"), None])

    def test_uniform_cost_formula(self):
        m = self._manifest()
        assert uniform_cost(m, "INT8") == 64 * 350
        assert uniform_cost(m, "BF16") == 256 * 350

    def test_doubling_bitwidth_quadruples(self):
        m = self._manifest()
        assert uniform_cost(m, "INT8") == 4 * uniform_cost(m, "INT4")


class TestReward:
    def test_on_target_is_pure_quality(self):
        p = RewardParams(cost_target=1000.0, gamma=-1.0)
        assert reward(0.8, 1000.0, p) == 0.8

    def test_overshoot_penalty(self):
        p = RewardParams(cost_target=1000.0, gamma=-1.0)
        assert reward(0.8, 1500.0, p) == pytest.approx(0.3)

    def test_undershoot_penalized_symmetrically(self):
        p = RewardParams(cost_target=1000.0, gamma=-1.0)
        assert reward(0.8, 500.0, p) == reward(0.8, 1500.0, p)

    def test_gamma_scales_penalty(self):
        half = RewardParams(cost_target=1000.0, gamma=-0.5)
        assert reward(0.8, 1500.0, half) == pytest.approx(0.55)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 1),
        st.floats(0.01, 10),
        st.floats(0.01, 10),
    )
    @example(0.5, 0.01, 0.010000000000000002)  # one float cost
    # costs one ulp apart that reward rounds to one value
    @example(0.007091828603166261, 2.747743402251045, 2.7477434022510456)
    def test_monotone_in_cost_deviation(self, q, d1, d2):
        p = RewardParams(cost_target=1000.0, gamma=-1.0)
        lo, hi = sorted([d1, d2])
        near, far = 1000.0 * (1 + lo), 1000.0 * (1 + hi)
        if near == far:
            return  # distinct deviations can round to one float cost
        r_near = reward(q, near, p)
        r_far = reward(q, far, p)
        if far - near > 1e-9:
            assert r_far < r_near
        else:
            # costs a few ulps apart: reward's own rounding can tie them, but
            # correctly rounded arithmetic never reverses them
            assert r_far <= r_near

    def test_quality_range_enforced(self):
        p = RewardParams(cost_target=1.0)
        with pytest.raises(DomainError):
            reward(1.5, 1.0, p)
        with pytest.raises(DomainError):
            reward(-0.1, 1.0, p)

    def test_negative_cost_rejected(self):
        with pytest.raises(DomainError):
            reward(0.5, -1.0, RewardParams(cost_target=1.0))

    def test_target_must_be_positive(self):
        with pytest.raises(DomainError):
            RewardParams(cost_target=0.0)


class TestManifestSchema:
    def test_minimal_round_trip(self):
        doc = {"model_name": "m", "layers": [{"name": "a", "macs": 10}]}
        m = manifest_from_dict(doc)
        assert m.name == "m"
        assert m.layers[0].searchable

    def test_empty_layers_rejected(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": []})

    def test_duplicate_names_rejected(self):
        doc = {"model_name": "m", "layers": [
            {"name": "a", "macs": 10}, {"name": "a", "macs": 20},
        ]}
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": [], "extra": 1})
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": [
                {"name": "a", "macs": 10, "foo": 1},
            ]})

    def test_nonsearchable_needs_fixed_format(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": [
                {"name": "a", "macs": 10, "searchable": False},
            ]})

    def test_bad_macs_rejected(self):
        for macs in (0, -5, 1.5, "10"):
            with pytest.raises(ManifestError):
                manifest_from_dict({"model_name": "m", "layers": [
                    {"name": "a", "macs": macs},
                ]})

    def test_identity_entry_must_match(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": [
                {"name": "a", "macs": 100, "base_kernel": 3,
                 "mac_table": {"w1_k3": 99}},
            ]})

    def test_bad_fixed_format_rejected(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"model_name": "m", "layers": [
                {"name": "a", "macs": 10, "searchable": False,
                 "fixed_format": "INT99"},
            ]})


class TestBundledManifests:
    def test_names(self):
        files = resources.files("fliqs.manifests").iterdir()
        names = sorted(f.name[: -len(".json")] for f in files if f.name.endswith(".json"))
        assert names == ["mobilenetv2", "resnet18"]
        for name in names:
            assert load_manifest(name).layers

    def test_resnet18_shape(self):
        m = load_manifest("resnet18")
        assert len(m.layers) == 21
        names = m.layer_names()
        assert names[0] == "conv1"
        assert names[-1] == "fc"
        assert sum(1 for n in names if n != "fc") == 20

    def test_mobilenetv2_shape(self):
        m = load_manifest("mobilenetv2")
        assert len(m.layers) == 53

    def test_resnet18_uniform_gbops(self):
        m = load_manifest("resnet18")
        for fmt, target in (("BF16", 467.7), ("INT8", 116.9), ("INT4", 29.23)):
            got = model_cost(m, _uniform_archs(m, fmt)) / GBOPS
            assert abs(got / target - 1.0) < 0.01, (fmt, got)

    def test_mobilenetv2_uniform_gbops(self):
        m = load_manifest("mobilenetv2")
        for fmt, target in (("BF16", 77.00), ("INT8", 19.25), ("INT4", 4.81)):
            got = model_cost(m, _uniform_archs(m, fmt)) / GBOPS
            assert abs(got / target - 1.0) < 0.01, (fmt, got)

    def test_load_from_path(self, tmp_path):
        doc = {"model_name": "m", "layers": [{"name": "a", "macs": 10}]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        assert load_manifest(p).name == "m"
        assert load_manifest(doc).name == "m"

    def test_missing_source(self):
        with pytest.raises(ManifestError):
            load_manifest("no-such-model")

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(p)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
def test_uniform_cost_equals_bitwidth_squared_times_macs(mac_list):
    layers = tuple(LayerSpec(f"l{i}", m) for i, m in enumerate(mac_list))
    manifest = ModelManifest("m", layers)
    for name, bits in (("INT4", 4), ("E4M3", 8), ("BF16", 16)):
        expected = float(bits * bits * sum(mac_list))
        assert uniform_cost(manifest, name) == expected
        assert model_cost(manifest, [_arch(name)] * len(layers)) == expected
