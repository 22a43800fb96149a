import ctypes
import io
import json
import resource
import sys
import weakref

import numpy as np
import pytest

import fliqs.network as network
import fliqs.search as search
from fliqs.arch import arch_for
from fliqs.data import BatchPlan, Dataset, write_idx
from fliqs.errors import ConfigError, SearchAbort
from fliqs.search import (
    ControllerConfig,
    SearchConfig,
    TrainerConfig,
    build_dataset,
    run_search,
    run_static,
    run_uniform,
    search_config_from_dict,
    search_config_to_dict,
    serve_config,
    served_accuracy_from_files,
    trace_header,
    write_trace_csv,
)

BLOBS = {"kind": "blobs", "classes": 4, "dims": 12, "n_per_class": 150,
         "separation": 4.0}


def _cfg(**overrides) -> SearchConfig:
    base = dict(
        model="mlp-2x16",
        data=dict(BLOBS),
        search_space="FLIQS-S-int",
        total_steps=600,
        cost_target_gbops=2.048e-5,
        controller=ControllerConfig(lr=0.02),
        trainer=TrainerConfig(batch_size=64, lr=0.05),
        seed=0,
    )
    base.update(overrides)
    return SearchConfig(**base)


@pytest.fixture(scope="module")
def search_result():
    return run_search(_cfg())


def _trace_csv(result) -> str:
    buf = io.StringIO()
    write_trace_csv(result.trace, result.layer_names, buf)
    return buf.getvalue()


class TestTrace:
    def test_one_record_per_step(self, search_result):
        res = search_result
        assert len(res.trace) == res.config.total_steps
        assert [rec.step for rec in res.trace] == list(range(600))

    def test_every_record_fully_populated(self, search_result):
        res = search_result
        for rec in res.trace:
            assert np.isfinite([rec.reward, rec.quality, rec.cost_gbops,
                                rec.entropy, rec.beta, rec.loss,
                                rec.advantage, rec.switch_rms]).all()
            assert 0.0 <= rec.quality <= 1.0
            assert rec.act_quant in (0, 1)
            for n in res.layer_names:
                assert rec.sampled[n]
                assert rec.argmax[n]
                assert 0.0 < rec.max_prob[n] <= 1.0

    def test_header_layout(self, search_result):
        res = search_result
        header = trace_header(res.layer_names)
        assert header[:10] == ["step", "reward", "quality", "cost_gbops",
                               "entropy", "beta", "loss", "advantage",
                               "switch_rms", "act_quant"]
        assert header[10:] == (
            [f"arch_{n}" for n in res.layer_names]
            + [f"argmax_{n}" for n in res.layer_names]
            + [f"maxprob_{n}" for n in res.layer_names]
        )
        csv = _trace_csv(res)
        rows = csv.strip().split("\n")
        assert rows[0] == ",".join(header)
        assert len(rows) == 601
        assert all(len(r.split(",")) == len(header) for r in rows[1:])

    def test_csv_floats_round_trip(self, search_result):
        res = search_result
        rows = _trace_csv(res).strip().split("\n")
        first = rows[1].split(",")
        assert float(first[1]) == res.trace[0].reward
        assert float(first[6]) == res.trace[0].loss

    def test_policies_untouched_during_warmup(self, search_result):
        res = search_result
        assert res.warmup_steps == 150
        for rec in res.trace[: res.warmup_steps]:
            for n in res.layer_names:
                assert rec.max_prob[n] == pytest.approx(1 / 3, abs=1e-12)
        moved = [rec for rec in res.trace[res.warmup_steps :]
                 if any(rec.max_prob[n] != pytest.approx(1 / 3) for n in res.layer_names)]
        assert moved

    def test_act_quant_flag_flips_at_schedule_point(self, search_result):
        res = search_result
        act_start = int(round(0.2 * 600))
        for rec in res.trace:
            assert rec.act_quant == (1 if rec.step >= act_start else 0)

    def test_beta_follows_cosine_anneal(self, search_result):
        res = search_result
        assert res.trace[0].beta == 0.0
        betas = [rec.beta for rec in res.trace]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
        assert betas[-1] < 0.5  # progress never reaches exactly 1.0

    def test_sampling_settles_onto_argmax(self, search_result):
        # late-run sampled architectures disagree with the argmax less often
        # than just after warmup: the entropy anneal stabilizes the policy
        res = search_result
        def disagreements(lo, hi):
            return sum(
                rec.sampled[n] != rec.argmax[n]
                for rec in res.trace[lo:hi]
                for n in res.layer_names
            )
        mid = disagreements(180, 240)     # 30..40% of the run
        late = disagreements(540, 600)    # last 10%
        assert late < mid

    def test_entropy_decreases_overall(self, search_result):
        res = search_result
        assert res.trace[-1].entropy < res.trace[0].entropy


class TestSearchRun:
    def test_serves_argmax_architecture(self, search_result):
        res = search_result
        last = res.trace[-1]
        assert {n: a.label for n, a in res.final_archs.items()} == last.argmax

    def test_final_probs_normalized(self, search_result):
        res = search_result
        for n in res.layer_names:
            assert sum(res.final_probs[n].values()) == pytest.approx(1.0)
            best = max(res.final_probs[n], key=res.final_probs[n].get)
            assert best == res.final_archs[n].label

    def test_served_metrics_sane(self, search_result):
        res = search_result
        assert 0.5 < res.served_accuracy <= 1.0
        assert res.served_cost_gbops > 0

    def test_result_doc_contents(self, search_result):
        doc = search_result.result_doc()
        assert doc["mode"] == "search"
        assert doc["warmup_steps"] == 150
        assert doc["served_accuracy"] == search_result.served_accuracy
        assert set(doc["final_archs"]) == set(search_result.layer_names)
        json.dumps(doc)  # must be serializable as-is

    def test_identical_config_reproduces_run_exactly(self):
        a = run_search(_cfg(total_steps=80))
        b = run_search(_cfg(total_steps=80))
        assert _trace_csv(a) == _trace_csv(b)
        assert a.served_accuracy == b.served_accuracy
        assert a.final_archs == b.final_archs

    def test_different_seed_changes_run(self):
        a = run_search(_cfg(total_steps=80))
        b = run_search(_cfg(total_steps=80, seed=1))
        assert _trace_csv(a) != _trace_csv(b)

    def test_serve_round_trip(self, search_result, tmp_path):
        from fliqs.network import save_weights

        res = search_result
        doc = json.loads(json.dumps(serve_config(res)))
        wpath = tmp_path / "weights.bin"
        save_weights(res.net, wpath)
        ds = build_dataset(res.config.data, res.config.seed)
        plan = BatchPlan(res.config.trainer.batch_size, res.config.seed,
                         res.config.trainer.validation_fraction)
        again = served_accuracy_from_files(doc, wpath, ds, plan)
        assert again == res.served_accuracy

    def test_pinned_quantized_layer_serves_from_files(self, tmp_path):
        from fliqs.network import builtin_model_config, save_weights

        model = builtin_model_config("mlp-2x16", input_shape=[12], classes=4)
        fc1 = next(l for l in model["layers"] if l.get("name") == "fc1")
        fc1.update(searchable=False, fixed_format="INT8")
        res = run_search(_cfg(model=model, total_steps=80, seed=3))
        assert res.layer_names == ["fc2", "out"]
        doc = json.loads(json.dumps(serve_config(res)))
        by_name = {e["name"]: e for e in doc["layers"]}
        assert by_name["fc1"]["format"] == "INT8"
        assert by_name["fc1"]["weight_threshold"] > 0
        wpath = tmp_path / "weights.bin"
        save_weights(res.net, wpath)
        ds = build_dataset(res.config.data, res.config.seed)
        plan = BatchPlan(res.config.trainer.batch_size, res.config.seed,
                         res.config.trainer.validation_fraction)
        assert served_accuracy_from_files(doc, wpath, ds, plan) == res.served_accuracy

    def test_serve_config_carries_thresholds(self, search_result):
        doc = serve_config(search_result)
        assert doc["weights_file"] == "weights.bin"
        for entry in doc["layers"]:
            if entry["format"] == "BF16":
                assert entry["weight_threshold"] is None
            else:
                assert entry["weight_threshold"] > 0
                assert entry["act_threshold"] is None or entry["act_threshold"] > 0

    def test_search_needs_cost_target(self):
        with pytest.raises(ConfigError, match="cost_target_gbops"):
            run_search(_cfg(cost_target_gbops=None))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_preserves_partial_trace(self):
        cfg = _cfg(total_steps=50, trainer=TrainerConfig(batch_size=64, lr=1e12))
        with pytest.raises(SearchAbort) as err:
            run_search(cfg)
        abort = err.value
        assert "aborted at step" in str(abort)
        assert abort.step == len(abort.trace)
        assert 0 < abort.step < 50

    def test_empty_validation_split_rejected(self):
        cfg = _cfg(total_steps=5,
                   trainer=TrainerConfig(batch_size=16, validation_fraction=0.0))
        with pytest.raises(ConfigError, match="validation split is empty"):
            run_search(cfg)


class TestStaticAndUniform:
    ARCHS = {
        "fc1": arch_for("INT8"),
        "fc2": arch_for("INT4"),
        "out": arch_for("INT8"),
    }

    def test_static_run_uses_fixed_assignment(self):
        res = run_static(_cfg(total_steps=40, cost_target_gbops=None), self.ARCHS)
        assert res.mode == "static"
        assert res.final_archs == self.ARCHS
        for rec in res.trace:
            assert rec.sampled == {n: a.label for n, a in self.ARCHS.items()}
            assert rec.entropy == 0.0
            assert all(p == 1.0 for p in rec.max_prob.values())
        # mlp-2x16 on 12 dims: 192, 256, 64 MACs at 64/16/64 BOPs per MAC
        assert res.served_cost == 192 * 64 + 256 * 16 + 64 * 64

    def test_static_needs_every_searchable_layer(self):
        partial = {"fc1": arch_for("INT8")}
        with pytest.raises(ConfigError, match="one arch per searchable layer"):
            run_static(_cfg(total_steps=10), partial)

    def test_uniform_run(self):
        res = run_uniform(_cfg(total_steps=40, cost_target_gbops=None), "INT4")
        assert res.mode == "uniform"
        assert all(a.label == "INT4" for a in res.final_archs.values())
        assert res.served_cost == 512 * 16

    def test_uniform_format_from_config(self):
        res = run_uniform(_cfg(total_steps=40, cost_target_gbops=None,
                               format="INT8"))
        assert all(a.label == "INT8" for a in res.final_archs.values())

    def test_uniform_needs_format(self):
        with pytest.raises(ConfigError, match="uniform runs need a format"):
            run_uniform(_cfg(total_steps=10, format=None))

    def test_static_has_no_warmup(self):
        res = run_static(_cfg(total_steps=40, cost_target_gbops=None), self.ARCHS)
        assert res.warmup_steps == 0


class TestModelDataBinding:
    def test_explicit_model_shape_must_match_data(self):
        model = {
            "name": "tiny",
            "input_shape": [1, 1, 8],
            "classes": 4,
            "layers": [
                {"type": "flatten"},
                {"type": "dense", "name": "fc1", "out_features": 8},
                {"type": "relu"},
                {"type": "dense", "name": "out", "out_features": 4},
            ],
        }
        with pytest.raises(ConfigError, match="model expects input"):
            run_search(_cfg(model=model, total_steps=10))

    def test_explicit_model_classes_must_match_data(self):
        model = {
            "name": "tiny",
            "input_shape": [1, 1, 12],
            "classes": 3,
            "layers": [
                {"type": "flatten"},
                {"type": "dense", "name": "fc1", "out_features": 8},
                {"type": "relu"},
                {"type": "dense", "name": "out", "out_features": 3},
            ],
        }
        with pytest.raises(ConfigError, match="classes"):
            run_search(_cfg(model=model, total_steps=10))


class TestBuildDataset:
    def test_blobs_defaults(self):
        ds = build_dataset({"kind": "blobs"}, seed=0)
        assert ds.classes == 10
        assert ds.images.shape == (2000, 1, 1, 16)

    def test_seed_flows_through(self):
        a = build_dataset(dict(BLOBS), seed=0)
        b = build_dataset(dict(BLOBS), seed=0)
        c = build_dataset(dict(BLOBS), seed=1)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown data kind"):
            build_dataset({"kind": "cifar"}, seed=0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_dataset({"kind": "blobs", "noise": 0.1}, seed=0)

    def test_idx_missing_paths(self):
        with pytest.raises(ConfigError, match="missing key"):
            build_dataset({"kind": "idx"}, seed=0)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="'kind'"):
            build_dataset({}, seed=0)


class TestConfigSerialization:
    def test_empty_doc_gives_defaults(self):
        assert search_config_from_dict({}) == SearchConfig()

    def test_round_trip(self):
        cfg = _cfg(total_steps=123, seed=9,
                   controller=ControllerConfig(lr=0.01, entropy_beta_end=0.3))
        assert search_config_from_dict(search_config_to_dict(cfg)) == cfg

    def test_unknown_top_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'epochs'"):
            search_config_from_dict({"epochs": 5})

    def test_unknown_controller_key_named(self):
        with pytest.raises(ConfigError, match="controller: unknown key 'alpha'"):
            search_config_from_dict({"controller": {"alpha": 1.0}})

    def test_unknown_trainer_key_named(self):
        with pytest.raises(ConfigError, match="trainer: unknown key 'nesterov'"):
            search_config_from_dict({"trainer": {"nesterov": True}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="total_steps"):
            search_config_from_dict({"total_steps": "many"})
        with pytest.raises(ConfigError, match="total_steps"):
            search_config_from_dict({"total_steps": True})
        with pytest.raises(ConfigError, match="track_switching"):
            search_config_from_dict({"track_switching": 1})
        with pytest.raises(ConfigError, match="search_space"):
            search_config_from_dict({"search_space": 5})
        with pytest.raises(ConfigError, match="format"):
            search_config_from_dict({"format": 8})

    def test_std_multiples_validation(self):
        with pytest.raises(ConfigError, match="catch-all"):
            search_config_from_dict({"std_multiples": [[4, 3.0]]})
        with pytest.raises(ConfigError, match="max_bits, multiple"):
            search_config_from_dict({"std_multiples": [[4, 3.0, 1.0], [None, 4.0]]})
        with pytest.raises(ConfigError, match="must be a number"):
            search_config_from_dict({"std_multiples": [[None, "x"]]})
        got = search_config_from_dict({"std_multiples": [[4, 3.0], [None, 4.0]]})
        assert got.std_multiples == ((4, 3.0), (None, 4.0))

    def test_schedule_kind_checked(self):
        with pytest.raises(ConfigError, match="entropy_schedule"):
            search_config_from_dict({"controller": {"entropy_schedule": "linear"}})

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="total_steps"):
            SearchConfig(total_steps=0)
        with pytest.raises(ConfigError, match="warmup_fraction"):
            SearchConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigError, match="act_quant_start_fraction"):
            SearchConfig(act_quant_start_fraction=1.5)


class TestBaselineBehavior:
    def test_single_option_reward_equals_quality(self):
        # one format and an exactly-met cost target leave reward == quality
        cfg = _cfg(search_space=["INT8"], cost_target_gbops=3.2768e-5,
                   total_steps=80)
        result = run_search(cfg)
        assert {n: a.label for n, a in result.final_archs.items()} == {
            "fc1": "INT8", "fc2": "INT8", "out": "INT8"}
        for rec in result.trace:
            assert rec.reward == rec.quality
            assert rec.cost_gbops == 3.2768e-5

    def test_bf16_tracks_unquantized_training(self):
        from fliqs.data import batch_stream, validation_set
        from fliqs.network import (
            SGDState,
            accuracy,
            backward,
            build_model,
            builtin_model_config,
            forward,
            sgd_step,
        )

        data_cfg = dict(BLOBS, separation=6.0)
        cfg = _cfg(data=data_cfg, total_steps=300)
        served = run_uniform(cfg, "BF16").served_accuracy

        ds = build_dataset(data_cfg, cfg.seed)
        shape = list(ds.images.shape[1:])
        net = build_model(builtin_model_config("mlp-2x16", shape, ds.classes),
                          seed=cfg.seed)
        plan = BatchPlan(batch_size=64, seed=cfg.seed)
        stream = batch_stream(ds, plan)
        state = SGDState()
        for _ in range(cfg.total_steps):
            xb, yb = next(stream)
            logits, cache = forward(net, xb)
            grads = backward(net, cache, yb)
            sgd_step(net, grads, state, lr=0.05)
        vx, vy = validation_set(ds, plan)
        plain = accuracy(forward(net, vx)[0], vy)
        assert abs(served - plain) <= 0.002

    def test_higher_cost_target_costs_no_less(self):
        lo, hi = [], []
        for seed in range(3):
            lo.append(run_search(_cfg(cost_target_gbops=1.2e-5, seed=seed,
                                      total_steps=400)).served_cost_gbops)
            hi.append(run_search(_cfg(cost_target_gbops=2.4e-5, seed=seed,
                                      total_steps=400)).served_cost_gbops)
        assert np.mean(hi) >= np.mean(lo)

    def test_serve_config_layer_order(self, search_result):
        doc = serve_config(search_result)
        assert [l["name"] for l in doc["layers"]] == ["fc1", "fc2", "out"]


class TestCacheLifetime:
    """No training forward starts while an earlier step's forward cache is alive."""

    def test_earlier_patch_matrices_are_freed(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(Dataset(rng.integers(0, 256, size=(200, 1, 8, 8)) / 255.0,
                          rng.integers(0, 4, size=200), 4), images, labels)
        patches = []   # weakrefs to the conv patch matrices of every training forward
        calls = {"profile": 0, "train": 0}

        def checked(orig, where):
            def spy(net, x, *args, train=True, **kwargs):
                if not train:
                    return orig(net, x, *args, train=train, **kwargs)
                alive = [i for i, ref in enumerate(patches) if ref() is not None]
                assert not alive, f"{where} forward {calls[where]}: earlier patches alive"
                calls[where] += 1
                logits, cache = orig(net, x, *args, **kwargs)
                for layer_cache in cache.layers:
                    if isinstance(layer_cache, network.BranchCache):
                        patches.extend(weakref.ref(cols) for *_, cols
                                       in layer_cache.branches.values())
                return logits, cache
            return spy

        monkeypatch.setattr(network, "forward", checked(network.forward, "profile"))
        monkeypatch.setattr(search, "forward", checked(search.forward, "train"))
        cfg = _cfg(model="cnn-small", total_steps=6, profile_batches=3,
                   data={"kind": "idx", "images": str(images), "labels": str(labels)},
                   trainer=TrainerConfig(batch_size=16, lr=0.05))
        run_search(cfg)
        assert calls == {"profile": 3, "train": 6}


def _glibc():
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    return libc if libc is not None and hasattr(libc, "gnu_get_libc_version") else None


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


@pytest.mark.skipif(_glibc() is None, reason="the heap setting only acts on glibc")
class TestHeapKeptForReuse:
    """Inside a run, freed blocks are reused without new page faults; after it, handed back."""

    def test_reuse_then_hand_back(self):
        blocks, size = 12, 8 << 20      # 96 MB freed at once, above glibc's 64 MB cap
        pages = blocks * size // resource.getpagesize()

        def fill_and_free():
            arrays = [np.ones(size // 8) for _ in range(blocks)]
            del arrays

        with search._heap_kept_for_reuse():
            fill_and_free()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            fill_and_free()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            kept = _rss_bytes()
        handed_back = kept - _rss_bytes()
        assert faults < pages // 20
        assert handed_back > blocks * size * 3 // 4
