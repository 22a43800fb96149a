"""The run config schema: parsing, validation, round trips and its README table."""

import contextlib
import copy
import dataclasses
import io
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fliqs.arch import ArchChoice
from fliqs.cli import _apply_overrides, main
from fliqs.data import Dataset, write_idx
from fliqs.errors import ConfigError
from fliqs.formats import resolve_format
from fliqs.search import (
    _DATA_KEYS,
    ControllerConfig,
    SearchConfig,
    TrainerConfig,
    build_dataset,
    load_served,
    search_config_from_dict,
    search_config_to_dict,
)

README = Path(__file__).resolve().parent.parent / "README.md"

BLOBS = {"kind": "blobs", "classes": 4, "dims": 12, "n_per_class": 150,
         "separation": 4.0}


def _config_fields(cls=SearchConfig, prefix=""):
    """(dotted key, field) for every leaf field of the run config."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _config_fields(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f


DOTTED_KEYS = [key for key, _ in _config_fields()]


class TestReproducedDefects:
    def test_explicit_zero_lr_is_kept(self):
        cfg = search_config_from_dict({"controller": {"lr": 0}})
        assert cfg.controller.lr == 0.0
        assert isinstance(cfg.controller.lr, float)

    @pytest.mark.parametrize("doc, key", [
        ({"controller": {"beta1": "x"}}, "config.controller.beta1"),
        ({"warmup_fraction": "a"}, "config.warmup_fraction"),
        ({"cost_gamma": None}, "config.cost_gamma"),
        ({"trainer": {"lr": True}}, "config.trainer.lr"),
        ({"trainer": {"momentum": "0.9"}}, "config.trainer.momentum"),
        ({"trainer": {"batch_size": 0}}, "config.trainer.batch_size"),
        ({"data": 5}, "config.data"),
        ({"controller": {"reward_ema_decay": 1.5}}, "config.controller.reward_ema_decay"),
        ({"trainer": {"validation_fraction": 2.0}}, "config.trainer.validation_fraction"),
        ({"profile_batches": 0}, "config.profile_batches"),
        ({"cost_target_gbops": -1}, "config.cost_target_gbops"),
        ({"std_multiples": [[4, -1.0], [None, 4.0]]}, "config.std_multiples[0].multiple"),
        ({"data": {"kind": "idx", "images": "i.idx", "labels": "l.idx", "limit": 0}},
         "config.data.limit"),
        ({"data": {"kind": "idx", "images": "i.idx", "labels": "l.idx", "limit": -3}},
         "config.data.limit"),
    ])
    def test_rejected_naming_the_dotted_key(self, doc, key):
        with pytest.raises(ConfigError) as info:
            search_config_from_dict(doc)
        message = str(info.value)
        assert message.startswith(key + " ")
        assert "\n" not in message

    def test_missing_idx_file_names_key_and_path(self, tmp_path):
        labels = tmp_path / "labels.idx"
        labels.write_bytes(b"")
        with pytest.raises(ConfigError, match=r"data\.images: cannot read /nonexist\.idx"):
            build_dataset({"kind": "idx", "images": "/nonexist.idx", "labels": str(labels)}, 0)

    def test_unreadable_labels_path_names_labels(self, tmp_path):
        images = tmp_path / "images.idx"
        write_idx(Dataset(np.zeros((2, 1, 2, 2)), np.zeros(2, dtype=np.int64), 2),
                  images, tmp_path / "unused.idx")
        with pytest.raises(ConfigError, match=r"data\.labels: cannot read"):
            build_dataset({"kind": "idx", "images": str(images), "labels": str(tmp_path)}, 0)

    @pytest.mark.parametrize("doc", [
        {},
        {"model": "mlp-1x8"},
        {"model": "mlp-1x8", "layers": [{"name": "fc1"}]},
        {"model": "mlp-1x8", "layers": [{"format": "INT8"}]},
    ])
    def test_served_doc_missing_keys(self, doc, tmp_path):
        with pytest.raises(ConfigError, match="missing key"):
            load_served(doc, tmp_path / "weights.bin")

    @pytest.mark.parametrize("model,message", [
        ({"builtin": "mlp-1x8", "input_shape": [1, 1, 16], "classes": "x"},
         "served config.model.classes must be an integer, got a string"),
        ({"builtin": "mlp-1x8", "input_shape": [1, 1, 16], "classes": 0},
         "served config.model.classes must be positive, got 0"),
        ({"builtin": "mlp-1x8", "input_shape": [1, "x", 16], "classes": 4},
         r"served config.model.input_shape\[1\] must be an integer"),
        ({"builtin": "mlp-1x8", "input_shape": [1, 16], "classes": 4},
         "input_shape must be 1 or 3 positive sizes"),
        ({"builtin": "mlp-1x8", "classes": 4}, "served config.model: missing key 'input_shape'"),
        ({"builtin": 8, "input_shape": [16], "classes": 4},
         "served config.model.builtin must be a string"),
        ({"builtin": "mlp-1x8", "input_shape": [16], "classes": 4, "depth": 2},
         "served config.model: unknown key 'depth'"),
    ])
    def test_served_builtin_model_is_checked(self, model, message, tmp_path):
        doc = {"model": model, "layers": [], "weights_file": "weights.bin"}
        with pytest.raises(ConfigError, match=message):
            load_served(doc, tmp_path / "weights.bin")

    def test_arch_choice_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="width multiplier"):
            ArchChoice(resolve_format("INT8"), 0.0)
        for label in ("INT8;x2", "INT8;wide", "INT8;k", "INT8;w0"):
            with pytest.raises(ConfigError):
                ArchChoice.from_label(label)
        assert ArchChoice.from_label("INT4;w0.5;k5") == ArchChoice(resolve_format("INT4"), 0.5, 5)


class TestRanges:
    def test_every_range_holds_at_its_edge(self):
        cfg = search_config_from_dict({
            "warmup_fraction": 0, "act_quant_start_fraction": 1, "cost_gamma": 0,
            "seed": 0, "profile_batches": 1,
            "controller": {"lr": 0, "beta1": 0, "beta2": 0, "entropy_beta_end": 0,
                           "entropy_schedule": "constant", "reward_ema_decay": 0},
            "trainer": {"batch_size": 1, "lr": 0, "momentum": 0, "weight_decay": 0,
                        "validation_fraction": 0},
        })
        assert cfg.controller.entropy_schedule == "constant"

    @pytest.mark.parametrize("path, value", [
        ("controller.lr", -1e-9), ("controller.beta1", 1.0), ("controller.beta2", -0.1),
        ("controller.eps", 0.0), ("controller.entropy_beta_end", -0.5),
        ("trainer.lr", -0.05), ("trainer.momentum", 1.0), ("trainer.weight_decay", -1e-4),
        ("cost_gamma", 0.5), ("cost_target_gbops", 0), ("seed", -1),
        ("std_multiples", [[0, 3.0], [None, 4.0]]), ("std_multiples", []),
        ("cost_target_gbops", float("inf")), ("warmup_fraction", float("nan")),
        ("search_space", ["INT8", 4]), ("warmup_fraction", 10**400),
        ("controller.lr", 10**400),
    ])
    def test_out_of_range_rejected(self, path, value):
        doc = _apply_overrides({}, [f"{path}={json.dumps(value)}"])
        with pytest.raises(ConfigError, match="^config." + re.escape(path.split(".")[0])):
            search_config_from_dict(doc)

    def test_data_integer_too_large_for_a_float_rejected(self):
        doc = {"data": {"kind": "blobs", "separation": 10**400}}
        with pytest.raises(ConfigError, match="^config.data.separation must be a finite number"):
            search_config_from_dict(doc)


# ----------------------------------------------------------------- properties

# json.load takes integers far beyond a float's range, so the fuzz draws them too.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10**400, -10**400]) | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
TOP_KEYS = sorted({key.split(".")[0] for key in DOTTED_KEYS})
KEY_NAMES = st.sampled_from(TOP_KEYS + ["kind", "images", "epochs"]) | st.text(max_size=6)
PATHS = st.sampled_from(DOTTED_KEYS + ["data.kind", "data.images", "data.limit"]) \
    | st.lists(st.text("abcdfkls_.", max_size=5), min_size=1, max_size=3).map(".".join)
SETS = st.lists(st.tuples(PATHS, JSON_VALUES.map(json.dumps) | st.text(max_size=6))
                .map(lambda kv: f"{kv[0]}={kv[1]}"), max_size=3)
BASE_DOC = {"model": "mlp-2x16", "data": BLOBS, "total_steps": 20,
            "cost_target_gbops": 2e-5, "trainer": {"batch_size": 64}}
DOCS = st.dictionaries(KEY_NAMES, JSON_VALUES, max_size=4) | st.just(BASE_DOC)


def _parse(doc, sets):
    doc = copy.deepcopy(doc)
    if isinstance(doc, dict):
        _apply_overrides(doc, sets)
    return search_config_from_dict(doc)


@settings(max_examples=400, deadline=None)
@given(doc=DOCS | JSON_VALUES, sets=SETS)
def test_only_config_errors_escape_the_parser(doc, sets):
    try:
        cfg = _parse(doc, sets)
    except ConfigError as e:
        assert "\n" not in str(e)
        return
    assert search_config_from_dict(search_config_to_dict(cfg)) == cfg


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(doc=DOCS, sets=SETS)
def test_cli_rejects_bad_configs_in_one_line(tmp_path_factory, doc, sets):
    try:
        _parse(doc, sets)
        rejected = False
    except ConfigError:
        rejected = True
    assume(rejected)
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "run.json"
    path.write_text(json.dumps(doc))
    argv = ["search", "--config", str(path), "--out", str(root / "runs")]
    for item in sets:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (root / "runs").exists()  # refused before a run directory is made


FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)
VALID_CONFIGS = st.builds(
    SearchConfig,
    model=st.sampled_from(["cnn-small", "mlp-2x16"])
    | st.just({"name": "tiny", "input_shape": [1, 1, 12], "classes": 4,
               "layers": [{"type": "flatten"}, {"type": "dense", "name": "out",
                                                 "out_features": 4}]}),
    data=st.sampled_from([BLOBS, {"kind": "blobs"},
                          {"kind": "idx", "images": "i.idx", "labels": "l.idx",
                           "limit": None}]),
    search_space=st.sampled_from(["FLIQS-S-int", "FLIQS-L-fp"])
    | st.lists(st.sampled_from(["INT4", "INT8", "E4M3", "BF16"]), min_size=1, max_size=3),
    total_steps=st.integers(1, 10**9),
    warmup_fraction=FRACTIONS,
    act_quant_start_fraction=st.floats(0.0, 1.0),
    cost_target_gbops=st.none() | st.floats(1e-12, 1e6),
    cost_gamma=st.floats(-1e6, 0.0),
    controller=st.builds(
        ControllerConfig, lr=st.floats(0.0, 1.0), beta1=FRACTIONS, beta2=FRACTIONS,
        eps=st.floats(1e-12, 1.0), entropy_beta_end=st.floats(0.0, 10.0),
        entropy_schedule=st.sampled_from(["cosine", "constant"]),
        reward_ema_decay=FRACTIONS),
    trainer=st.builds(
        TrainerConfig, batch_size=st.integers(1, 4096), lr=st.floats(0.0, 10.0),
        momentum=FRACTIONS, weight_decay=st.floats(0.0, 1.0),
        validation_fraction=FRACTIONS),
    profile_batches=st.integers(1, 100),
    std_multiples=st.lists(st.tuples(st.integers(1, 64), st.floats(0.1, 10.0)), max_size=3)
    .map(lambda rows: tuple(rows) + ((None, 4.0),)),
    seed=st.integers(0, 2**64),
    track_switching=st.booleans(),
    format=st.none() | st.sampled_from(["INT8", "E4M3"]),
)


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS)
def test_round_trip_through_json(cfg):
    doc = search_config_to_dict(cfg)
    assert json.loads(json.dumps(doc)) == doc
    assert search_config_from_dict(json.loads(json.dumps(doc))) == cfg


# ------------------------------------------------------------ README table


def _readme_table(heading: str) -> list[list[str]]:
    """Cells of the first markdown table under a README heading, header row dropped."""
    text = README.read_text()
    section = text.split(heading, 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [c.strip().replace("\\|", "|")
                 for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
        rows.append([c[1:-1] if c.startswith("`") and c.endswith("`") else c for c in cells])
    return rows[2:]


def test_readme_lists_exactly_the_config_fields():
    rows = _readme_table("## Run config reference")
    assert [r[0] for r in rows] == DOTTED_KEYS
    defaults = search_config_to_dict(SearchConfig())
    for (key, f), (_, hint, default, _) in zip(_config_fields(), rows):
        value = defaults
        for part in key.split("."):
            value = value[part]
        assert hint == f.type, key
        assert json.loads(default) == value, key


def test_readme_lists_exactly_the_data_keys():
    rows = _readme_table("### The data block")
    documented = {(r[0], r[1]): r[2] for r in rows}
    expected = {(kind, key): getattr(hint, "__name__", None) or str(hint)
                for kind, keys in _DATA_KEYS.items() for key, hint in keys.items()}
    assert documented == expected
