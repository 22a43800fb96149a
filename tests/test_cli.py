import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from fliqs.cli import main
from fliqs.data import Dataset, write_idx
from fliqs.errors import DataError

RUN_CONFIG = {
    "model": "mlp-2x16",
    "data": {"kind": "blobs", "classes": 4, "dims": 12, "n_per_class": 150,
             "separation": 4.0},
    "search_space": "FLIQS-S-int",
    "total_steps": 160,
    "cost_target_gbops": 2.048e-5,
    "controller": {"lr": 0.02},
    "trainer": {"batch_size": 64, "lr": 0.05},
    "seed": 0,
}

RUN_ARTIFACTS = ["resolved_config.json", "trace.csv", "result.json",
                 "served_config.json", "weights.bin"]


def _write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _run_dir_from(stdout: str):
    line = next(l for l in stdout.splitlines() if l.startswith("run dir:"))
    return Path(line.split("run dir:", 1)[1].split("(")[0].strip())


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    """One CLI-driven search run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli-search")
    cfg = _write_config(root / "run.json", RUN_CONFIG)
    out = root / "runs"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["search", "--config", cfg, "--out", str(out)])
    assert code == 0
    return _run_dir_from(buf.getvalue()), cfg, out


class TestSearchCommand:
    def test_run_writes_all_artifacts(self, search_run):
        run_dir, _, _ = search_run
        for name in RUN_ARTIFACTS:
            assert (run_dir / name).exists(), name

    def test_stdout_reports_run(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["search", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "served accuracy:" in out
        assert "served cost:" in out
        assert "fc1:" in out

    def test_resolved_config_records_seed_override(self, search_run, capsys,
                                                   tmp_path):
        _, cfg, _ = search_run
        code = main(["search", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        run_dir = _run_dir_from(capsys.readouterr().out)
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["seed"] == 7
        assert resolved["command"] == "search"
        assert run_dir.name.endswith("-s7") or "-s7-" in run_dir.name

    def test_set_overrides_nested_keys(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["search", "--config", cfg, "--out", str(tmp_path),
                     "--set", "total_steps=40", "--set", "controller.lr=0.01"])
        assert code == 0
        run_dir = _run_dir_from(capsys.readouterr().out)
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["total_steps"] == 40
        assert resolved["controller"]["lr"] == 0.01

    def test_identical_runs_write_identical_traces(self, search_run, capsys,
                                                   tmp_path):
        _, cfg, _ = search_run
        dirs = []
        for _ in range(2):
            assert main(["search", "--config", cfg, "--out", str(tmp_path),
                         "--set", "total_steps=40"]) == 0
            dirs.append(_run_dir_from(capsys.readouterr().out))
        a = (dirs[0] / "trace.csv").read_bytes()
        b = (dirs[1] / "trace.csv").read_bytes()
        assert a == b
        assert dirs[0] != dirs[1]

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "bad.json",
                            dict(RUN_CONFIG, epochs=3))
        code = main(["search", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "unknown key 'epochs'" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"model": "mlp-2x16",\n  "seed": }\n')
        code = main(["search", "--config", str(p), "--out", str(tmp_path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code = main(["search", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_idx_file_exits_2(self, capsys, tmp_path):
        doc = dict(RUN_CONFIG, data={"kind": "idx", "images": "/nonexist.idx",
                                     "labels": "/nonexist-labels.idx"})
        cfg = _write_config(tmp_path / "idx.json", doc)
        code = main(["search", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: data.images: cannot read /nonexist.idx: No such file or directory"]

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_exits_2(self, capsys, tmp_path, limit):
        images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(Dataset(np.zeros((10, 1, 2, 2)), np.arange(10) % 2, 2), images, labels)
        doc = dict(RUN_CONFIG, data={"kind": "idx", "images": str(images),
                                     "labels": str(labels), "limit": limit})
        cfg = _write_config(tmp_path / "idx.json", doc)
        code = main(["search", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config.data.limit must be >= 1 or null, got {limit}"]
        assert not (tmp_path / "runs").exists()

    def test_zero_width_option_exits_2(self, capsys, tmp_path):
        model = {"name": "tiny", "input_shape": [1, 1, 12], "classes": 4, "layers": [
            {"type": "flatten"},
            {"type": "dense", "name": "fc1", "out_features": 8, "width_options": [0]},
            {"type": "relu"},
            {"type": "dense", "name": "out", "out_features": 4}]}
        cfg = _write_config(tmp_path / "w0.json", dict(RUN_CONFIG, model=model))
        code = main(["search", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "width multiplier" in err

    def test_bad_set_syntax_exits_2(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["search", "--config", cfg, "--out", str(tmp_path),
                     "--set", "total_steps"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_run_flushes_partial_trace(self, search_run, capsys,
                                               tmp_path):
        _, cfg, _ = search_run
        code = main(["search", "--config", cfg, "--out", str(tmp_path),
                     "--set", "trainer.lr=1e14", "--set", "total_steps=30"])
        captured = capsys.readouterr()
        assert code == 1
        assert "aborted at step" in captured.err
        run_dir = _run_dir_from(captured.out)
        assert (run_dir / "trace.csv").exists()
        assert not (run_dir / "result.json").exists()

    def test_output_root_from_environment(self, search_run, capsys, tmp_path,
                                          monkeypatch):
        _, cfg, _ = search_run
        monkeypatch.setenv("FLIQS_OUT", str(tmp_path / "env-runs"))
        code = main(["search", "--config", cfg, "--set", "total_steps=20"])
        assert code == 0
        run_dir = _run_dir_from(capsys.readouterr().out)
        assert run_dir.parent == tmp_path / "env-runs"


class TestUniformCommand:
    def test_needs_a_format(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["uniform", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "uniform runs need a format" in capsys.readouterr().err

    def test_format_flag(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["uniform", "--config", cfg, "--format", "INT8",
                     "--out", str(tmp_path), "--set", "total_steps=30"])
        out = capsys.readouterr().out
        assert code == 0
        run_dir = _run_dir_from(out)
        result = json.loads((run_dir / "result.json").read_text())
        assert result["mode"] == "uniform"
        assert set(result["final_archs"].values()) == {"INT8"}

    def test_bad_format_exits_2(self, search_run, capsys, tmp_path):
        _, cfg, _ = search_run
        code = main(["uniform", "--config", cfg, "--format", "INT99",
                     "--out", str(tmp_path)])
        assert code == 2


class TestSweepCommand:
    def _sweep_doc(self, **extra):
        base = dict(RUN_CONFIG, total_steps=30)
        doc = {"kind": "uniform-formats", "base": base,
               "formats": ["INT4", "INT8"], "seeds": [0, 1]}
        doc.update(extra)
        return doc

    def test_rows_and_results_csv(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "sweep.json", self._sweep_doc())
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        sweep_dir = _run_dir_from(out)
        lines = (sweep_dir / "results.csv").read_text().strip().split("\n")
        assert lines[0] == ("row,kind,param,seed,status,served_accuracy,"
                            "served_cost_gbops,run_dir,error")
        assert len(lines) == 5
        rows = [l.split(",") for l in lines[1:]]
        assert [r[2] for r in rows] == ["INT4", "INT4", "INT8", "INT8"]
        assert [r[3] for r in rows] == ["0", "1", "0", "1"]
        assert all(r[4] == "ok" for r in rows)
        for r in rows:
            row_dir = sweep_dir / r[7].split("/")[-1]
            assert (row_dir / "result.json").exists()

    def test_parallel_jobs_match_row_order(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "sweep.json", self._sweep_doc(seeds=[0]))
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--jobs", "2"])
        assert code == 0
        sweep_dir = _run_dir_from(capsys.readouterr().out)
        rows = (sweep_dir / "results.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[2] for r in rows] == ["INT4", "INT8"]

    def test_fp8_mantissa_sweep_arity(self, capsys, tmp_path):
        doc = self._sweep_doc(
            formats=["E1M6", "E2M5", "E3M4", "E4M3", "E5M2"], seeds=[0])
        cfg = _write_config(tmp_path / "sweep.json", doc)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        sweep_dir = _run_dir_from(capsys.readouterr().out)
        rows = (sweep_dir / "results.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[2] for r in rows] == ["E1M6", "E2M5", "E3M4",
                                                   "E4M3", "E5M2"]
        assert all(r.split(",")[4] == "ok" for r in rows)

    def test_pareto_kind_expands_targets(self, capsys, tmp_path):
        doc = {"kind": "pareto", "base": dict(RUN_CONFIG, total_steps=30),
               "targets": [1.0e-5, 3.0e-5], "seeds": [0]}
        cfg = _write_config(tmp_path / "sweep.json", doc)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        sweep_dir = _run_dir_from(capsys.readouterr().out)
        rows = (sweep_dir / "results.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[2] for r in rows] == ["1e-05", "3e-05"]
        assert all(r.split(",")[1] == "pareto" for r in rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_row_exits_1(self, capsys, tmp_path):
        doc = self._sweep_doc(seeds=[0])
        doc["base"]["trainer"] = {"batch_size": 64, "lr": 1e14}
        cfg = _write_config(tmp_path / "sweep.json", doc)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        sweep_dir = _run_dir_from(capsys.readouterr().out)
        rows = (sweep_dir / "results.csv").read_text().strip().split("\n")[1:]
        assert all(r.split(",")[4] == "error" for r in rows)

    def test_row_failing_before_its_loop_fails_only_that_row(self, capsys, tmp_path,
                                                              monkeypatch):
        from fliqs import cli
        from fliqs.errors import ThresholdError

        real = cli.run_uniform

        def run_uniform(cfg):
            if cfg.format == "INT4":
                raise ThresholdError("zero-variance activations at layer 'fc1'")
            return real(cfg)

        monkeypatch.setattr(cli, "run_uniform", run_uniform)
        cfg = _write_config(tmp_path / "sweep.json", self._sweep_doc())
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "rows complete: 2 ok, 2 failed" in out
        rows = (_run_dir_from(out) / "results.csv").read_text().strip().split("\n")[1:]
        cells = [r.split(",") for r in rows]
        assert [(c[2], c[4]) for c in cells] == [("INT4", "error"), ("INT4", "error"),
                                                 ("INT8", "ok"), ("INT8", "ok")]
        assert "zero-variance" in cells[0][8]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_idx_file_exits_2(self, capsys, tmp_path, jobs):
        doc = self._sweep_doc(seeds=[0])
        doc["base"]["data"] = {"kind": "idx", "images": str(tmp_path / "missing.idx"),
                               "labels": str(tmp_path / "missing-labels.idx")}
        cfg = _write_config(tmp_path / "sweep.json", doc)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: data.images: cannot read {tmp_path / 'missing.idx'}: "
                       "No such file or directory"]

    def test_bad_kind_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "sweep.json", self._sweep_doc(kind="grid"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_formats_key_rejected_for_pareto(self, capsys, tmp_path):
        doc = {"kind": "pareto", "base": dict(RUN_CONFIG, total_steps=30),
               "targets": [1e-5], "formats": ["INT4"]}
        cfg = _write_config(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_pareto_target_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        doc = {"kind": "pareto", "base": dict(RUN_CONFIG, total_steps=30),
               "targets": [10**400]}
        cfg = _write_config(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: sweep config: a target is too large for a float"]

    def test_row_configs_validated_before_any_run(self, capsys, tmp_path):
        doc = self._sweep_doc()
        doc["base"]["epochs"] = 5
        cfg = _write_config(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        # nothing was launched: no sweep dir appeared
        assert not list(tmp_path.glob("sweep-*"))


class TestAnalyzeCommand:
    def test_switching_artifacts(self, capsys, tmp_path):
        doc = {"kind": "switching", "k1": [4, 5, 6], "k2": 8, "trials": 30,
               "tensor_size": 1024}
        cfg = _write_config(tmp_path / "a.json", doc)
        code = main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        out_dir = _run_dir_from(out)
        lines = (out_dir / "switching.csv").read_text().strip().split("\n")
        assert lines[0] == "k1,mean_rms,stderr"
        assert len(lines) == 4
        fit = json.loads((out_dir / "fit.json").read_text())
        assert set(fit) == {"a", "b", "c", "residual", "r_squared"}
        summary = json.loads(out[out.index("{"):])
        assert summary["k1"] == [4, 5, 6]
        assert summary["mean_rms"][0] > summary["mean_rms"][-1]

    def test_clipping_artifacts(self, capsys, tmp_path):
        doc = {"kind": "clipping", "formats": ["INT4", "INT8"], "trials": 20,
               "tensor_size": 1024, "outlier_rate": 1e-3, "outlier_scale": 5.0,
               "grid": {"start": 90.0, "stop": 100.0, "count": 21}}
        cfg = _write_config(tmp_path / "a.json", doc)
        code = main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        out_dir = _run_dir_from(out)
        lines = (out_dir / "clipping.csv").read_text().strip().split("\n")
        assert lines[0] == "percentile,mse_INT4,mse_INT8"
        assert len(lines) == 22
        optimal = json.loads((out_dir / "optimal.json").read_text())
        assert set(optimal["optimal_percentile"]) == {"INT4", "INT8"}

    def test_entropy_reads_a_run(self, search_run, capsys, tmp_path):
        run_dir, _, _ = search_run
        doc = {"kind": "entropy", "run_dir": str(run_dir)}
        cfg = _write_config(tmp_path / "a.json", doc)
        code = main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        out_dir = _run_dir_from(out)
        summary = json.loads((out_dir / "entropy.json").read_text())
        assert summary["warmup_steps"] == 40
        assert summary["steps"] == 120
        assert -1.0 <= summary["spearman"] <= 1.0

    @pytest.mark.parametrize("files,message", [
        ({"resolved_config.json": {}}, "resolved_config.json: missing key 'total_steps'"),
        ({"resolved_config.json": {"total_steps": 10}},
         "resolved_config.json: missing key 'warmup_fraction'"),
        ({"resolved_config.json": {"total_steps": "10", "warmup_fraction": 0.25}},
         "resolved_config.json: total_steps must be an integer"),
        ({"result.json": {}}, "result.json: missing key 'warmup_steps'"),
        ({"result.json": {"warmup_steps": None}}, "result.json: warmup_steps must be an integer"),
    ])
    def test_entropy_run_files_exit_2_with_one_error_line(self, files, message, capsys,
                                                           tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trace.csv").write_text("step,entropy,switch_rms\n")
        for name, doc in files.items():
            (run / name).write_text(json.dumps(doc))
        cfg = _write_config(tmp_path / "a.json", {"kind": "entropy", "run_dir": str(run)})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        # a failed study leaves no run directory behind, and names none
        assert "run dir:" not in captured.out
        assert not list((tmp_path / "out").glob("analyze-*"))

    @pytest.mark.parametrize("row", ["x,1.0,0.1", "2.5,1.0,0.1", "1,high,0.1", "1,1.0,",
                                     "1,1.0"])
    def test_entropy_non_numeric_trace_row_exits_2(self, row, capsys, tmp_path):
        from fliqs.cli import EntropyStudy, _analyze_entropy

        run = tmp_path / "run"
        run.mkdir()
        (run / "trace.csv").write_text(f"step,entropy,switch_rms\n0,1.0,0.1\n{row}\n")
        (run / "resolved_config.json").write_text(
            json.dumps({"total_steps": 2, "warmup_fraction": 0.0}))
        with pytest.raises(DataError, match="line 3: step, entropy and switch_rms"):
            _analyze_entropy(EntropyStudy("entropy", str(run)), tmp_path)
        cfg = _write_config(tmp_path / "a.json", {"kind": "entropy", "run_dir": str(run)})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "trace.csv: line 3" in err[0]
        assert not list((tmp_path / "out").glob("analyze-*"))

    def test_entropy_trace_without_column_exits_2(self, capsys, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trace.csv").write_text("step,entropy\n0,1.0\n")
        (run / "result.json").write_text(json.dumps({"warmup_steps": 0}))
        cfg = _write_config(tmp_path / "a.json", {"kind": "entropy", "run_dir": str(run)})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "no 'switch_rms' column" in capsys.readouterr().err

    def test_entropy_needs_run_dir(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "a.json", {"kind": "entropy"})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_kind_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "a.json", {"kind": "fourier"})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "a.json",
                            {"kind": "switching", "bins": 5})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown key 'bins'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "switching", "trials": "x"}, "trials must be an integer"),
        ({"kind": "clipping", "grid": {"start": 0, "stop": 1, "count": "x"}},
         "grid.count must be an integer"),
        ({"kind": "switching", "seed": -1}, "seed must be >= 0"),
        ({"kind": "entropy", "run_dir": 5}, "run_dir must be a string"),
        ({"kind": ["switching"]}, "kind must be one of"),
        ({"kind": "clipping", "grid": {"start": 0, "stop": 1}}, "missing key 'count'"),
        ({"kind": "switching", "percentile": 150}, "percentile must be in (0, 100]"),
        ({"kind": "clipping", "grid": {"start": 0, "stop": 100, "count": 5}},
         "grid.start must be in (0, 100]"),
    ])
    def test_bad_values_exit_2_with_one_error_line(self, doc, message, capsys, tmp_path):
        cfg = _write_config(tmp_path / "a.json", doc)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: analyze config")
        assert message in err[0]
        assert not (tmp_path / "out").exists()


class TestCostCommand:
    def test_uniform_format_json(self, capsys):
        code = main(["cost", "--manifest", "resnet18", "--format", "INT8",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"] == "resnet18"
        assert doc["total_gbops"] == pytest.approx(116.9, rel=0.01)
        assert len(doc["layers"]) == 21

    def test_text_table_has_total(self, capsys):
        code = main(["cost", "--manifest", "mobilenetv2", "--format", "INT4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total" in out
        assert "GBOPs" in out

    def test_assignment_file(self, capsys, tmp_path):
        assign = {"default": "INT8", "layers": {"conv1": "BF16"}}
        path = tmp_path / "assign.json"
        path.write_text(json.dumps(assign))
        code = main(["cost", "--manifest", "resnet18",
                     "--assignment", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        by_name = {l["name"]: l["format"] for l in doc["layers"]}
        assert by_name["conv1"] == "BF16"
        assert by_name["layer1.0.conv1"] == "INT8"

    def test_unknown_layer_in_assignment(self, capsys, tmp_path):
        path = tmp_path / "assign.json"
        path.write_text(json.dumps({"default": "INT8",
                                    "layers": {"convX": "INT4"}}))
        code = main(["cost", "--manifest", "resnet18",
                     "--assignment", str(path)])
        assert code == 2
        assert "unknown layer 'convX'" in capsys.readouterr().err

    def test_exactly_one_mode_required(self, capsys, tmp_path):
        assert main(["cost", "--manifest", "resnet18"]) == 2
        path = tmp_path / "assign.json"
        path.write_text("{}")
        assert main(["cost", "--manifest", "resnet18", "--format", "INT8",
                     "--assignment", str(path)]) == 2

    def test_bad_manifest_name(self, capsys):
        assert main(["cost", "--manifest", "vgg99", "--format", "INT8"]) == 2


class TestServeInfoCommand:
    def test_summarizes_run_dir(self, search_run, capsys):
        run_dir, _, _ = search_run
        code = main(["serve-info", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "model: mlp-2x16" in out
        assert "validation accuracy:" in out
        assert "fc1:" in out

    def test_json_dump_round_trips(self, search_run, capsys):
        run_dir, _, _ = search_run
        code = main(["serve-info", str(run_dir), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc == json.loads((run_dir / "served_config.json").read_text())

    def test_direct_file_path(self, search_run, capsys):
        run_dir, _, _ = search_run
        code = main(["serve-info", str(run_dir / "served_config.json")])
        assert code == 0

    def test_missing_config_exits_2(self, capsys, tmp_path):
        assert main(["serve-info", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc,message", [
        ({"model": "mlp-2x16", "layers": [{"name": "fc1"}], "weights_file": "w"},
         "layers[0]: missing key 'format'"),
        ({"model": "mlp-2x16", "layers": [], "weights_file": "w",
          "validation_accuracy": "high"}, "validation_accuracy must be a number"),
        ({"model": "mlp-2x16", "layers": [{"name": "fc1", "format": "INT8",
                                           "weight_threshold": "x"}], "weights_file": "w"},
         "weight_threshold must be a number or null"),
        ({"model": "mlp-2x16", "layers": []}, "missing key 'weights_file'"),
        ({"model": {"builtin": "mlp-2x16", "input_shape": [1, 1, 16], "classes": "x"},
          "layers": [], "weights_file": "w"}, "model.classes must be an integer"),
        ({"model": {"builtin": "mlp-2x16", "classes": 10}, "layers": [], "weights_file": "w"},
         "model: missing key 'input_shape'"),
    ])
    def test_malformed_doc_exits_2_with_one_error_line(self, doc, message, capsys, tmp_path):
        path = tmp_path / "served_config.json"
        path.write_text(json.dumps(doc))
        assert main(["serve-info", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: served config")
        assert message in err[0]


def _declared_script(name):
    """The ``[project.scripts]`` entry for ``name`` in the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"][name]


class TestEntryPoints:
    def test_console_script(self):
        # Runs the installed `fliqs` wrapper wherever one is on PATH, then starts
        # the declared entry point the way that wrapper does, so the test also
        # holds in a checkout run with PYTHONPATH=src and no install.
        args = ["cost", "--manifest", "resnet18", "--format", "INT4", "--json"]

        def check(command):
            proc = subprocess.run(command, capture_output=True, text=True)
            assert proc.returncode == 0, (command, proc.stderr)
            # Acceptance 1's PUBLISHED_GBOPS["resnet18"]["INT4"] and 1% tolerance.
            assert json.loads(proc.stdout)["total_gbops"] == pytest.approx(29.23, rel=0.01)

        installed = shutil.which("fliqs")
        if installed:
            check([installed, *args])
        module, _, func = _declared_script("fliqs").partition(":")
        check([sys.executable, "-c",
               f"import sys; sys.argv[0] = 'fliqs'; from {module} import {func}; "
               f"sys.exit({func}())", *args])

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fliqs", "cost", "--manifest", "resnet18",
             "--format", "BF16", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_gbops"] == pytest.approx(467.7, rel=0.01)

    def test_search_imports_leave_out_sweeps_and_analysis(self):
        # a fresh interpreter: this one has loaded everything the other tests used
        import fliqs

        code = ("import sys; import fliqs; from fliqs import cli, search, network, formats; "
                "print(sorted(m for m in ('multiprocessing', 'fliqs.analysis') "
                "if m in sys.modules)); "
                "print(fliqs.SynthSpec.__module__, 'fliqs.analysis' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(fliqs.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "fliqs.analysis True"]

    def test_package_exports_cover_the_demos(self):
        import fliqs

        used = set()
        for path in (Path(__file__).parent.parent / "demos").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fliqs"):
                    used |= {alias.name for alias in node.names}
        assert used and used <= set(fliqs.__all__)
        assert len(set(fliqs.__all__)) == len(fliqs.__all__)
        for name in fliqs.__all__:
            assert not isinstance(getattr(fliqs, name), types.ModuleType), name
