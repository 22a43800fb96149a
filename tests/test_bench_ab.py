"""The claim verdict of tools/bench_ab.py, fed synthetic runs."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "serve_images_per_s", "unit": "images/s", "better": "higher", "bound": 0.25},
]}


def _runs(base, change, workload="desk-int"):
    """One run per side and pair; base and change are lists of (rss, serve) per pair."""
    runs = []
    for i, (b, c) in enumerate(zip(base, change)):
        for side, (rss, serve) in (("base", b), ("change", c)):
            runs.append({"side": side, "workload": workload, "pair": i,
                         "metrics": {"peak_rss_mb": rss, "serve_images_per_s": serve}})
    return runs


def _verdicts(base, change):
    summary, _ = bench_ab.summarize(_runs(base, change), SPEC)
    return {name: s["verdict"] for name, s in summary["desk-int"].items()}


def test_a_clear_gain_is_resolved():
    base = [(175.0 + 0.2 * i, 3000.0 + i) for i in range(10)]
    change = [(127.4, 3000.0 + i) for i in range(10)]   # serve ties every pair
    v = _verdicts(base, change)
    rss = v["peak_rss_mb"]
    assert (rss["pairs"], rss["pairs_won"], rss["resolved"]) == (10, 10, True)
    assert rss["median_gap"] == pytest.approx(175.9 - 127.4)
    assert rss["base_iqr"] == pytest.approx(0.9)
    assert "note" not in rss
    serve = v["serve_images_per_s"]
    assert (serve["pairs_won"], serve["median_gap"], serve["resolved"]) == (0, 0.0, False)


def test_seven_wins_of_ten_are_not_resolved():
    # a step-time gain of ~10% on a noisy host: most pairs won, not nine in ten
    base = [(78.6, 1.0)] * 10
    change = [(71.1, 1.0)] * 7 + [(80.0, 1.0)] * 3
    v = _verdicts(base, change)["peak_rss_mb"]
    assert (v["pairs_won"], v["resolved"]) == (7, False)
    assert v["median_gap"] > v["base_iqr"]


def test_nine_wins_of_ten_need_a_gap_beyond_the_base_iqr():
    base = [(100.0 + 4.0 * i, 1.0) for i in range(10)]
    narrow = [(b - 1.0, 1.0) for b, _ in base[:9]] + [(200.0, 1.0)]
    wide = [(b - 40.0, 1.0) for b, _ in base[:9]] + [(200.0, 1.0)]
    narrow_v = _verdicts(base, narrow)["peak_rss_mb"]
    assert (narrow_v["pairs_won"], narrow_v["resolved"]) == (9, False)
    assert narrow_v["median_gap"] < narrow_v["base_iqr"]
    wide_v = _verdicts(base, wide)["peak_rss_mb"]
    assert (wide_v["pairs_won"], wide_v["resolved"]) == (9, True)


def test_higher_is_better_counts_the_other_way():
    base = [(1.0, 2700.0 + i) for i in range(10)]
    change = [(1.0, 4000.0 + i) for i in range(10)]
    v = _verdicts(base, change)["serve_images_per_s"]
    assert (v["pairs_won"], v["resolved"]) == (10, True)
    assert v["median_gap"] == pytest.approx(1300.0)
    assert _verdicts(change, base)["serve_images_per_s"]["median_gap"] < 0


def test_fewer_than_ten_pairs_are_never_resolved():
    v = _verdicts([(175.0 + i, 1.0) for i in range(4)], [(127.0, 1.0)] * 4)["peak_rss_mb"]
    assert (v["pairs"], v["pairs_won"], v["resolved"]) == (4, 4, False)
    assert v["note"] == "only 4 pairs ran; a gain needs at least 10"


# a stand-in for bench/run.py: writes its pid, then sleeps well past the test
_FAKE_RUN = """
import os, sys, time
with open(sys.argv[sys.argv.index("--seed") + 1] + ".pid", "w") as f:
    f.write(str(os.getpid()))
time.sleep(120)
"""

_PARENT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_ab", sys.argv[1])
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)
bench_ab.ROOT = bench_ab.Path(sys.argv[2])
bench_ab.exit_on_sigterm()
bench_ab.run_once(bench_ab.ROOT, "desk-int", 7, 1.0)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_takes_the_running_child_with_it(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(_FAKE_RUN)
    parent = subprocess.Popen([sys.executable, "-c", _PARENT, str(_PATH), str(tmp_path)],
                              stderr=subprocess.PIPE, text=True)
    pid_file = tmp_path / "7.pid"
    child = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline and parent.poll() is None, \
                parent.stderr.read() if parent.poll() is not None else "no child started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while _alive(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(child)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        if child is not None and _alive(child):
            os.kill(child, signal.SIGKILL)
