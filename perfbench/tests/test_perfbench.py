"""Checks of the benchmark itself, on a tiny scene.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import scenes  # noqa: E402
import tracer as tr  # noqa: E402

TINY = scenes.Workload("tiny", m=4, rows=8, cols=8, snr_db=30.0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("dykstra.sweeps", "dykstra.sweeps_to_re100", "projectors.calls",
          "solver.constrained_frac")


def _traced(tmp_path, name, seed=3):
    workdir = tmp_path / name
    workdir.mkdir()
    ledger = bench.Ledger()
    metrics = bench.run_traced(TINY, seed, 0.01, str(workdir), ledger)
    assert not ledger.failures
    return metrics


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    ledger = bench.Ledger()
    plain = bench.run_plain(TINY, 3, 0.01, str(tmp_path), ledger)
    assert not ledger.failures
    traced = _traced(tmp_path, "traced")
    for section, metrics in (("end_to_end", plain), ("per_layer", traced)):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(metrics) == set(declared), section
        line = json.loads(bench.result_line(metrics, ledger))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        for name, unit in declared.items():
            assert line["metrics"][name]["unit"] == unit, name
    for name in ("unmix_s", "re100_s", "oracle_s", "peak_mb", "setup_s"):
        assert plain[name] > 0, name


def test_count_metrics_repeat_exactly(tmp_path):
    first = _traced(tmp_path, "a")
    second = _traced(tmp_path, "b")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["projectors.calls"] == TINY.m * first["dykstra.sweeps"]


def test_same_seed_writes_identical_files(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        paths = scenes.write_scene(scenes.make_scene(TINY, seed), str(d))
        return [Path(p).read_bytes() for p in paths]

    cube, csv = files(11, "a")
    assert files(11, "b") == [cube, csv]
    assert len(cube) == TINY.cube_bytes
    other_cube, other_csv = files(12, "c")
    assert other_cube != cube and other_csv == csv


def test_wrappers_are_restored_after_an_error():
    import sudap.solver

    original = sudap.solver.build_transform
    t = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(t):
            assert sudap.solver.build_transform is not original
            raise RuntimeError("boom")
    assert sudap.solver.build_transform is original


def test_missing_wrap_target_drops_only_its_metrics(tmp_path, monkeypatch):
    import sudap.io

    original = sudap.io.read_cube
    gone = (("sudap.io", "renamed_away", "model.feasibility"),
            ("sudap.no_such_module", "f", "nowhere"))
    targets = tuple(t for t in tr.TARGETS if t[2] != "model.feasibility")
    monkeypatch.setattr(tr, "TARGETS", targets + gone)
    ledger = bench.Ledger()
    metrics = bench.run_traced(TINY, 3, 0.01, str(tmp_path), ledger)
    assert not ledger.failures
    dropped = {"model.feasibility_s", "cli.self_s", "trace.coverage_frac"}
    assert set(bench.LAYER_UNITS) - set(metrics) == dropped
    assert sudap.io.read_cube is original


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "tall-m10", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
