import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from workloads import WORKLOADS, smoke

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, tmp_path):
    w = smoke(WORKLOADS[name])
    plain = bench.run(w, 3, 0.0, False, tmp_path)
    assert plain["failures"] == []
    assert plain["attempted"] >= 10
    assert set(plain["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(value > 0 for value in plain["metrics"].values())

    traced = bench.run(w, 3, 0.0, True, tmp_path)
    assert traced["failures"] == []
    assert set(traced["metrics"]) == set(bench.PER_LAYER_UNITS)
    assert traced["metrics"]["data.gather_calls"] == 2
    assert traced["metrics"]["model.forward_calls"] == 1
    # same seed, same numbers, with or without tracing
    assert traced["val_mse"] == plain["val_mse"]
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_best_sums_the_fastest_time_of_each_stage():
    assert bench.best([[1.0, 5.0], [3.0, 2.0]]) == 3.0
    assert bench.best([[0.4], [0.2], [0.3]]) == 0.2


def test_main_prints_the_result_line_last(tmp_path, capsys):
    assert bench.main(["--workload", "synthetic", "--seed", "2", "--seconds", "0"], {},
                      tmp_path) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END_UNITS
    record = json.loads((tmp_path / "synthetic-seed2-trace0.json").read_text())
    assert record["env"]["numpy"] and record["corpus"]["vocab_size"] == 19


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthetic", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_declares_exactly_the_printed_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in declared["end_to_end"])
