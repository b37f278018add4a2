"""The benchmark calls the package from outside: its runs call public
functions and settings types by name, and its traced runs replace functions
by name (perfbench/spans.py). The benchmark's own tests are not part of this
suite, so a change here that breaks every run would go unnoticed without
these checks."""

import importlib.util
from pathlib import Path

import pytest

from nrpa import checkpoint, data, evaluation, model, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.mark.parametrize("name", ["synthetic", "wide-vocab"])
def test_benchmark_smoke_run_passes_every_check(name, monkeypatch, tmp_path):
    """The untraced run, the one whose metrics the benchmark reports, on the
    workload shrunk to run in about a second."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import workloads
    result = bench.run(workloads.smoke(workloads.WORKLOADS[name]), 3, 0.0, False, tmp_path)
    assert result["failures"] == []
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)


@pytest.mark.parametrize("name", ["synthetic", "wide-vocab"])
def test_benchmark_traced_smoke_run_passes_every_check(name, monkeypatch, tmp_path):
    """The traced run, which replaces model functions by name and reads every
    gather's (tokens, token_mask, review_mask) back from its proxy stores."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import workloads
    result = bench.run(workloads.smoke(workloads.WORKLOADS[name]), 3, 0.0, True, tmp_path)
    assert result["failures"] == []
    assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)


def test_benchmark_tracer_patches_every_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = (checkpoint, data, evaluation, model, training, training.AdamState)
    before = [dict(vars(m)) for m in modules]
    with spans.Tracer().patched():
        patched = [name for m, old in zip(modules, before)
                   for name, value in vars(m).items() if old.get(name) is not value]
    assert "forward" in patched and "predict_batch" in patched
    assert [dict(vars(m)) for m in modules] == before
