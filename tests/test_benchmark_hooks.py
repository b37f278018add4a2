"""The benchmark traces the package from outside, by replacing its public
functions by name (perfbench/spans.py). The benchmark's own tests are not
part of this suite, so a rename here that breaks every traced run would go
unnoticed without this check."""

import importlib.util
from pathlib import Path

from nrpa import checkpoint, data, evaluation, model, training

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
