"""The benchmark calls the package from outside: its runs call public
functions and settings types by name, and its traced runs replace functions
by name (perfbench/spans.py). The benchmark's own tests are not part of this
suite, so a change here that breaks every run would go unnoticed without
these checks."""

import importlib.util
import math
from pathlib import Path

import pytest

from nrpa import checkpoint, data, evaluation, model, training
from nrpa.rng import SplitMix64

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


def test_one_epoch_of_train_is_the_benchmark_loop(tiny_dataset, tiny_stores,
                                                   monkeypatch):
    """The benchmark times backward and adam_step over its own batches, so
    its training numbers describe `nrpa train` only while an epoch of train()
    makes those calls, on those batches, from the same initial parameters:
    both loops must leave the same parameter bytes. The batch size leaves
    a partial last batch."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    ds = tiny_dataset
    cfg = training.TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8,
                               fm_dim=4, review_len=12, num_reviews=4,
                               learning_rate=5e-3, batch_size=10, max_epochs=1,
                               l2_weight=1e-3, seed=2)
    assert len(ds.split.train) % cfg.batch_size
    trained, _ = training.train(cfg, ds, tiny_stores)

    dims = cfg.dims(len(ds.vocab), ds.n_users, ds.n_items)
    params = model.init_params(dims, cfg.seed, cfg.conv_activation)
    adam = training.AdamState.for_params(params)
    batches = bench.epoch_batches(list(ds.split.train), SplitMix64(cfg.seed).derive(1),
                                  cfg.batch_size)
    for _ in range(math.ceil(len(ds.split.train) / cfg.batch_size)):
        _, grads = training.backward(next(batches), params, tiny_stores, cfg.l2_weight)
        training.adam_step(params, grads, adam, cfg.learning_rate)
    assert params.flat.tobytes() == trained.flat.tobytes()
