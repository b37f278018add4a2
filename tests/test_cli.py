import codecs
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import nrpa
from nrpa import BLAS_THREAD_VARS, cli
from nrpa.checkpoint import load_params, save_params
from nrpa.cli import main, parse_ablation, load_config, UsageError
from nrpa.data import (MIN_RECORDS, UNK_ID, DatasetSplit, ProfileStore, load_prepared,
                       save_prepared)
from nrpa.evaluation import ABLATION_VARIANTS, make_synthetic_corpus
from nrpa.model import AblationSpec, Dims, init_params, param_count
from conftest import forbid_records

TINY_CONFIG = """
# toy hyperparameters for CLI tests
word_dim = 8
id_dim = 4
num_filters = 8
attn_dim = 8
window = 3
fm_dim = 4
review_len = 12
num_reviews = 4
learning_rate = 5e-3
batch_size = 16
max_epochs = 2
patience = 2
l2_weight = 1e-6
seed = 2
exclude_target = true
"""


def write_corpus(path, n_users=12, n_items=8, per_user=5, seed=3):
    records = make_synthetic_corpus(seed=seed, n_users=n_users, n_items=n_items,
                                    reviews_per_user=per_user)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for r in records:
            writer.writerow([r.user_key, r.item_key, repr(r.rating), r.text])
    return records


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.csv"
    write_corpus(corpus)
    config = root / "train.cfg"
    config.write_text(TINY_CONFIG)
    data = root / "prep"
    assert main(["prepare", "--input", str(corpus), "--format", "csv",
                 "--out", str(data), "--seed", "11", "--min-count", "1"]) == 0
    run = root / "run"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(run)]) == 0
    return {"root": root, "corpus": corpus, "config": config, "data": data,
            "run": run}


def test_history_rows_equal_epochs_run(workspace, tmp_path, capsys):
    run2 = tmp_path / "runlog"
    assert main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(run2)]) == 0
    logged = int(capsys.readouterr().out.split("trained ")[1].split(" epochs")[0])
    rows = (run2 / "history.csv").read_text().splitlines()
    assert len(rows) - 1 == logged


def test_prepare_writes_expected_files(workspace):
    assert sorted(p.name for p in workspace["data"].iterdir()) \
        == ["interactions.bin", "items.tsv", "users.tsv", "vocab.tsv"]


def test_prepare_prints_stats_table(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    write_corpus(corpus)
    out = tmp_path / "p"
    assert main(["prepare", "--input", str(corpus), "--format", "csv",
                 "--out", str(out), "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "users items ratings density" in text
    assert "12 8 60" in text


def test_prepare_ten_line_corpus_splits_8_1_1(tmp_path):
    corpus = tmp_path / "ten.csv"
    with open(corpus, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(10):
            writer.writerow([f"u{i}", f"i{i % 3}", 3.0, f"text number {i} fine"])
    out = tmp_path / "prep10"
    assert main(["prepare", "--input", str(corpus), "--format", "csv",
                 "--out", str(out), "--seed", "0"]) == 0
    split = load_prepared(out).split
    assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)


def test_prepare_nine_record_corpus_exits_2_naming_it(tmp_path, capsys):
    corpus = tmp_path / "nine.csv"
    with open(corpus, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(MIN_RECORDS - 1):
            writer.writerow([f"u{i}", f"i{i % 3}", 3.0, f"text number {i} fine"])
    out = tmp_path / "prep9"
    assert main(["prepare", "--input", str(corpus), "--format", "csv",
                 "--out", str(out), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert str(corpus) in err and f"only {MIN_RECORDS - 1} usable records" in err
    assert not out.exists()


def test_prepare_missing_input_exits_2(tmp_path, capsys):
    assert main(["prepare", "--input", str(tmp_path / "nope.csv"), "--format",
                 "csv", "--out", str(tmp_path / "x"), "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_prepare_identical_rerun_is_byte_identical(tmp_path, workspace):
    out2 = tmp_path / "prep2"
    assert main(["prepare", "--input", str(workspace["corpus"]), "--format", "csv",
                 "--out", str(out2), "--seed", "11", "--min-count", "1"]) == 0
    for name in ("vocab.tsv", "users.tsv", "items.tsv", "interactions.bin"):
        assert (workspace["data"] / name).read_bytes() == (out2 / name).read_bytes()


def test_train_outputs(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.nrpa").exists()
    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_mse"
    assert len(history) - 1 <= 2  # max_epochs in the tiny config
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert manifest["config"]["num_filters"] == 8
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["dataset_fingerprint"])
    assert manifest["blas_threads"] == {var: os.environ.get(var) for var in BLAS_THREAD_VARS}


def test_train_missing_config_exits_2(workspace, tmp_path, capsys):
    code = main(["train", "--data", str(workspace["data"]), "--config",
                 str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_unknown_config_key_exits_2_naming_it(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + "learningrate = 5\n")
    code = main(["train", "--data", str(workspace["data"]), "--config", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "learningrate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_review_len_above_prepared_exits_2_naming_both(workspace, tmp_path, capsys,
                                                        command):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(TINY_CONFIG.replace("review_len = 12", "review_len = 101"))
    code = main([command, "--data", str(workspace["data"]), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "review_len 101" in err and "review_len 100" in err
    assert not (tmp_path / "o").exists()


def resplit(workspace, tmp_path, edit):
    """A copy of the prepared data whose interactions.bin holds the split
    column edit(part) in place of part."""
    data = tmp_path / "prep"
    ds = load_prepared(workspace["data"])
    ds.split = DatasetSplit(ds.interactions, edit(ds.split.part.copy()))
    save_prepared(ds, data)
    return data


def with_empty_split(workspace, tmp_path, empty):
    """A copy of the prepared data whose split column moves every record of
    the split `empty` into another split."""
    names = ["train", "validation", "test"]
    other = "test" if empty != "test" else "train"

    def move(part):
        part[part == names.index(empty)] = names.index(other)
        return part
    return resplit(workspace, tmp_path, move)


@pytest.mark.parametrize("empty", ["train", "validation"])
@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_empty_split_exits_2_naming_it(workspace, tmp_path, capsys, command, empty):
    data = with_empty_split(workspace, tmp_path, empty)
    code = main([command, "--data", str(data), "--config", str(workspace["config"]),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data / "interactions.bin") in err and f"the {empty} split is empty" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("split,empty", [("val", "validation"), ("test", "test")])
def test_eval_empty_split_exits_2_naming_it(workspace, tmp_path, capsys, split, empty):
    data = with_empty_split(workspace, tmp_path, empty)
    code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(data), "--split", split, "--out", str(tmp_path / "e.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data / "interactions.bin") in err and f"the {empty} split is empty" in err


def test_sweep_empty_dims_exits_2(workspace, tmp_path, capsys):
    code = main(["sweep", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--dims", ",", "--out",
                 str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "--dims list is empty" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_dims_below_one_exits_2(workspace, tmp_path, capsys):
    code = main(["sweep", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--dims", "4,0", "--out",
                 str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "--dims" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("key,value", [("learning_rate", "nan"), ("learning_rate", "inf"),
                                       ("l2_weight", "nan")])
def test_non_finite_config_value_exits_2_naming_the_key(workspace, tmp_path, capsys,
                                                        key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", TINY_CONFIG,
                          flags=re.MULTILINE))
    code = main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_duplicate_config_key_exits_2_naming_both_lines(workspace, tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\nwindow = 3\nseed = 2\n")
    code = main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "lines 1 and 3" in err


def test_train_rerun_byte_identical(workspace, tmp_path):
    run2 = tmp_path / "run2"
    assert main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(run2)]) == 0
    assert (run2 / "checkpoint.nrpa").read_bytes() == \
           (workspace["run"] / "checkpoint.nrpa").read_bytes()
    assert (run2 / "history.csv").read_bytes() == \
           (workspace["run"] / "history.csv").read_bytes()


def test_train_divergence_exits_3(workspace, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(TINY_CONFIG.replace("learning_rate = 5e-3",
                                       "learning_rate = 1e200"))
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(workspace["data"]), "--config",
                     str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def poison_adam_step(monkeypatch, step, tensor="item.review_attn", value=np.nan):
    """Makes Adam step number `step` (from 1) write `value` into the first
    element of the parameter tensor named `tensor`."""
    from nrpa import training
    real_step = training.adam_step
    steps = []

    def poisoned_step(params, grads, state, lr):
        real_step(params, grads, state, lr)
        steps.append(lr)
        if len(steps) == step:
            dict(params.tensors())[tensor].flat[0] = value

    monkeypatch.setattr(training, "adam_step", poisoned_step)


def test_train_nan_names_epoch_batch_and_tensor(workspace, tmp_path, capsys,
                                                 monkeypatch):
    poison_adam_step(monkeypatch, 2)  # batches 0 and 1 done; batch 2 reads the NaN
    code = main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch 1, batch 2" in err
    assert "parameter item.review_attn" in err


def test_train_nan_word_gradient_row_names_epoch_and_batch(workspace, tmp_path, capsys,
                                                           monkeypatch):
    """A NaN in a word_emb gradient row of batch 1 stops train with exit 3
    at that batch, named after the gradient, and saves nothing."""
    from nrpa import training
    real_backward = training.backward
    calls = []

    def poisoned_backward(*args, **kwargs):
        value, grads = real_backward(*args, **kwargs)
        calls.append(value)
        if len(calls) == 2:
            grads.word_rows[0][1][0, 0] = np.nan
        return value, grads

    monkeypatch.setattr(training, "backward", poisoned_backward)
    out = tmp_path / "o"
    code = main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch 1, batch 1: non-finite values in gradient word_emb" in err
    assert not (out / "checkpoint.nrpa").exists()


def test_train_nan_read_first_by_validation_names_it_and_saves_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    """A NaN written by the last Adam step of the run is first read by the
    epoch's validation, which names it instead of recording val_mse nan and
    saving the initial parameters."""
    cfg = tmp_path / "one-epoch.cfg"
    cfg.write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1"))
    n_batches = -(-len(load_prepared(workspace["data"]).split.train)
                  // load_config(cfg).batch_size)
    poison_adam_step(monkeypatch, n_batches)
    out = tmp_path / "o"
    code = main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch 1, validation" in err
    assert "parameter item.review_attn" in err
    assert not (out / "checkpoint.nrpa").exists()


def test_train_overflowing_validation_mse_exits_3_and_saves_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    """A bias of 1e200 written by the last Adam step gives finite validation
    predictions whose squared errors overflow: the epoch's validation names
    the infinite MSE instead of recording it and saving the initial
    parameters, which an infinite val_mse never beats."""
    cfg = tmp_path / "one-epoch.cfg"
    cfg.write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1"))
    n_batches = -(-len(load_prepared(workspace["data"]).split.train)
                  // load_config(cfg).batch_size)
    poison_adam_step(monkeypatch, n_batches, "fm.bias", 1e200)
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        code = main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch 1, validation" in err and "non-finite mse" in err
    assert not (out / "checkpoint.nrpa").exists()


def test_eval_overflowing_mse_exits_3_and_writes_no_csv(workspace, tmp_path, capsys):
    params, meta = load_params(workspace["run"] / "checkpoint.nrpa")
    params.fm.bias[...] = 1e200  # finite predictions, infinite squared errors
    ckpt = tmp_path / "huge.nrpa"
    save_params(params, ckpt, meta)
    trace = tmp_path / "trace.jsonl"
    with np.errstate(over="ignore"):
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                     "--split", "val", "--trace", str(trace)])
    assert code == 3
    captured = capsys.readouterr()
    assert "non-finite mse" in captured.err
    assert "mse=" not in captured.out
    assert not (tmp_path / "eval_val.csv").exists()
    assert not trace.exists()


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                      "(1000000000000,) and data type float64")


def test_train_out_of_memory_exits_3_and_saves_nothing(workspace, tmp_path, capsys,
                                                      monkeypatch):
    from nrpa import training
    monkeypatch.setattr(training, "backward", out_of_memory)
    out = tmp_path / "o"
    code = main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "out of memory: Unable to allocate 7.28 TiB" in err
    assert "Traceback" not in err
    assert not (out / "checkpoint.nrpa").exists()
    assert not (out / "history.csv").exists()


def test_eval_out_of_memory_exits_3_and_writes_no_csv(workspace, tmp_path, capsys,
                                                     monkeypatch):
    from nrpa import model
    monkeypatch.setattr(model, "predict_batch", out_of_memory)
    out_csv = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]), "--split", "val",
                 "--out", str(out_csv)])
    assert code == 3
    captured = capsys.readouterr()
    assert "out of memory: Unable to allocate 7.28 TiB" in captured.err
    assert "Traceback" not in captured.err
    assert "mse=" not in captured.out
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_non_finite_checkpoint_exits_3_naming_the_tensor(workspace, tmp_path, capsys,
                                                         command):
    params, meta = load_params(workspace["run"] / "checkpoint.nrpa")
    params.user.conv_w[0, 0] = np.nan
    ckpt = tmp_path / "nan.nrpa"
    save_params(params, ckpt, meta)
    ds = load_prepared(workspace["data"])
    inter = ds.split.validation[0]
    extra = (["--split", "val"] if command == "eval" else
             ["--user", ds.user_keys[inter.user], "--item", ds.item_keys[inter.item]])
    code = main([command, "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                 *extra])
    assert code == 3
    captured = capsys.readouterr()
    assert "parameter user.conv_w" in captured.err
    assert "mse=" not in captured.out and "prediction" not in captured.out
    assert not (tmp_path / "eval_val.csv").exists()


def test_manifest_blas_threads_is_null_where_numpy_loaded_first(workspace, tmp_path):
    """BLAS reads its thread count when numpy loads, so in a program that
    imports numpy before nrpa the pin never reaches it, and train records the
    unset variables as null rather than the pin's 1."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(nrpa.__file__).parent.parent)
    for first, want in (("numpy", None), ("nrpa", "1")):
        out = tmp_path / f"{first}-first"
        script = f"import {first}, sys\nfrom nrpa.cli import main\nsys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", script, "train", "--data",
                        str(workspace["data"]), "--config", str(workspace["config"]),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == dict.fromkeys(BLAS_THREAD_VARS, want), first


def test_eval_truncated_checkpoint_exits_2_naming_it(workspace, tmp_path, capsys):
    blob = (workspace["run"] / "checkpoint.nrpa").read_bytes()
    bad = tmp_path / "cut.nrpa"
    bad.write_bytes(blob[:len(blob) // 2])
    code = main(["eval", "--checkpoint", str(bad), "--data", str(workspace["data"]),
                 "--split", "val"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "truncated" in err


def test_eval_prints_finite_mse_and_writes_csv(workspace, capsys):
    ckpt = workspace["run"] / "checkpoint.nrpa"
    assert main(["eval", "--checkpoint", str(ckpt), "--data",
                 str(workspace["data"]), "--split", "val"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("mse=")[1].strip())
    assert np.isfinite(value)
    csv_path = workspace["run"] / "eval_val.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "split,ablation,mse"
    assert lines[1].startswith("val,none,")


def test_eval_default_csv_at_a_directory_exits_2_before_scoring(workspace, tmp_path,
                                                               capsys):
    shutil.copy(workspace["run"] / "checkpoint.nrpa", tmp_path)
    (tmp_path / "eval_val.csv").mkdir()
    assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.nrpa"), "--data",
                 str(workspace["data"]), "--split", "val"]) == 2
    out, err = capsys.readouterr()
    assert str(tmp_path / "eval_val.csv") in err and "mse=" not in out


def test_eval_val_vs_test_differ_only_in_split(workspace, capsys):
    ckpt = workspace["run"] / "checkpoint.nrpa"
    main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
          "--split", "val"])
    val = float(capsys.readouterr().out.split("mse=")[1])
    main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
          "--split", "test"])
    test = float(capsys.readouterr().out.split("mse=")[1])
    assert val != test  # different scored examples


def test_eval_rerun_identical_output(workspace, capsys, tmp_path):
    ckpt = workspace["run"] / "checkpoint.nrpa"
    outs = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"{tag}.csv"
        main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
              "--split", "test", "--out", str(out_csv)])
        outs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]


def test_eval_ablation_flag_changes_score(workspace, capsys):
    ckpt = workspace["run"] / "checkpoint.nrpa"
    main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
          "--split", "test"])
    base = float(capsys.readouterr().out.split("mse=")[1])
    main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
          "--split", "test", "--ablation", "word=uniform,review=uniform"])
    ablated = float(capsys.readouterr().out.split("mse=")[1])
    assert base != ablated


def test_eval_csv_quotes_a_multi_term_ablation(workspace, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    spec = "word=uniform,review=uniform"
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]), "--split", "test",
                 "--ablation", spec, "--out", str(out_csv)]) == 0
    score = float(capsys.readouterr().out.split("mse=")[1])
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["split", "ablation", "mse"], ["test", spec, repr(score)]]


def test_eval_repeated_ablation_site_exits_2(workspace, tmp_path, capsys):
    out_csv = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]), "--split", "test",
                 "--ablation", "word=uniform,word=personalized", "--out", str(out_csv)])
    assert code == 2
    assert "'word' given twice" in capsys.readouterr().err
    assert not out_csv.exists()


def test_eval_dim_mismatch_exits_2(workspace, tmp_path, capsys):
    other_corpus = tmp_path / "other.csv"
    write_corpus(other_corpus, n_users=9, n_items=6, per_user=4, seed=8)
    other_data = tmp_path / "otherprep"
    assert main(["prepare", "--input", str(other_corpus), "--format", "csv",
                 "--out", str(other_data), "--seed", "1"]) == 0
    code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(other_data), "--split", "val"])
    assert code == 2
    err = capsys.readouterr().err
    assert "do not match" in err


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_checkpoint_review_len_above_prepared_exits_2(workspace, tmp_path, capsys,
                                                      command):
    ds = load_prepared(workspace["data"])
    dims = Dims(len(ds.vocab), ds.n_users, ds.n_items, 8, 4, 8, 8, 3, 4, 101, 4)
    ckpt = tmp_path / "long.nrpa"
    save_params(init_params(dims, seed=1), ckpt)
    extra = (["--split", "val"] if command == "eval" else
             ["--user", ds.user_keys[1], "--item", ds.item_keys[1]])
    code = main([command, "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                 *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "review_len 101" in err and "review_len 100" in err


@pytest.mark.parametrize("command", ["eval", "inspect"])
@pytest.mark.parametrize("config", ["oops", {"exclude_target": "false"}],
                         ids=["string", "exclude_target-string"])
def test_checkpoint_malformed_config_exits_2_naming_it(workspace, tmp_path, capsys,
                                                       command, config):
    ds = load_prepared(workspace["data"])
    dims = Dims(len(ds.vocab), ds.n_users, ds.n_items, 8, 4, 8, 8, 3, 4, 12, 4)
    ckpt = tmp_path / "meta.nrpa"
    save_params(init_params(dims, seed=1), ckpt, {"config": config})
    extra = (["--split", "val"] if command == "eval" else
             ["--user", ds.user_keys[1], "--item", ds.item_keys[1]])
    code = main([command, "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
                 *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "metadata config" in err


HUGE = 10 ** 12  # far past any machine's memory, in parameters or profiles


def run_traced(argv):
    """main(argv) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("key", ["id_dim", "num_reviews"])
@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_huge_dim_exits_2_before_allocating(workspace, tmp_path, capsys, command, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {HUGE}", TINY_CONFIG,
                          flags=re.MULTILINE))
    # sweep trains at its --dims, not at the config's id_dim
    extra = ["--dims", f"4,{HUGE}"] if command == "sweep" else []
    code, peak = run_traced([command, "--data", str(workspace["data"]), "--config",
                             str(cfg), "--out", str(tmp_path / "o"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and f"{key} = {HUGE} " in err and "physical memory" in err
    assert peak < 64 << 20
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_checkpoint_huge_num_reviews_exits_2_before_allocating(workspace, tmp_path,
                                                                capsys, command):
    """num_reviews sizes no tensor, so a checkpoint header can carry any u32
    there; the profile stores it would size are rejected."""
    ds = load_prepared(workspace["data"])
    num_reviews = 2 ** 32 - 1
    dims = Dims(len(ds.vocab), ds.n_users, ds.n_items, 8, 4, 8, 8, 3, 4, 12, num_reviews)
    ckpt = tmp_path / "huge.nrpa"
    save_params(init_params(dims, seed=1), ckpt)
    extra = (["--split", "val"] if command == "eval" else
             ["--user", ds.user_keys[1], "--item", ds.item_keys[1]])
    code, peak = run_traced([command, "--checkpoint", str(ckpt), "--data",
                             str(workspace["data"]), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"num_reviews = {num_reviews} " in err
    assert peak < 64 << 20


def test_train_checks_every_training_buffer_against_memory(workspace, tmp_path,
                                                           capsys, monkeypatch):
    """With physical memory between one and four parameter buffers, train
    exits 2 before allocating, while eval still loads a checkpoint of the
    same dims."""
    ds = load_prepared(workspace["data"])
    cfg = load_config(workspace["config"])
    dims = cfg.dims(len(ds.vocab), ds.n_users, ds.n_items)
    physical = 2 * 8 * param_count(dims)
    assert ProfileStore.nbytes(ds.n_users + ds.n_items, cfg.num_reviews,
                               cfg.review_len) < physical
    real_sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}.get(name) or real_sysconf(name))
    assert main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    key = re.search(r": (\w+) = (\d+) makes the 4 parameter-sized training buffers", err)
    assert key and key[1] in Dims.__dataclass_fields__ and "physical memory" in err
    assert int(key[2]) == getattr(dims, key[1])
    assert not (tmp_path / "o").exists()
    assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]), "--split", "val",
                 "--out", str(tmp_path / "eval.csv")]) == 0


def test_corrupt_prepared_data_exits_2_naming_the_file(workspace, tmp_path, capsys):
    def record_4_in_no_part(part):
        part[4] = 3
        return part
    data = resplit(workspace, tmp_path, record_4_in_no_part)
    code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(data), "--split", "val"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(data / "interactions.bin") in err and "record 4" in err


def test_non_utf8_config_exits_2_naming_it(workspace, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY_CONFIG.encode() + b"# caf\xe9\n")
    code = main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fmt", ["csv", "amazon-json"])
def test_non_utf8_corpus_exits_2_naming_it(workspace, tmp_path, capsys, fmt):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(workspace["corpus"].read_bytes() + b"u1,i1,4.0,caf\xe9\n")
    code = main(["prepare", "--input", str(corpus), "--format", fmt,
                 "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 2
    assert str(corpus) in capsys.readouterr().err


def test_csv_review_past_the_csv_module_limit_is_prepared(workspace, tmp_path):
    """A review longer than the csv module's default field limit of 131,072
    characters is read, like one in amazon-json."""
    corpus = tmp_path / "long.csv"
    corpus.write_text(workspace["corpus"].read_text() + "ulong,ilong,4.0,"
                      + "word " * 30000 + "\n")
    out = tmp_path / "o"
    assert main(["prepare", "--input", str(corpus), "--format", "csv",
                 "--out", str(out), "--seed", "1"]) == 0
    ds = load_prepared(out)
    long = ds.interactions[-1]
    assert ds.user_keys[long.user] == "ulong" and ds.item_keys[long.item] == "ilong"
    # "word" is in the vocabulary only if the record fell in the train split
    tokens = ds.vocab.id_to_token
    word = tokens.index("word") if "word" in tokens else UNK_ID
    assert long.tokens.tolist() == [word] * 100


@pytest.mark.parametrize("command", ["prepare", "train"])
def test_out_naming_a_file_exits_2_naming_it(workspace, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    args = (["--input", str(workspace["corpus"]), "--format", "csv", "--seed", "1"]
            if command == "prepare" else
            ["--data", str(workspace["data"]), "--config", str(workspace["config"])])
    assert main([command, *args, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("target", ["missing/out.csv", ".",
                                    pytest.param("n" * 300, id="name-over-255-bytes")])
@pytest.mark.parametrize("command,flag", [("eval", "--out"), ("eval", "--trace"),
                                          ("ablate", "--out"), ("sweep", "--out")])
def test_output_in_missing_directory_or_at_a_directory_exits_2_naming_it(
        workspace, tmp_path, capsys, command, flag, target):
    target = tmp_path / target
    args = (["--checkpoint", str(workspace["run"] / "checkpoint.nrpa"), "--split", "val"]
            if command == "eval" else ["--config", str(workspace["config"])])
    if command == "sweep":
        args += ["--dims", "4"]
    assert main([command, "--data", str(workspace["data"]), *args, flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert str(target) in err and out == ""  # nothing was scored or trained


@pytest.mark.parametrize("command,outputs,victim", [
    ("eval", {"--trace": "run/checkpoint.nrpa"}, "run/checkpoint.nrpa"),
    ("eval", {"--out": "prep/vocab.tsv"}, "prep/vocab.tsv"),
    ("eval", {"--trace": "run/both.txt", "--out": "run/both.txt"}, "run/both.txt"),
    ("eval", {"--trace": "run/../run/eval_val.csv"}, "run/eval_val.csv"),
    ("ablate", {"--out": "prep/interactions.bin"}, "prep/interactions.bin"),
    ("ablate", {"--out": "train.cfg"}, "train.cfg"),
    ("sweep", {"--out": "prep/items.tsv"}, "prep/items.tsv"),
], ids=["trace-is-checkpoint", "out-is-data-file", "trace-is-out", "trace-is-default-csv",
        "ablate-out-is-data-file", "ablate-out-is-config", "sweep-out-is-data-file"])
def test_output_naming_an_input_or_another_output_exits_2_naming_both(
        workspace, tmp_path, capsys, command, outputs, victim):
    """An output that is the same file as the checkpoint, the config, a file
    of --data or another output (eval's default eval_<split>.csv counts) is
    rejected before any work, and the file it names keeps its bytes."""
    shutil.copytree(workspace["data"], tmp_path / "prep")
    (tmp_path / "run").mkdir()
    shutil.copy(workspace["run"] / "checkpoint.nrpa", tmp_path / "run")
    shutil.copy(workspace["config"], tmp_path / "train.cfg")
    victim = tmp_path / victim
    if not victim.exists():
        victim.write_text("an earlier output\n")
    before = victim.read_bytes()
    args = (["--checkpoint", str(tmp_path / "run" / "checkpoint.nrpa"), "--split", "val"]
            if command == "eval" else ["--config", str(tmp_path / "train.cfg")])
    if command == "sweep":
        args += ["--dims", "4"]
    for flag, target in outputs.items():
        args += [flag, str(tmp_path / target)]
    assert main([command, "--data", str(tmp_path / "prep"), *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "same file" in err and str(victim) in err
    assert all(str(tmp_path / target) in err for target in outputs.values())
    assert victim.read_bytes() == before


def test_fingerprint_streams_to_the_whole_file_digest(tmp_path):
    rng = np.random.default_rng(0)
    files = {"interactions.bin": rng.bytes(2 * cli._FINGERPRINT_BLOCK + 123),
             "vocab.tsv": b"x", "users.tsv": b"", "items.tsv": b"<unk>\t0\n"}
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    (tmp_path / "history.csv").write_bytes(b"not a prepared file")  # not hashed
    (tmp_path / "sub").mkdir()
    whole = hashlib.sha256()
    for name in sorted(files):
        whole.update(name.encode("utf-8"))
        whole.update(files[name])
    assert cli._fingerprint(tmp_path) == whole.hexdigest()


def test_train_and_eval_build_no_record(workspace, tmp_path, monkeypatch, capsys):
    """`nrpa train` and `nrpa eval` keep the interactions as columns from
    disk to batch: with an Interactions' records made unbuildable, they
    give the outputs of a run that may build them."""
    def score(run):
        assert main(["eval", "--checkpoint", str(run / "checkpoint.nrpa"), "--data",
                     str(workspace["data"]), "--split", "test", "--out",
                     str(tmp_path / "eval.csv")]) == 0
        return capsys.readouterr().out

    want = score(workspace["run"])
    forbid_records(monkeypatch)
    run = tmp_path / "run"
    assert main(["train", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--out", str(run)]) == 0
    for name in ("checkpoint.nrpa", "history.csv"):
        assert (run / name).read_bytes() == (workspace["run"] / name).read_bytes()
    capsys.readouterr()
    assert score(run) == want


def test_train_into_its_data_directory_twice_records_one_fingerprint(workspace, tmp_path):
    """The second run's --data holds the first run's outputs too; only the
    prepared files are the dataset."""
    data = tmp_path / "prep"
    shutil.copytree(workspace["data"], data)
    prints = []
    for _ in range(2):
        assert main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(data)]) == 0
        prints.append(json.loads((data / "manifest.json").read_text())["dataset_fingerprint"])
    assert prints[0] == prints[1]
    assert json.loads((workspace["run"] / "manifest.json").read_text())[
        "dataset_fingerprint"] == prints[0]


def test_inspect_matches_trace_dump(workspace, tmp_path, capsys):
    ckpt = workspace["run"] / "checkpoint.nrpa"
    trace_path = tmp_path / "traces.jsonl"
    main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]),
          "--split", "test", "--trace", str(trace_path)])
    capsys.readouterr()
    ds = load_prepared(workspace["data"])
    first = json.loads(trace_path.read_text().splitlines()[0])
    user_key = ds.user_keys[first["user"]]
    item_key = ds.item_keys[first["item"]]

    assert main(["inspect", "--checkpoint", str(ckpt), "--data",
                 str(workspace["data"]), "--user", user_key, "--item",
                 item_key]) == 0
    out = capsys.readouterr().out
    printed = float(out.split("prediction: ")[1].split("\n")[0])
    assert printed == pytest.approx(first["prediction"], abs=1e-12)
    # betas shown in the human-readable trace appear in the JSON dump too
    for m in re.finditer(r"beta=([0-9.]+)", out):
        beta = float(m.group(1))
        pool = [round(b, 4) for b in first["user_beta"] + first["item_beta"]]
        assert round(beta, 4) in pool


def test_trace_dump_and_inspect_rerun_byte_identical(workspace, tmp_path, capsys):
    ckpt = str(workspace["run"] / "checkpoint.nrpa")
    ds = load_prepared(workspace["data"])
    inter = ds.split.test[0]
    dumps, shown = [], []
    for tag in ("a", "b"):
        trace_path = tmp_path / f"{tag}.jsonl"
        assert main(["eval", "--checkpoint", ckpt, "--data", str(workspace["data"]),
                     "--split", "test", "--trace", str(trace_path)]) == 0
        dumps.append(trace_path.read_bytes())
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", ckpt, "--data", str(workspace["data"]),
                     "--user", ds.user_keys[inter.user],
                     "--item", ds.item_keys[inter.item]]) == 0
        shown.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1]
    assert shown[0] == shown[1]


def test_inspect_alpha_rows_sum_to_one(workspace, capsys):
    ds = load_prepared(workspace["data"])
    inter = ds.split.test[0]
    assert main(["inspect", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]),
                 "--user", ds.user_keys[inter.user],
                 "--item", ds.item_keys[inter.item], "--top", "50"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        weights = [float(m.group(1)) for m in re.finditer(r":([0-9.]+)", line)]
        if weights:
            assert sum(weights) == pytest.approx(1.0, abs=5e-3)  # printed at 3dp


@pytest.mark.parametrize("top", [0, -2])
def test_inspect_top_below_one_exits_2_before_loading(tmp_path, capsys, top):
    # neither path exists, so a load before the check would name them instead
    code = main(["inspect", "--checkpoint", str(tmp_path / "missing.nrpa"),
                 "--data", str(tmp_path / "missing"), "--user", "u0", "--item", "i0",
                 "--top", str(top)])
    assert code == 2
    assert f"--top must be >= 1, got {top}" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["user", "item"])
def test_inspect_unknown_user_exits_2(workspace, capsys, side):
    keys = {"user": "u0", "item": "i0", side: "ghost"}
    code = main(["inspect", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                 "--data", str(workspace["data"]), "--user", keys["user"],
                 "--item", keys["item"]])
    assert code == 2
    assert f"unknown {side} 'ghost'" in capsys.readouterr().err


def test_sweep_single_dim(workspace, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--data", str(workspace["data"]), "--config",
                 str(workspace["config"]), "--dims", "4", "--out",
                 str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "d_id,val_mse"
    assert len(lines) == 2
    assert lines[1].startswith("4,")
    assert np.isfinite(float(lines[1].split(",")[1]))


def test_default_sweep_list_contains_32():
    from nrpa.cli import build_parser
    args = build_parser().parse_args(["sweep", "--data", "d", "--config", "c",
                                      "--out", "o"])
    assert "32" in args.dims.split(",")


def test_ablate_writes_six_variants(workspace, tmp_path, capsys):
    runs = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"{tag}.csv"
        assert main(["ablate", "--data", str(workspace["data"]), "--config",
                     str(workspace["config"]), "--out", str(out_csv)]) == 0
        runs.append(out_csv.read_bytes())
    assert runs[0] == runs[1]  # bit-for-bit under a fixed seed
    lines = runs[0].decode("utf-8").splitlines()
    assert lines[0] == "variant,mse"
    rows = [line.split(",") for line in lines[1:]]
    assert [name for name, _ in rows] == [name for name, _ in ABLATION_VARIANTS]
    assert all(np.isfinite(float(score)) for _, score in rows)


def test_parse_ablation_spec():
    spec = parse_ablation("word=uniform,review=uniform")
    assert spec == AblationSpec(word="uniform", review="uniform")
    spec = parse_ablation("user=uniform")
    assert spec.user == "uniform"
    with pytest.raises(UsageError):
        parse_ablation("wurd=uniform")
    with pytest.raises(UsageError):
        parse_ablation("word=average")
    with pytest.raises(UsageError, match="site 'word' given twice"):
        parse_ablation("word=uniform,word=personalized")


def test_load_config_types(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    text = b"seed = 7\nlearning_rate = 0.25\nexclude_target = false\nconv_activation = tanh\n"
    cfg_file.write_bytes(text)
    cfg = load_config(cfg_file)
    assert cfg.seed == 7 and cfg.learning_rate == 0.25
    assert cfg.exclude_target is False
    assert cfg.conv_activation == "tanh"
    cfg_file.write_bytes(codecs.BOM_UTF8 + text)  # a leading byte-order mark is dropped
    assert load_config(cfg_file) == cfg


def test_load_config_rejects_bad_values(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("seed = seven\n")
    with pytest.raises(UsageError, match="seed"):
        load_config(cfg_file)
    cfg_file.write_text("window = 4\n")
    with pytest.raises(UsageError, match="window"):
        load_config(cfg_file)
    cfg_file.write_text("word_dim = 0\n")  # a dim is rejected by Dims' rule, with the file
    with pytest.raises(UsageError, match=rf"^{re.escape(str(cfg_file))}: .*word_dim"):
        load_config(cfg_file)


# ---------------------------------------------------------------------------
# every config and argv ends in exit 0, 2 or 3
# ---------------------------------------------------------------------------

# out of range, non-finite, unparsable or huge for some key; valid for others
HOSTILE_VALUES = ["-1", "0", "1", "2", "3", "nan", "inf", "-inf", "1e400", "seven", "",
                  "true", "tanh", "sigmoid", str(HUGE)]
# max_epochs and patience are 1 or invalid, so no example trains long
SHORT_RUN_VALUES = st.sampled_from(["1"] * 5 + ["-1", "0", "nan", "one", ""])
NON_UTF8 = [b"\xff", b"\xe9", b"\xc3(", b"\x80abc"]


@st.composite
def config_texts(draw):
    base = dict(line.split(" = ") for line in TINY_CONFIG.strip().splitlines()[1:])
    changed = draw(st.sets(st.sampled_from(sorted(base)), max_size=3))
    lines = []
    for key, value in base.items():
        if key in ("max_epochs", "patience"):
            value = draw(SHORT_RUN_VALUES)
        elif key in changed:
            value = draw(st.sampled_from(HOSTILE_VALUES + [None]))
            if value is None:
                continue  # left to its default
        lines.append(f"{key} = {value}")
    if draw(st.integers(0, 5)) == 0:
        lines.append(draw(st.sampled_from(lines)))  # a key given twice
    if draw(st.integers(0, 5)) == 0:
        lines.append(f"{draw(st.sampled_from(['learningrate', 'dropout', '']))} = 1")
    text = "\n".join(lines).encode()
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NON_UTF8)) + text[at:]
    return text


@given(text=config_texts(),
       shape=st.sampled_from(["train", "ablate", "sweep", "no-out", "unknown-flag",
                              "eval-default-out-at-a-directory"]),
       dims=st.sampled_from(["4", "0", "2,1", "x", "", str(HUGE)]))
@example(text=TINY_CONFIG.replace("learning_rate = 5e-3", f"learning_rate = {HUGE}")
         .replace("max_epochs = 2", "max_epochs = 1").encode(),
         shape="ablate", dims="4")  # a squared gradient overflows in Adam: exit 3
@settings(max_examples=100, deadline=None)
def test_any_config_and_argv_exits_0_2_or_3(workspace, text, shape, dims):
    root = workspace["root"]
    cfg = root / "property.cfg"
    cfg.write_bytes(text)
    base = ["--data", str(workspace["data"]), "--config", str(cfg)]
    taken = root / "property-eval"
    if not taken.is_dir():  # eval's default CSV path is a directory
        (taken / "eval_val.csv").mkdir(parents=True)
        shutil.copy(workspace["run"] / "checkpoint.nrpa", taken)
    argv = {
        "train": ["train", *base, "--out", str(root / "property-run")],
        "ablate": ["ablate", *base, "--out", str(root / "property.csv")],
        "sweep": ["sweep", *base, "--dims", dims, "--out", str(root / "property.csv")],
        "no-out": ["train", *base],
        "unknown-flag": ["train", *base, "--out", str(root / "property-run"), "--fast"],
        "eval-default-out-at-a-directory": ["eval", "--checkpoint",
                                            str(taken / "checkpoint.nrpa"), "--data",
                                            str(workspace["data"]), "--split", "val"],
    }[shape]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        assert exc.code == 2
        event("argparse exit 2")
    else:
        assert code in (0, 2, 3)
        event(f"exit {code}")
    assert "Traceback" not in err.getvalue()


# the pieces --ablation strings are drawn from: every site and mode, unknown
# ones, case and option-like variants, and the empty string for empty terms
ABLATION_SITES = ["user", "item", "word", "review", "", "wurd", "Word", "-word"]
ABLATION_MODES = ["uniform", "personalized", "", "average", "Uniform"]
ABLATION_JOINS = ["=", "", "==", " = "]
STRAY_SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def ablation_specs(draw):
    """Comma lists of site-join-mode terms with stray spaces; sites repeat
    and terms come out empty as they are drawn."""
    terms = draw(st.lists(st.tuples(STRAY_SPACES, st.sampled_from(ABLATION_SITES),
                                    st.sampled_from(ABLATION_JOINS),
                                    st.sampled_from(ABLATION_MODES), STRAY_SPACES),
                          max_size=5))
    return ",".join("".join(term) for term in terms)


def exit_code(argv) -> int:
    """main(argv)'s exit code, argparse's included, with stdout dropped;
    asserts that stderr holds no traceback."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@given(spec=ablation_specs())
@example(spec="word=uniform,review=uniform")
@example(spec=" user=uniform ,, item=personalized,")
@settings(max_examples=40, deadline=None)
def test_any_eval_ablation_exits_0_or_2(workspace, spec):
    code = exit_code(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                      "--data", str(workspace["data"]), "--split", "test",
                      "--ablation", spec, "--out", str(workspace["root"] / "ablated.csv")])
    assert code in (0, 2)
    event(f"exit {code}")


# owner keys for inspect: known keys, half the time; else unknown keys, the
# reserved and padding names, option-like keys, any short text, or argv
# that is not UTF-8, which reaches main as surrogate escapes
HOSTILE_KEYS = st.one_of(st.sampled_from(["u99", "i99", "", "<unk>", "<pad>", "-u1"]),
                         st.text(max_size=4), st.sampled_from(NON_UTF8).map(os.fsdecode))
USER_KEYS = st.one_of(st.sampled_from(["u0", "u3", "u11", "i1"]), HOSTILE_KEYS)
ITEM_KEYS = st.one_of(st.sampled_from(["i0", "i1", "i7", "u3"]), HOSTILE_KEYS)
TOP_VALUES = st.one_of(st.integers(1, 10**9).map(str),
                       st.sampled_from(["0", "-1", "x", "", "1.5", "-"]))


@given(user=USER_KEYS, item=ITEM_KEYS, top=TOP_VALUES)
@example(user="u3", item="i1", top="5")
@example(user="u3", item="<unk>", top="5")
@settings(max_examples=60, deadline=None)
def test_any_inspect_keys_and_top_exit_0_or_2(workspace, user, item, top):
    code = exit_code(["inspect", "--checkpoint", str(workspace["run"] / "checkpoint.nrpa"),
                      "--data", str(workspace["data"]), "--user", user, "--item", item,
                      "--top", top])
    assert code in (0, 2)
    event(f"exit {code}")
