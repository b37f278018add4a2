import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpa import model as M
from nrpa.checkpoint import MAGIC, CheckpointError, load_params, save_params
from nrpa.evaluation import ABLATION_VARIANTS, evaluate
from nrpa.training import TrainConfig, train
from conftest import TOY_DIMS


def test_save_load_save_byte_identical(tmp_path, toy_params):
    p1 = tmp_path / "a.nrpa"
    p2 = tmp_path / "b.nrpa"
    save_params(toy_params, p1, {"note": "x"})
    loaded, meta = load_params(p1)
    assert meta["note"] == "x"
    save_params(loaded, p2, {"note": "x"})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_restores_every_tensor_exactly(tmp_path, toy_params):
    path = tmp_path / "c.nrpa"
    save_params(toy_params, path)
    loaded, _ = load_params(path)
    assert loaded.dims == toy_params.dims
    assert loaded.conv_activation == toy_params.conv_activation
    for (name, a), (_, b) in zip(toy_params.tensors(), loaded.tensors()):
        assert np.array_equal(a, b), name


def test_loaded_params_are_writable_and_independent(tmp_path, toy_params):
    path = tmp_path / "d.nrpa"
    save_params(toy_params, path)
    loaded, _ = load_params(path)
    loaded.word_emb[1, 0] += 1.0  # must not raise (frombuffer copies)
    reloaded, _ = load_params(path)
    assert reloaded.word_emb[1, 0] == toy_params.word_emb[1, 0]


def test_tanh_activation_round_trips(tmp_path):
    params = M.init_params(TOY_DIMS, seed=1, conv_activation="tanh")
    path = tmp_path / "t.nrpa"
    save_params(params, path)
    loaded, _ = load_params(path)
    assert loaded.conv_activation == "tanh"


@pytest.mark.parametrize("activation", ["sigmoid", None, ["relu"]])
def test_unknown_activation_rejected(tmp_path, toy_params, activation):
    params = toy_params.copy()
    params.conv_activation = activation
    path = tmp_path / "act.nrpa"
    save_params(params, path)
    want = rf"act.nrpa: conv_activation must be .*, got {re.escape(repr(activation))}$"
    with pytest.raises(CheckpointError, match=want):
        load_params(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.nrpa"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_params(path)


def test_bad_version_rejected(tmp_path, toy_params):
    path = tmp_path / "v.nrpa"
    save_params(toy_params, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_params(path)


def test_trailing_bytes_rejected(tmp_path, toy_params):
    path = tmp_path / "trail.nrpa"
    save_params(toy_params, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_params(path)


def test_checkpoint_reproduces_validation_mse_exactly(tmp_path, tiny_dataset,
                                                      tiny_stores):
    cfg = TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8, window=3,
                      fm_dim=4, review_len=12, num_reviews=4, learning_rate=5e-3,
                      batch_size=16, max_epochs=3, patience=3, l2_weight=1e-6, seed=5)
    params, history = train(cfg, tiny_dataset, tiny_stores)
    before = evaluate(params, tiny_dataset.split.validation, tiny_stores,
                      exclude_target=cfg.exclude_target)
    assert before == min(r.val_mse for r in history)
    path = tmp_path / "model.nrpa"
    save_params(params, path)
    loaded, _ = load_params(path)
    after = evaluate(loaded, tiny_dataset.split.validation, tiny_stores,
                     exclude_target=cfg.exclude_target)
    assert after == before  # bit-exact reproduction


# golden sha256 of two checkpoints: the file format, the init draws and the
# training arithmetic must all stay bit for bit
INIT_SEED7_SHA256 = "d0b861fb60c7abb28793a87f0d35a309083f6428d0920ca1c75066f402d6a595"
TRAIN_SEED5_SHA256 = "3678c7c988087598b8053dfc927a8849949de45fc8b1c10e903ecda0c2342a78"


def test_init_checkpoint_bytes_are_golden(tmp_path):
    path = tmp_path / "init.nrpa"
    save_params(M.init_params(TOY_DIMS, seed=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_SEED7_SHA256


def trained_checkpoint_sha256(tmp_path, dataset, stores, ablation=M.FULL_ATTENTION):
    cfg = TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8, window=3,
                      fm_dim=4, review_len=12, num_reviews=4, learning_rate=5e-3,
                      batch_size=16, max_epochs=3, patience=3, l2_weight=1e-6, seed=5)
    params, _ = train(cfg, dataset, stores, ablation)
    path = tmp_path / "trained.nrpa"
    save_params(params, path, {"config": {"seed": 5}})
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trained_checkpoint_bytes_are_golden(tmp_path, tiny_dataset, tiny_stores):
    assert trained_checkpoint_sha256(tmp_path, tiny_dataset, tiny_stores) == \
        TRAIN_SEED5_SHA256


# the same training with every attention site uniform, and with only the
# word level uniform: the pooling of uniform sites and their
# attention_pool_backward arithmetic stay bit for bit
ABLATED_SEED5_SHA256 = {
    "no-attention": "e54737a73f7ee4e900f9ca148fb54f09b2fbc3336a6f575f66305cc2ad9ab9f8",
    "review-only": "8863d06498aa84dabea69f1e51da0e6f1d988f05be5884409ce7cce0b721d266",
}


@pytest.mark.parametrize("variant", sorted(ABLATED_SEED5_SHA256))
def test_ablated_trained_checkpoint_bytes_are_golden(tmp_path, tiny_dataset, tiny_stores,
                                                     variant):
    ablation = dict(ABLATION_VARIANTS)[variant]
    assert trained_checkpoint_sha256(tmp_path, tiny_dataset, tiny_stores, ablation) == \
        ABLATED_SEED5_SHA256[variant]


@pytest.mark.parametrize("field,offset,value", [("review_len", 44, 150),
                                                 ("num_reviews", 48, 9)])
def test_header_dim_contradicting_config_rejected(tmp_path, toy_params, field, offset,
                                                  value):
    """review_len and num_reviews size no tensor, so only the saved config
    can tell that the header was changed."""
    path = tmp_path / "dims.nrpa"

    def save_with_header_dim(config):
        save_params(toy_params, path, {"config": config})
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(blob))

    config = {"review_len": TOY_DIMS.review_len, "num_reviews": TOY_DIMS.num_reviews}
    save_with_header_dim(config)
    with pytest.raises(CheckpointError, match=f"dims.nrpa: header {field} {value} "):
        load_params(path)
    del config[field]  # a field the config does not hold is not checked
    save_with_header_dim(config)
    assert getattr(load_params(path)[0].dims, field) == value


@pytest.mark.parametrize("config", ["oops", None, [1], {"exclude_target": "false"},
                                    {"exclude_target": 0}],
                         ids=["string", "null", "list", "exclude_target-string",
                              "exclude_target-int"])
def test_malformed_metadata_config_rejected(tmp_path, toy_params, config):
    path = tmp_path / "meta.nrpa"
    save_params(toy_params, path, {"config": config})
    with pytest.raises(CheckpointError, match="meta.nrpa: metadata config"):
        load_params(path)
    save_params(toy_params, path, {"config": {"exclude_target": False}})
    assert load_params(path)[1]["config"]["exclude_target"] is False


def test_too_deeply_nested_metadata_rejected(tmp_path, toy_params):
    """json.dumps cannot write metadata this deep, so its bytes are spliced
    in by hand, with the header's metadata length at offset 52."""
    path = tmp_path / "deep.nrpa"
    save_params(toy_params, path)
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 52)
    deep = b"[" * 200_000 + b"]" * 200_000
    path.write_bytes(blob[:52] + struct.pack("<I", len(deep)) + deep + blob[56 + meta_len:])
    with pytest.raises(CheckpointError, match="deep.nrpa: unreadable metadata"):
        load_params(path)


def test_magic_bytes_spell_format_name(tmp_path, toy_params):
    path = tmp_path / "m.nrpa"
    save_params(toy_params, path)
    assert path.read_bytes()[:4] == MAGIC == b"NRPA"


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("corrupt") / "good.nrpa"
    save_params(M.init_params(TOY_DIMS, seed=7), path, {"config": {"seed": 7}})
    return path


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_truncation_raises_checkpoint_error(saved_checkpoint, data):
    blob = saved_checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="kept bytes")
    path = saved_checkpoint.with_name("cut.nrpa")
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError, match="cut.nrpa"):
        load_params(path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_byte_flip_loads_or_raises_checkpoint_error(saved_checkpoint, data):
    blob = bytearray(saved_checkpoint.read_bytes())
    # bias half the flips into the header and metadata, where parsing happens
    limit = data.draw(st.sampled_from([120, len(blob)]), label="region")
    pos = data.draw(st.integers(0, limit - 1), label="position")
    blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = saved_checkpoint.with_name("flipped.nrpa")
    path.write_bytes(bytes(blob))
    try:
        params, meta = load_params(path)
    except CheckpointError as exc:
        assert "flipped.nrpa" in str(exc)
    else:
        M.Dims(*dataclasses.astuple(params.dims))
        assert isinstance(meta, dict)
