import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nrpa
from nrpa import BLAS_THREAD_VARS
from nrpa import model as M
from nrpa import training as T
from nrpa.data import PAD_ID, Interaction
from nrpa.evaluation import ABLATION_VARIANTS, evaluate
from conftest import TOY_DIMS, toy_batch, toy_stores
from gradcheck import grad_check, loss


def test_loss_zero_on_perfect_predictions(toy_params):
    stores = toy_stores()
    batch = toy_batch()
    preds, _, _ = M.predict_batch(toy_params, stores[0], stores[1],
                                  [b.user for b in batch], [b.item for b in batch])
    matched = [Interaction(b.user, b.item, float(p), None)
               for b, p in zip(batch, preds)]
    assert loss(matched, toy_params, stores, l2_weight=0.0) == pytest.approx(0.0, abs=1e-24)


def test_loss_constant_predictor_arithmetic(toy_params):
    """Zeroing all params except the FM bias makes the model the constant c;
    on ratings {1, 5} the loss is ((c-1)^2 + (c-5)^2) / 2."""
    params = toy_params.zeros_like()
    params.fm.bias[...] = 2.0
    stores = toy_stores()
    batch = [Interaction(1, 1, 1.0, None), Interaction(2, 2, 5.0, None)]
    expect = ((2.0 - 1.0) ** 2 + (2.0 - 5.0) ** 2) / 2
    assert loss(batch, params, stores) == pytest.approx(expect, abs=1e-15)


def attention_site(side, level):
    return [f"{side}.{level}_query_w", f"{side}.{level}_attn"]


# the tensors under L2: no bias, and no query MLP weights or pairing matrix of
# a uniform site
L2_ALWAYS = ["word_emb", "user_id_emb", "item_id_emb", "user.conv_w", "item.conv_w",
             "fm.linear", "fm.factors"]
L2_ATTENTION = {
    "full": attention_site("user", "word") + attention_site("user", "review")
    + attention_site("item", "word") + attention_site("item", "review"),
    "no-attention": [],
    "user-only": attention_site("user", "word") + attention_site("user", "review"),
    "item-only": attention_site("item", "word") + attention_site("item", "review"),
    "word-only": attention_site("user", "word") + attention_site("item", "word"),
    "review-only": attention_site("user", "review") + attention_site("item", "review"),
}


@pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
def test_loss_l2_term_matches_direct_summation(toy_params, variant):
    ablation = dict(ABLATION_VARIANTS)[variant]
    stores = toy_stores()
    batch = toy_batch()
    base = loss(batch, toy_params, stores, 0.0, ablation)
    with_l2 = loss(batch, toy_params, stores, 0.01, ablation)
    tensors = dict(toy_params.tensors())
    direct = sum(float(np.sum(tensors[name] ** 2))
                 for name in L2_ALWAYS + L2_ATTENTION[variant])
    assert with_l2 - base == pytest.approx(0.01 * direct, rel=1e-12)


def test_loss_rejects_empty_batch(toy_params):
    with pytest.raises(ValueError):
        loss([], toy_params, toy_stores())


def test_backward_loss_value_equals_loss(toy_params):
    stores = toy_stores()
    batch = toy_batch()
    value, _ = T.backward(batch, toy_params, stores, l2_weight=1e-3)
    assert value == loss(batch, toy_params, stores, l2_weight=1e-3)


def test_backward_zero_residual_means_zero_bias_gradient(toy_params):
    stores = toy_stores()
    pred, _, _ = M.forward(1, 1, stores[0], stores[1], toy_params)
    batch = [Interaction(1, 1, pred, None)]
    _, grads = T.backward(batch, toy_params, stores, l2_weight=0.0)
    assert grads.fm.bias == 0.0


def test_backward_untouched_embedding_rows_get_zero_gradient(toy_params):
    stores = toy_stores()
    _, grads = T.backward(toy_batch(), toy_params, stores, l2_weight=0.0)
    used = set(stores[0].tokens[stores[0].tokens != PAD_ID].tolist())
    # tokens feed conv windows, so neighbours of used positions matter too;
    # token 19 appears nowhere in the toy profiles
    assert 19 not in used
    assert not grads.word_emb[19].any()
    assert not grads.word_emb[PAD_ID].any()  # PAD is never read
    assert grads.word_emb[2].any()


def grad_check_all_tensors(params, batch, stores, l2, ablation=M.FULL_ATTENTION,
                           eps=1e-5, exclude_target=False):
    """Finite-difference sweep over every coordinate, the PAD embedding row's
    included."""
    _, grads = T.backward(batch, params, stores, l2, ablation, exclude_target)
    worst = {}
    for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
        def f(flat, name=name, shape=p.shape):
            trial = params.copy()
            dict(trial.tensors())[name][...] = flat.reshape(shape)
            return loss(batch, trial, stores, l2, ablation, exclude_target)
        worst[name] = grad_check(f, p.reshape(-1).copy(), g.reshape(-1).copy(), eps)
    return worst


def test_gradients_match_finite_differences(toy_params):
    worst = grad_check_all_tensors(toy_params, toy_batch(), toy_stores(), l2=1e-3)
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("ablation", [spec for _, spec in ABLATION_VARIANTS],
                         ids=[name for name, _ in ABLATION_VARIANTS])
def test_gradients_match_under_ablation(toy_params, ablation):
    worst = grad_check_all_tensors(toy_params, toy_batch(), toy_stores(), 1e-3,
                                   ablation)
    assert max(worst.values()) < 1e-4, worst
    _, grads = T.backward(toy_batch(), toy_params, toy_stores(), 0.0, ablation)
    for name in ("user", "item"):
        g = grads.side(name)
        for level in ("word", "review"):
            site = [getattr(g, f"{level}_{field}")
                    for field in ("query_w", "query_b", "attn")]
            if ablation.uniform(name, level):  # an ablated site is untrained
                assert not any(t.any() for t in site), (name, level)
            else:
                assert site[2].any(), (name, level)


def test_gradients_match_with_tanh_conv():
    params = M.init_params(TOY_DIMS, seed=11, conv_activation="tanh")
    worst = grad_check_all_tensors(params, toy_batch(), toy_stores(), l2=1e-3)
    assert max(worst.values()) < 1e-4, worst


def test_gradients_match_with_exclude_target(toy_params):
    # toy_batch() repeats each owner with different partners, so one owner's
    # pairs carry different review masks
    worst = grad_check_all_tensors(toy_params, toy_batch(), toy_stores(), 1e-3,
                                   exclude_target=True)
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
def test_l2_walk_in_blocks_splitting_tensors_is_bit_identical(toy_params,
                                                              monkeypatch, variant):
    """Blocks of 7 cut each tensor the walk takes; the L2 gradient is still
    exactly g + 2 l2 p on each regularized tensor and nothing elsewhere."""
    monkeypatch.setattr(T, "_ADAM_BLOCK", 7)
    ablation = dict(ABLATION_VARIANTS)[variant]
    stores, batch, l2 = toy_stores(), toy_batch(), 1e-3
    _, plain = T.backward(batch, toy_params, stores, 0.0, ablation)
    value, grads = T.backward(batch, toy_params, stores, l2, ablation)
    assert value == loss(batch, toy_params, stores, l2, ablation)
    expect = plain.copy()
    tensors, expected = dict(toy_params.tensors()), dict(expect.tensors())
    for name in L2_ALWAYS + L2_ATTENTION[variant]:
        expected[name] += 2.0 * l2 * tensors[name]
    assert np.array_equal(grads.flat, expect.flat)


@pytest.mark.parametrize("name", ["item.review_attn", "user.conv_b", "word_emb"])
def test_backward_names_a_non_finite_gradient_tensor(toy_params, monkeypatch, name):
    """Two tensors under L2 and one outside it. With blocks of 7 the NaN in
    the last element of item.review_attn or word_emb sits in a later block
    of its tensor, and is still named after that tensor."""
    real = M.backward_batch

    def poisoned(params, u_cache, i_cache, d_pred, grads):
        real(params, u_cache, i_cache, d_pred, grads)
        dict(grads.tensors())[name].flat[-1] = np.nan
    monkeypatch.setattr(M, "backward_batch", poisoned)
    for block in (T._ADAM_BLOCK, 7):
        monkeypatch.setattr(T, "_ADAM_BLOCK", block)
        with pytest.raises(FloatingPointError, match=f"gradient {name}$"):
            T.backward(toy_batch(), toy_params, toy_stores(), 1e-3)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_leave_params_unchanged(toy_params):
    grads = toy_params.zeros_like()
    state = T.AdamState.for_params(toy_params)
    before = {n: t.copy() for n, t in toy_params.tensors()}
    T.adam_step(toy_params, grads, state, lr=0.1)
    for name, t in toy_params.tensors():
        assert np.array_equal(t, before[name]), name


def test_adam_first_step_moves_against_gradient_sign(toy_params):
    grads = toy_params.zeros_like()
    grads.fm.linear[...] = np.where(np.arange(12) % 2, 0.5, -2.0)
    state = T.AdamState.for_params(toy_params)
    before = toy_params.fm.linear.copy()
    T.adam_step(toy_params, grads, state, lr=1e-3)
    delta = toy_params.fm.linear - before
    # bias-corrected first step is -lr * g / (|g| + eps) = -lr * sign(g)
    assert np.allclose(delta, -1e-3 * np.sign(grads.fm.linear), rtol=1e-6)


def scalar_adam(grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Reference single-parameter Adam, the independent oracle."""
    theta, m, v = 0.0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        trajectory.append(theta)
    return trajectory


def test_adam_matches_scalar_reference_for_five_steps(toy_params):
    params = toy_params
    params.fm.bias[...] = 0.0
    state = T.AdamState.for_params(params)
    g_seq = [0.3, -1.2, 0.7, 0.05, -0.4]
    seen = []
    for g in g_seq:
        grads = params.zeros_like()
        grads.fm.bias[...] = g
        T.adam_step(params, grads, state, lr=0.01)
        seen.append(float(params.fm.bias))
    assert np.allclose(seen, scalar_adam(g_seq, lr=0.01), atol=1e-15)


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_adam_pass_is_bit_identical_to_the_expressions(toy_params, monkeypatch, block):
    """Blocks that split tensors, and one block over the whole buffer, give
    exactly the textbook Adam expressions evaluated on whole arrays."""
    monkeypatch.setattr(T, "_ADAM_BLOCK", block)
    rng = np.random.default_rng(3)
    params, ref_p = toy_params, toy_params.flat.copy()
    ref_m, ref_v = np.zeros_like(ref_p), np.zeros_like(ref_p)
    state = T.AdamState.for_params(params)
    b1, b2 = T.ADAM_BETA1, T.ADAM_BETA2
    for t in range(1, 4):
        grads = params.zeros_like()
        grads.flat[:] = rng.normal(size=grads.flat.size)
        T.adam_step(params, grads, state, lr=0.01)
        g = grads.flat
        ref_m = b1 * ref_m + (1.0 - b1) * g
        ref_v = b2 * ref_v + (1.0 - b2) * (g * g)
        ref_p -= 0.01 * (ref_m / (1.0 - b1 ** t)) / (np.sqrt(ref_v / (1.0 - b2 ** t))
                                                      + T.ADAM_EPS)
        assert np.array_equal(params.flat, ref_p)
        assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)


def test_pad_embedding_row_is_never_read(toy_params):
    """A finite garbage PAD row leaves the predictions, the loss and every
    gradient bit-identical, and its own gradient row exactly 0. (At
    l2_weight 0: the L2 term reads every row.)"""
    stores, batch = toy_stores(), toy_batch()
    pairs = ([b.user for b in batch], [b.item for b in batch])
    garbage = toy_params.copy()
    garbage.word_emb[PAD_ID] = np.random.default_rng(0).normal(size=TOY_DIMS.word_dim) * 1e3
    for exclude in (False, True):
        preds = M.predict_batch(toy_params, *stores, *pairs, exclude)[0]
        assert np.array_equal(M.predict_batch(garbage, *stores, *pairs, exclude)[0], preds)
        value, grads = T.backward(batch, toy_params, stores, 0.0, exclude_target=exclude)
        got_value, got = T.backward(batch, garbage, stores, 0.0, exclude_target=exclude)
        assert got_value == value and np.array_equal(got.flat, grads.flat)
        assert not got.word_emb[PAD_ID].any()


def test_adam_single_step_decreases_batch_loss():
    """Strict decrease at small lr for 20 random seeds, allowing one
    curvature exception; failures are reported."""
    stores = toy_stores()
    batch = toy_batch()
    failures = []
    for seed in range(20):
        params = M.init_params(TOY_DIMS, seed=seed)
        before, grads = T.backward(batch, params, stores, l2_weight=0.0)
        state = T.AdamState.for_params(params)
        T.adam_step(params, grads, state, lr=1e-4)
        after = loss(batch, params, stores, l2_weight=0.0)
        if not after < before:
            failures.append((seed, before, after))
    if failures:
        print(f"adam non-decrease exceptions: {failures}")
    assert len(failures) <= 1


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_config(**over):
    base = dict(word_dim=8, id_dim=4, num_filters=8, attn_dim=8, window=3,
                fm_dim=4, review_len=12, num_reviews=4, learning_rate=5e-3,
                batch_size=16, max_epochs=4, patience=3, l2_weight=1e-6, seed=2)
    base.update(over)
    return T.TrainConfig(**base)


def test_train_history_bounded_and_deterministic(tiny_dataset, tiny_stores):
    cfg = small_config()
    p1, h1 = T.train(cfg, tiny_dataset, tiny_stores)
    p2, h2 = T.train(cfg, tiny_dataset, tiny_stores)
    assert len(h1) <= cfg.max_epochs
    assert [(r.epoch, r.train_loss, r.val_mse) for r in h1] == \
           [(r.epoch, r.train_loss, r.val_mse) for r in h2]
    for (n, a), (_, b) in zip(p1.tensors(), p2.tensors()):
        assert np.array_equal(a, b), n


def test_train_returns_min_validation_params(tiny_dataset, tiny_stores):
    cfg = small_config(max_epochs=6, patience=2)
    params, history = T.train(cfg, tiny_dataset, tiny_stores)
    best = min(r.val_mse for r in history)
    got = evaluate(params, tiny_dataset.split.validation, tiny_stores,
                   exclude_target=cfg.exclude_target)
    assert got == best


def test_train_early_stopping_respects_patience(tiny_dataset, tiny_stores):
    cfg = small_config(max_epochs=50, patience=1, learning_rate=0.5)  # thrash
    _, history = T.train(cfg, tiny_dataset, tiny_stores)
    assert len(history) < 50


def test_train_diverges_cleanly(tiny_dataset, tiny_stores):
    # Adam normalizes updates, so divergence needs a step large enough to
    # overflow the forward pass outright
    cfg = small_config(learning_rate=1e200, max_epochs=3)
    with np.errstate(all="ignore"):
        with pytest.raises((T.TrainingDiverged, FloatingPointError)):
            T.train(cfg, tiny_dataset, tiny_stores)


def test_train_holds_five_parameter_sized_buffers(tiny_dataset, tiny_stores):
    """At dims where word_emb is nearly every parameter, train's traced peak
    stays below 5.5 parameter buffers: parameters, gradients, Adam m and v
    and the best copy, with no whole-model temporary and no second copy."""
    cfg = small_config(word_dim=16, max_epochs=3, patience=3)
    wide = SimpleNamespace(vocab=range(100_000), n_users=tiny_dataset.n_users,
                           n_items=tiny_dataset.n_items, split=tiny_dataset.split)
    dims = cfg.dims(len(wide.vocab), wide.n_users, wide.n_items)
    nbytes = 8 * M.param_count(dims)
    tracemalloc.start()
    try:
        T.train(cfg, wide, tiny_stores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * nbytes, peak / nbytes


# 4 Adam steps at full.cfg dims (review_len 60, 8 reviews) on a 3000-record
# Zipf corpus of ~7.6k word types, where a threaded GEMM's summation order shows
# in the gradient bits; prints the sha256 of the parameters
BLAS_PROBE = """
import hashlib
import nrpa
import numpy as np
from nrpa import model as M, training as T
from nrpa.data import RawRecord, build_profiles, prepare_dataset

rng = np.random.default_rng(0)
zipf = 1.0 / np.arange(1, 8001)
words = np.array([f"w{r}" for r in range(8000)])
records = [RawRecord(f"u{rng.integers(300)}", f"i{rng.integers(150)}",
                     float(rng.integers(1, 6)),
                     " ".join(rng.choice(words, size=60, p=zipf / zipf.sum())))
           for _ in range(3000)]
ds = prepare_dataset(records, seed=1, review_len=60)
cfg = T.TrainConfig(review_len=60, num_reviews=8, batch_size=50)
stores = build_profiles(ds.split.train, 60, 8, ds.n_users, ds.n_items)
params = M.init_params(cfg.dims(len(ds.vocab), ds.n_users, ds.n_items), cfg.seed)
state = T.AdamState.for_params(params)
for lo in range(0, 200, 50):
    _, grads = T.backward(ds.split.train[lo:lo + 50], params, stores, cfg.l2_weight)
    T.adam_step(params, grads, state, cfg.learning_rate)
print(hashlib.sha256(params.flat.tobytes()).hexdigest())
"""


def test_default_blas_threads_give_the_one_thread_bits():
    """Importing nrpa pins BLAS to one thread unless the caller set a count,
    so a run that sets nothing gives the bits of a run that sets 1. Each run
    is a fresh process, because BLAS reads the count when numpy loads. On a
    one-core host the default is one thread anyway, so there this test
    cannot tell a pinned package from an unpinned one."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(nrpa.__file__).parent.parent)
    digests = []
    for pinned in ({}, {var: "1" for var in BLAS_THREAD_VARS}):
        run = subprocess.run([sys.executable, "-c", BLAS_PROBE], env={**env, **pinned},
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(window=2).validate()
    with pytest.raises(ValueError):
        small_config(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        small_config(patience=0).validate()
    small_config().validate()
    # checked when built, model dims by Dims' rule, and never changed after
    with pytest.raises(ValueError, match="word_dim"):
        small_config(word_dim=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_config().window = 2
