import dataclasses
import importlib.util
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nrpa
from nrpa import BLAS_THREAD_VARS
from nrpa import model as M
from nrpa import training as T
from nrpa.cli import load_config
from nrpa.data import PAD_ID, Interaction, build_profiles, parse_reviews, prepare_dataset
from nrpa.evaluation import ABLATION_VARIANTS, evaluate
from conftest import TOY_DIMS, forbid_records, toy_batch, toy_stores
from gradcheck import dense_gradient, grad_check, loss


def test_loss_zero_on_perfect_predictions(toy_params):
    stores = toy_stores()
    batch = toy_batch()
    preds, _, _ = M.predict_batch(toy_params, stores[0], stores[1],
                                  [b.user for b in batch], [b.item for b in batch],
                                  exclude_target=False)
    matched = [Interaction(b.user, b.item, float(p), None)
               for b, p in zip(batch, preds)]
    assert loss(matched, toy_params, stores, l2_weight=0.0) == pytest.approx(0.0, abs=1e-24)


def test_loss_constant_predictor_arithmetic(toy_params):
    """Zeroing all params except the FM bias makes the model the constant c;
    on ratings {1, 5} the loss is ((c-1)^2 + (c-5)^2) / 2."""
    params = toy_params.copy()
    params.flat[:] = 0.0
    params.fm.bias[...] = 2.0
    stores = toy_stores()
    batch = [Interaction(1, 1, 1.0, None), Interaction(2, 2, 5.0, None)]
    expect = ((2.0 - 1.0) ** 2 + (2.0 - 5.0) ** 2) / 2
    assert loss(batch, params, stores) == pytest.approx(expect, abs=1e-15)


# the tensors under L2 under every ablation: every tensor but the biases, the
# query MLP weights and pairing matrices of uniform sites included
L2_TENSORS = ["word_emb", "user_id_emb", "item_id_emb"] + [
    f"{side}.{field}" for side in ("user", "item")
    for field in ("conv_w", "word_query_w", "word_attn", "review_query_w", "review_attn")
] + ["fm.linear", "fm.factors"]


@pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
def test_loss_l2_term_matches_direct_summation(toy_params, variant):
    ablation = dict(ABLATION_VARIANTS)[variant]
    stores = toy_stores()
    batch = toy_batch()
    base = loss(batch, toy_params, stores, 0.0, ablation)
    with_l2 = loss(batch, toy_params, stores, 0.01, ablation)
    tensors = dict(toy_params.tensors())
    direct = sum(float(np.sum(tensors[name] ** 2)) for name in L2_TENSORS)
    assert with_l2 - base == pytest.approx(0.01 * direct, rel=1e-12)


def test_l2_value_matches_fsum_where_tensors_exceed_64k_elements():
    """At word_dim 300 and 80 filters, word_emb and both conv_w hold more
    than 65,536 elements each; the L2 value still agrees with math.fsum of
    the squares to 1e-12 relative."""
    dims = M.Dims(vocab_size=300, n_users=3, n_items=3, word_dim=300, id_dim=4,
                  num_filters=80, attn_dim=6, window=3, fm_dim=2, review_len=7,
                  num_reviews=3)
    params = M.init_params(dims, seed=5)
    tensors = dict(params.tensors())
    assert min(tensors[n].size for n in ("word_emb", "user.conv_w", "item.conv_w")) > 1 << 16
    direct = math.fsum(x * x for name in L2_TENSORS for x in tensors[name].ravel().tolist())
    assert T._l2_value(params, 0.01) == pytest.approx(0.01 * direct, rel=1e-12)


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
    pred, _, _ = M.forward(1, 1, stores[0], stores[1], toy_params, exclude_target=False)
    batch = [Interaction(1, 1, pred, None)]
    _, grads = T.backward(batch, toy_params, stores, l2_weight=0.0)
    assert grads.fm.bias == 0.0


def test_backward_untouched_embedding_rows_get_zero_gradient(toy_params):
    stores = toy_stores()
    grads = dense_gradient(toy_params,
                           T.backward(toy_batch(), toy_params, stores, l2_weight=0.0)[1])
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
    grads = dense_gradient(params, T.backward(batch, params, stores, l2, ablation,
                                              exclude_target)[1])
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
        g = getattr(grads, name)
        for level in ("word", "review"):
            site = [getattr(g, f"{level}_{field}")
                    for field in ("query_w", "query_b", "attn")]
            if ablation.uniform(name, level):  # no data gradient reaches it
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


REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def paper_shape():
    """configs/full.cfg dims, tanh activation, on a seeded 2000-record Zipf
    corpus from the benchmark's generator, after 3 Adam steps on batches of
    8; returns (params, stores, batch, l2_weight), the batch 8 training
    pairs, 2 for each of 4 users whose profiles are about half empty."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  REPO / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    csv = corpus.generate_csv(corpus.CorpusSpec(records=2000, users=300, items=100,
                                                types=5000, zipf_s=0.9, min_len=60,
                                                max_len=140), seed=11)
    ds = prepare_dataset(parse_reviews(io.BytesIO(csv), "csv")[0], seed=12)
    cfg = load_config(REPO / "configs" / "full.cfg")
    stores = build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                            ds.n_users, ds.n_items)
    params = M.init_params(cfg.dims(len(ds.vocab), ds.n_users, ds.n_items), seed=3,
                           conv_activation="tanh")
    train, state = ds.split.train, T.AdamState.for_params(params)
    for lo in range(0, 24, 8):
        _, grads = T.backward(train[np.arange(lo, lo + 8)], params, stores, cfg.l2_weight)
        T.adam_step(params, grads, state, cfg.learning_rate)
    filled = (stores[0].partner >= 0).mean(axis=1)
    half = np.flatnonzero((filled[train.users] > 0.3) & (filled[train.users] < 0.7))
    users = list(dict.fromkeys(train.users[half].tolist()))[:4]
    pairs = np.concatenate([half[train.users[half] == u][:2] for u in users])
    return params, stores, train[pairs], cfg.l2_weight


# exclude_target changes only the review mask, so these two cases check
# word attention, review attention with and without the exclusion, and a
# uniform site
@pytest.mark.parametrize("variant, exclude_target", [("full", True), ("review-only", False)])
def test_gradients_match_at_the_paper_dims(paper_shape, variant, exclude_target):
    """Central differences of the loss along one random unit direction in
    each tensor in turn, against backward's directional derivative: at most
    1e-6 relative at eps 1e-5. Below 1e-3 the error is taken absolutely,
    1e-9, above the difference quotient's round-off, about
    eps_mach |loss| / eps = 4e-10 at this loss of about 17. The activation
    is tanh, as ReLU's kink lies within eps of some of the 1.4e6
    pre-activations a batch has here, where a central difference is no
    derivative. Each user has 2 pairs, so under exclude_target one owner's
    encoding is pooled under two review masks."""
    params, stores, batch, l2 = paper_shape
    assert len(batch) == 8 and len(set(batch.users.tolist())) == 4
    assert 0.3 < 1.0 - (stores[0].partner[batch.users] >= 0).mean() < 0.7
    ablation = dict(ABLATION_VARIANTS)[variant]
    grads = dense_gradient(params, T.backward(batch, params, stores, l2, ablation,
                                              exclude_target)[1])
    rng, eps, worst = np.random.default_rng(5), 1e-5, {}
    for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
        d = rng.normal(size=p.shape)
        d /= np.linalg.norm(d)
        saved = p.copy()
        f = []
        for step in (eps, -eps):
            p[...] = saved + step * d
            f.append(loss(batch, params, stores, l2, ablation, exclude_target))
        p[...] = saved
        numeric, analytic = (f[0] - f[1]) / (2 * eps), float(np.vdot(g, d))
        worst[name] = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
    assert max(worst.values()) <= 1e-6, worst


@pytest.mark.parametrize("variant", [name for name, _ in ABLATION_VARIANTS])
def test_l2_gradient_is_exactly_g_plus_2_l2_p_under_every_ablation(toy_params, variant):
    """The L2 gradient is exactly g + 2 l2 p on each regularized tensor and
    nothing elsewhere, and the value is gradcheck.loss's bit for bit."""
    ablation = dict(ABLATION_VARIANTS)[variant]
    stores, batch, l2 = toy_stores(), toy_batch(), 1e-3
    _, plain = T.backward(batch, toy_params, stores, 0.0, ablation)
    value, grads = T.backward(batch, toy_params, stores, l2, ablation)
    assert value == loss(batch, toy_params, stores, l2, ablation)
    expect = dense_gradient(toy_params, plain)
    tensors, expected = dict(toy_params.tensors()), dict(expect.tensors())
    for name in L2_TENSORS:
        expected[name] += 2.0 * l2 * tensors[name]
    assert np.array_equal(dense_gradient(toy_params, grads).flat, expect.flat)


@pytest.mark.parametrize("name", ["item.review_attn", "user.conv_b"])
def test_backward_names_a_non_finite_gradient_tensor(toy_params, monkeypatch, name):
    """A NaN in the last element of a tensor under L2, or of one outside
    it, is named after that tensor."""
    real = M.backward_batch

    def poisoned(params, u_cache, i_cache, d_pred, grads):
        real(params, u_cache, i_cache, d_pred, grads)
        dict(grads.tensors())[name].flat[-1] = np.nan
    monkeypatch.setattr(M, "backward_batch", poisoned)
    with pytest.raises(FloatingPointError, match=f"gradient {name}$"):
        T.backward(toy_batch(), toy_params, toy_stores(), 1e-3)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_leave_params_unchanged(toy_params):
    grads = M.Gradients(TOY_DIMS)
    state = T.AdamState.for_params(toy_params)
    before = {n: t.copy() for n, t in toy_params.tensors()}
    T.adam_step(toy_params, grads, state, lr=0.1)
    for name, t in toy_params.tensors():
        assert np.array_equal(t, before[name]), name


def test_adam_first_step_moves_against_gradient_sign(toy_params):
    grads = M.Gradients(TOY_DIMS)
    grads.fm.linear[...] = np.where(np.arange(12) % 2, 0.5, -2.0)
    state = T.AdamState.for_params(toy_params)
    before = toy_params.fm.linear.copy()
    T.adam_step(toy_params, grads, state, lr=1e-3)
    delta = toy_params.fm.linear - before
    # bias-corrected first step is -lr * g / (|g| + eps) = -lr * sign(g)
    assert np.allclose(delta, -1e-3 * np.sign(grads.fm.linear), rtol=1e-6)


def test_adam_overflow_raises_floating_point_error(toy_params):
    """A gradient whose square passes the float range is a divergence, not a
    RuntimeWarning."""
    grads = M.Gradients(TOY_DIMS)
    grads.fm.linear[0] = 1e200
    with pytest.raises(FloatingPointError, match="overflow"):
        T.adam_step(toy_params, grads, T.AdamState.for_params(toy_params), lr=1e-3)


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
        grads = M.Gradients(params.dims)
        grads.fm.bias[...] = g
        T.adam_step(params, grads, state, lr=0.01)
        seen.append(float(params.fm.bias))
    assert np.allclose(seen, scalar_adam(g_seq, lr=0.01), atol=1e-15)


def efficient_adam(p, m, v, g, t, lr):
    """Kingma & Ba's efficient form of one Adam step on whole arrays, the
    expressions adam_step evaluates block by block; returns (p, m, v)."""
    b1, b2 = T.ADAM_BETA1, T.ADAM_BETA2
    root2 = math.sqrt(1.0 - b2 ** t)
    alpha = lr * root2 / (1.0 - b1 ** t)
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    return p - alpha * (m / (np.sqrt(v) + T.ADAM_EPS * root2)), m, v


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_adam_pass_is_bit_identical_to_the_expressions(toy_params, monkeypatch, block):
    """Blocks that split tensors, and one block over the whole buffer, give
    exactly the efficient-form Adam expressions evaluated on whole arrays,
    for a gradient with every word_emb row touched."""
    monkeypatch.setattr(T, "_ADAM_BLOCK", block)
    rng = np.random.default_rng(3)
    params, ref_p = toy_params, toy_params.flat.copy()
    ref_m, ref_v = np.zeros_like(ref_p), np.zeros_like(ref_p)
    state = T.AdamState.for_params(params)
    for t in range(1, 4):
        grads = M.Gradients(TOY_DIMS)
        grads.word_rows.append((np.arange(TOY_DIMS.vocab_size),
                                rng.normal(size=params.word_emb.shape)))
        grads.flat[:] = rng.normal(size=grads.flat.size)
        T.adam_step(params, grads, state, lr=0.01)
        g = dense_gradient(params, grads).flat
        ref_p, ref_m, ref_v = efficient_adam(ref_p, ref_m, ref_v, g, t, 0.01)
        assert np.array_equal(params.flat, ref_p)
        assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)


def touched_rows(vocab: int):
    """Sorted distinct word_emb rows, PAD and row vocab - 1 among the choices."""
    return st.lists(st.integers(0, vocab - 1), unique=True, max_size=vocab).map(sorted)


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from([7, TOY_DIMS.word_dim - 1, TOY_DIMS.word_dim + 1,
                              3 * TOY_DIMS.word_dim, 1 << 16]),
       user_ids=touched_rows(TOY_DIMS.vocab_size),
       item_ids=touched_rows(TOY_DIMS.vocab_size),
       l2_weight=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 2 ** 32 - 1))
@example(block=7, user_ids=[], item_ids=[], l2_weight=1e-3, seed=0)
@example(block=7, user_ids=[PAD_ID, 1, TOY_DIMS.vocab_size - 1],
         item_ids=[1, 2, TOY_DIMS.vocab_size - 1], l2_weight=0.0, seed=1)
@example(block=TOY_DIMS.word_dim + 1, user_ids=[1], item_ids=[], l2_weight=1e-3, seed=2)
@example(block=3 * TOY_DIMS.word_dim, user_ids=[2, 3, TOY_DIMS.vocab_size - 2],
         item_ids=[TOY_DIMS.vocab_size - 1], l2_weight=1e-3, seed=3)
def test_adam_word_walk_is_the_dense_gradient_then_the_expressions(block, user_ids, item_ids,
                                                                    l2_weight, seed):
    """adam_step's one walk over word_emb, bit for bit: the dense gradient
    (zeros, the user rows, the item rows, then 2 l2_weight p) followed by
    the efficient-form expressions on whole arrays. At word_dim 5 and 20
    rows, blocks of 4 (narrower than one row), 6 and 7 elements walk one
    whole row at a time; 15 walks 3 rows at a time, so the last block holds
    the 2 rows left over; 1 << 16 walks the whole table at once. The row
    sets include none, PAD and the last row."""
    rng = np.random.default_rng(seed)
    params = M.init_params(TOY_DIMS, seed=7)
    state = T.AdamState(3, rng.normal(size=params.flat.size),
                        rng.random(params.flat.size))
    grads = M.Gradients(TOY_DIMS, l2_weight)
    for ids in (user_ids, item_ids):
        grads.word_rows.append((np.array(ids, dtype=np.intp),
                                rng.normal(size=(len(ids), TOY_DIMS.word_dim))))
    grads.flat[:] = rng.normal(size=grads.flat.size)

    g = np.zeros(params.word_emb.shape)
    for ids, rows in grads.word_rows:
        g[ids] += rows
    if l2_weight:
        g += params.word_emb * (2.0 * l2_weight)
    g = np.concatenate([g.ravel(), grads.flat])
    want = efficient_adam(params.flat, state.m, state.v, g, 4, 0.01)

    T._ADAM_BLOCK, saved = block, T._ADAM_BLOCK
    try:
        T.adam_step(params, grads, state, lr=0.01)
    finally:
        T._ADAM_BLOCK = saved
    assert state.step == 4
    for got, ref in zip((params.flat, state.m, state.v), want):
        assert got.tobytes() == ref.tobytes()


def test_adam_names_a_non_finite_word_row_before_changing_anything(toy_params):
    """A NaN in a word_emb gradient row raises before any byte of the
    parameters or the moments changes."""
    stores, batch = toy_stores(), toy_batch()
    state = T.AdamState.for_params(toy_params)
    T.adam_step(toy_params, T.backward(batch, toy_params, stores, 1e-3)[1], state, lr=1e-3)
    _, grads = T.backward(batch, toy_params, stores, 1e-3)
    grads.word_rows[1][1][-1, -1] = np.nan
    before = [a.tobytes() for a in (toy_params.flat, state.m, state.v)]
    with pytest.raises(FloatingPointError, match="gradient word_emb$"):
        T.adam_step(toy_params, grads, state, lr=1e-3)
    assert [a.tobytes() for a in (toy_params.flat, state.m, state.v)] == before
    assert state.step == 1


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
        grads, got = dense_gradient(toy_params, grads), dense_gradient(garbage, got)
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
        with pytest.raises(FloatingPointError, match="^training diverged at epoch 1, batch "):
            T.train(cfg, tiny_dataset, tiny_stores)


def test_train_and_evaluate_build_no_record(tiny_dataset, tiny_stores, monkeypatch):
    """One epoch of train() and an evaluate over a split take every batch as
    columns, to the same bits as with records allowed."""
    cfg = small_config(max_epochs=1)
    want, want_history = T.train(cfg, tiny_dataset, tiny_stores)
    want_mse = evaluate(want, tiny_dataset.split.test, tiny_stores, exclude_target=True)
    forbid_records(monkeypatch)
    got, history = T.train(cfg, tiny_dataset, tiny_stores)
    assert got.flat.tobytes() == want.flat.tobytes() and history == want_history
    assert evaluate(got, tiny_dataset.split.test, tiny_stores,
                    exclude_target=True) == want_mse


def test_train_holds_four_parameter_sized_buffers(tiny_dataset, tiny_stores):
    """At dims where word_emb is nearly every parameter, train's traced peak
    stays below 4.5 parameter buffers: parameters, Adam m and v and the best
    copy, with no dense gradient, no whole-model temporary and no second
    copy."""
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
    assert peak < 4.5 * nbytes, peak / nbytes


def test_training_step_allocates_no_parameter_sized_buffer(tiny_dataset, tiny_stores):
    """At dims where word_emb is nearly every parameter, one backward and
    adam_step peak below half a parameter buffer above what was live before
    the step: the word_emb gradient is rows and Adam's scratch is block-sized."""
    cfg = small_config(word_dim=16)
    dims = cfg.dims(100_000, tiny_dataset.n_users, tiny_dataset.n_items)
    params = M.init_params(dims, cfg.seed)
    state = T.AdamState.for_params(params)
    nbytes = 8 * M.param_count(dims)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _, grads = T.backward(tiny_dataset.split.train[:cfg.batch_size], params,
                              tiny_stores, cfg.l2_weight)
        T.adam_step(params, grads, state, cfg.learning_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.step == 1 and grads.word_rows
    assert peak - live < 0.5 * nbytes, (peak - live) / nbytes


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
        small_config(window=2)
    with pytest.raises(ValueError):
        small_config(learning_rate=0.0)
    with pytest.raises(ValueError):
        small_config(patience=0)
    small_config()
    # checked when built, model dims by Dims' rule, and never changed after
    with pytest.raises(ValueError, match="word_dim"):
        small_config(word_dim=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_config().window = 2
