import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpa import model as M
from nrpa.data import PAD_ID, Interaction, build_profiles
from nrpa.evaluation import ABLATION_VARIANTS
from conftest import TOY_DIMS, toy_batch, toy_stores
from gradcheck import grad_check


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_in_seed():
    a = M.init_params(TOY_DIMS, seed=3)
    b = M.init_params(TOY_DIMS, seed=3)
    for (na, ta), (_, tb) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb), na
    c = M.init_params(TOY_DIMS, seed=4)
    assert not np.array_equal(a.word_emb, c.word_emb)


def test_init_biases_zero():
    p = M.init_params(TOY_DIMS, seed=1)
    for side in (p.user, p.item):
        assert not side.conv_b.any()
        assert not side.word_query_b.any()
        assert not side.review_query_b.any()
    assert p.fm.bias == 0.0


def test_init_respects_fan_based_bounds():
    d = TOY_DIMS
    p = M.init_params(d, seed=5)
    checks = [
        (p.user.conv_w, d.window * d.word_dim, d.num_filters),
        (p.user.word_query_w, d.id_dim, d.attn_dim),
        (p.user.word_attn, d.num_filters, d.attn_dim),
        (p.fm.factors, 2 * d.num_filters, d.fm_dim),
    ]
    for arr, fan_in, fan_out in checks:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(arr).max() < limit
    assert np.abs(p.word_emb).max() < 0.1
    assert np.abs(p.user_id_emb).max() < 0.1


def test_init_rejects_zero_dims():
    """A dim below 1 or an even window is rejected when the Dims is built, so
    init_params never sees one."""
    good = dataclasses.asdict(TOY_DIMS)
    for name in good:
        with pytest.raises(ValueError, match=name):
            M.Dims(**{**good, name: 0})
    with pytest.raises(ValueError, match="window"):
        M.Dims(**{**good, "window": 4})


def test_init_pins_pad_row():
    p = M.init_params(TOY_DIMS, seed=2)
    assert not p.word_emb[0].any()


def test_init_draws_into_the_buffer_without_a_tensor_sized_temporary():
    """At a 48 MB word_emb, the heap above the returned buffer peaks under
    4 MB: the draw is written straight into params.flat, a block at a time."""
    dims = M.Dims(vocab_size=20000, n_users=5, n_items=5, word_dim=300, id_dim=4,
                  num_filters=4, attn_dim=4, window=1, fm_dim=2, review_len=3,
                  num_reviews=2)
    assert dims.vocab_size * dims.word_dim * 8 >= 40 * 2**20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params = M.init_params(dims, seed=7)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - before >= params.flat.nbytes
    assert peak - current < 4 * 2**20


def test_views_write_through_to_flat(toy_params):
    before = toy_params.flat.copy()
    toy_params.user.conv_w[1, 2] += 1.0
    changed = np.flatnonzero(toy_params.flat != before)
    assert changed.size == 1
    assert toy_params.flat[changed[0]] == toy_params.user.conv_w[1, 2]


def test_views_tile_flat_in_layout_order(toy_params):
    layout = list(M.param_layout(TOY_DIMS))
    tensors = list(toy_params.tensors())
    assert [n for n, _ in tensors] == [n for n, _ in layout]
    assert sum(t.size for _, t in tensors) == toy_params.flat.size == M.param_count(TOY_DIMS)
    offset = 0
    for (name, t), (_, shape) in zip(tensors, layout):
        assert t.shape == shape and np.shares_memory(t, toy_params.flat), name
        assert np.array_equal(t.reshape(-1), toy_params.flat[offset:offset + t.size]), name
        offset += t.size


def test_attributes_expose_exactly_the_layout_names(toy_params):
    """Top-level tensors and the fields of the attribute groups are the
    param_layout names, each the view tensors() holds into flat."""
    exposed = {}
    for attr, value in vars(toy_params).items():
        if isinstance(value, SimpleNamespace):
            exposed.update((f"{attr}.{field}", view) for field, view in vars(value).items())
        elif isinstance(value, np.ndarray) and value is not toy_params.flat:
            exposed[attr] = value
    assert sorted(exposed) == sorted(name for name, _ in M.param_layout(TOY_DIMS))
    views = dict(toy_params.tensors())
    for name, view in exposed.items():
        assert view is views[name] and view.base is toy_params.flat, name


def test_copy_and_zeros_like_share_no_memory(toy_params):
    for other in (toy_params.copy(), toy_params.zeros_like()):
        assert not np.shares_memory(other.flat, toy_params.flat)
        for (name, a), (_, b) in zip(other.tensors(), toy_params.tensors()):
            assert not np.shares_memory(a, b), name
            assert not np.shares_memory(a, toy_params.flat), name
    assert np.array_equal(toy_params.copy().flat, toy_params.flat)
    assert not toy_params.zeros_like().flat.any()


def test_params_reject_wrong_buffer():
    n = M.param_count(TOY_DIMS)
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)),
                np.zeros(n, dtype=np.float32), np.zeros(2 * n)[::2]):
        with pytest.raises(ValueError, match=str(n)):
            M.ModelParams(TOY_DIMS, bad)
    with pytest.raises(ValueError, match="sigmoid"):
        M.ModelParams(TOY_DIMS, np.zeros(n), "sigmoid")


def test_nan_attention_parameter_gives_non_finite_ratings(toy_params):
    """The non-finite ratings are never returned: predict_batch raises,
    naming the parameter."""
    users, items = toy_stores()
    toy_params.item.review_attn[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="parameter item.review_attn$"):
        M.predict_batch(toy_params, users, items, [1, 2], [1, 2])


# ---------------------------------------------------------------------------
# embed / conv / query, through the batched encoder's pieces
# ---------------------------------------------------------------------------

def conv_columns(m, filters, biases):
    """Convolution of the columns of m (word_dim, T) as (T, K) features:
    position k reads embedding row k + 1, so each column is its own token
    and none is PAD (row 0, zero)."""
    tokens = np.arange(1, m.shape[1] + 1)[None]
    word_emb = np.vstack([np.zeros(m.shape[0]), m.T])
    features, _, _ = M.conv(tokens, filters, biases, word_emb, "relu")
    return features[0]


def embedded(tokens, word_emb):
    """The embeddings the convolution reads, read back through it: window 1
    with filters [I; -I] gives relu(x) - relu(-x), which is x exactly."""
    eye = np.eye(word_emb.shape[1])
    features, _, _ = M.conv(np.asarray([tokens], dtype=np.int32), np.vstack([eye, -eye]),
                            np.zeros(2 * len(eye)), word_emb, "relu")
    return features[0, :, :len(eye)] - features[0, :, len(eye):]


def test_embed_all_pad_review_is_zero_matrix(toy_params):
    assert not embedded(np.zeros(5), toy_params.word_emb).any()


def test_embed_single_token_column(toy_params):
    m = embedded([4], toy_params.word_emb)
    assert np.array_equal(m[0], toy_params.word_emb[4])


def test_embed_equals_one_hot_matvec_oracle(toy_params):
    tokens = np.array([3, 7, 0, 11], dtype=np.int32)
    m = embedded(tokens, toy_params.word_emb)
    vocab = toy_params.word_emb.shape[0]
    for k, tok in enumerate(tokens):
        one_hot = np.zeros(vocab)
        one_hot[tok] = 1.0
        assert np.array_equal(m[k], toy_params.word_emb.T @ one_hot)


def test_embed_rejects_out_of_range(toy_params):
    with pytest.raises(IndexError):
        embedded([99], toy_params.word_emb)


def test_conv_zero_filters_gives_constant_bias_rows():
    m = np.random.default_rng(0).normal(size=(4, 6))
    filters = np.zeros((3, 12))
    biases = np.array([-1.0, 0.5, 2.0])
    out = conv_columns(m, filters, biases)
    for j, b in enumerate(biases):
        assert np.allclose(out[:, j], max(b, 0.0))


def test_conv_window_one_is_per_column_affine():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 5))
    filters = rng.normal(size=(3, 4))  # window = 1
    biases = rng.normal(size=3)
    out = conv_columns(m, filters, biases)
    expect = np.maximum(filters @ m + biases[:, None], 0.0)
    assert np.allclose(out.T, expect, atol=1e-15)


def test_conv_window3_locality():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 8))
    filters = rng.normal(size=(2, 9))
    biases = np.full(2, 10.0)  # keep every unit active so locality is visible
    base = conv_columns(m, filters, biases)
    bumped = m.copy()
    bumped[:, 4] += 1.0
    out = conv_columns(bumped, filters, biases)
    changed = np.where(np.any(out != base, axis=1))[0]
    assert set(changed) <= {3, 4, 5}
    assert 4 in changed


def pre_activation(tokens, conv_w, conv_b, word_emb):
    """conv's features before the activation: relu(p) - relu(-p) is p exactly."""
    pos, _, _ = M.conv(tokens, conv_w, conv_b, word_emb, "relu")
    neg, _, _ = M.conv(tokens, -conv_w, -conv_b, word_emb, "relu")
    return pos - neg


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_conv_backward_matches_finite_differences(activation, window):
    rng = np.random.default_rng(10 * window + (activation == "tanh"))
    r, t, k, word_dim, vocab = 4, 5, 3, 2, 6
    tokens = rng.integers(0, vocab, size=(r, t))  # repeated ids and PAD tokens
    tokens[0] = M.PAD_ID                           # an all-PAD review
    tokens[1, -2:] = M.PAD_ID
    while True:  # keep every pre-activation away from the ReLU kink
        conv_w = rng.normal(size=(k, window * word_dim))
        conv_b = rng.normal(size=k)
        word_emb = rng.normal(size=(vocab, word_dim))  # a PAD row that is not zero
        if np.abs(pre_activation(tokens, conv_w, conv_b, word_emb)).min() > 0.05:
            break
    g = rng.normal(size=(r, t, k))
    features, ids, pos = M.conv(tokens, conv_w, conv_b, word_emb, activation)
    grads = [np.zeros_like(conv_w), np.zeros_like(conv_b), np.zeros_like(word_emb)]
    M.conv_backward(g.copy(), features, ids, pos, conv_w, word_emb, activation, *grads)

    args = [conv_w, conv_b, word_emb]
    for i, analytic in enumerate(grads):
        def f(flat, i=i):
            trial = list(args)
            trial[i] = flat.reshape(args[i].shape)
            return float(np.sum(M.conv(tokens, *trial, activation)[0] * g))
        assert grad_check(f, args[i].ravel().copy(), analytic) < 1e-6, i
    assert grads[2][np.setdiff1d(np.arange(vocab), tokens)].sum() == 0.0
    assert not grads[2][M.PAD_ID].any()  # PAD reads the zero row, not its embedding


@pytest.mark.parametrize("window", [1, 3, 5])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_conv_sums_each_position_in_offset_order(activation, window):
    """Each feature is exactly (tap 0 + conv_b) + tap 1 + ... in offset order,
    then the activation: the forward's bits rest on this order."""
    rng = np.random.default_rng(window + 10 * (activation == "tanh"))
    r, t, k, word_dim, vocab = 4, 6, 3, 2, 7
    tokens = rng.integers(0, vocab, size=(r, t))
    tokens[0] = M.PAD_ID                   # an all-PAD review
    tokens[1, 2] = tokens[2, -1] = M.PAD_ID
    conv_w = rng.normal(size=(k, window * word_dim))
    conv_b = rng.normal(size=k)
    word_emb = rng.normal(size=(vocab, word_dim))  # a PAD row that is not zero
    features, ids, _ = M.conv(tokens, conv_w, conv_b, word_emb, activation)

    proj = (word_emb[ids] @ M._stacked_filters(conv_w, word_dim)).reshape(ids.size, window, k)
    half = (window - 1) // 2

    def tap(row, j, c):
        """Tap c of the token at padded position j + c: zero at an edge or PAD."""
        s = j + c - half
        if s < 0 or s >= t or tokens[row, s] == M.PAD_ID:
            return np.zeros(k)
        return proj[np.searchsorted(ids, tokens[row, s]), c]

    pre = np.empty((r, t, k))
    for row in range(r):
        for j in range(t):
            acc = tap(row, j, 0) + conv_b
            for c in range(1, window):
                acc = acc + tap(row, j, c)
            pre[row, j] = acc
    expected = np.maximum(pre, 0.0) if activation == "relu" else np.tanh(pre)
    assert features.tobytes() == expected.tobytes()


def test_conv_rejects_even_window():
    with pytest.raises(ValueError, match="window"):
        M.init_params(M.Dims(20, 3, 3, 5, 4, 6, 6, 2, 2, 7, 3), seed=0)


def user_cache(params, owners, store=None, ablation=M.FULL_ATTENTION):
    store = toy_stores()[0] if store is None else store
    return M.encode_side_batch(params, "user", store, np.asarray(owners),
                               ablation=ablation)


def test_query_vector_zero_params(toy_params):
    toy_params.user.word_query_w[...] = 0.0
    toy_params.user.word_query_b[...] = 0.0
    cache = user_cache(toy_params, [1, 2])
    assert not np.maximum(cache.pre_qw, 0.0).any()
    assert not cache.a_q.any()


def test_query_vector_deterministic_in_id(toy_params):
    toy_params.user_id_emb[2] = toy_params.user_id_emb[1]
    cache = user_cache(toy_params, [1, 2])  # same id row, different profiles
    assert np.array_equal(cache.pre_qw[0], cache.pre_qw[1])
    assert np.array_equal(cache.a_q[0], cache.a_q[1])
    assert np.array_equal(user_cache(toy_params, [1, 2]).pre_qw, cache.pre_qw)


def test_query_vector_hand_case():
    dims = M.Dims(20, 3, 3, 5, 2, 6, 2, 3, 2, 7, 3)  # id_dim = attn_dim = 2
    params = M.init_params(dims, seed=0)
    params.user.word_query_w[...] = [[1.0, 2.0], [-3.0, 1.0]]
    params.user.word_query_b[...] = [1.0, -1.0]
    params.user_id_emb[1] = [2.0, 1.0]
    # w@v+b = [2+2+1, -6+1-1] = [5, -6] -> relu -> [5, 0]
    assert np.array_equal(np.maximum(user_cache(params, [1]).pre_qw[0], 0.0), [5.0, 0.0])


def test_query_vector_shape_mismatch(toy_params):
    toy_params.user.word_query_w = np.zeros((2, 2))  # id_dim is 4
    with pytest.raises(ValueError):
        user_cache(toy_params, [1])


# ---------------------------------------------------------------------------
# attention pooling: one (R, L, K) helper serves both levels
# ---------------------------------------------------------------------------

def pool_one(features, q, pairing, mask):
    """attention_pool on a single (L, K) row with query pairing' q."""
    weights, pooled = M.attention_pool(features[None], (pairing.T @ q)[None],
                                       np.asarray(mask, bool)[None])
    return weights[0], pooled[0]


def test_word_pool_identical_atoms_returns_the_atom():
    z = np.array([0.7, -0.3, 1.1])
    c = np.tile(z, (5, 1))
    _, pooled = pool_one(c, np.ones(2), np.ones((2, 3)), np.ones(5, bool))
    assert np.allclose(pooled, z, atol=1e-12)


def test_word_pool_single_unmasked_token():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(1, 4))
    weights, pooled = pool_one(c, rng.normal(size=2), rng.normal(size=(2, 4)), [True])
    assert np.array_equal(weights, [1.0])
    assert np.allclose(pooled, c[0])


def test_word_pool_two_word_hand_logits():
    # q^T A z_k with q=[1,0], A=I -> logits = first feature of each word
    c = np.array([[0.0, 5.0], [math.log(3.0), -2.0]])
    weights, pooled = pool_one(c, np.array([1.0, 0.0]), np.eye(2), np.ones(2, bool))
    # scalar softmax oracle: e^0=1, e^{ln3}=3 -> [0.25, 0.75]
    assert np.allclose(weights, [0.25, 0.75], atol=1e-15)
    assert np.allclose(pooled, np.array([0.25, 0.75]) @ c, atol=1e-15)


def test_word_pool_all_masked_returns_zero():
    weights, pooled = pool_one(np.ones((4, 3)), np.ones(2), np.ones((2, 3)),
                               np.zeros(4, bool))
    assert not pooled.any() and not weights.any()


def test_word_pool_weight_normalization_and_mask(toy_params):
    rng = np.random.default_rng(4)
    c = rng.normal(size=(7, 6))
    mask = np.array([True, True, False, True, False, False, True])
    weights, _ = pool_one(c, rng.normal(size=6), toy_params.user.word_attn, mask)
    assert abs(weights[mask].sum() - 1.0) <= 1e-9
    assert not weights[~mask].any()


def test_review_pool_single_real_review():
    rng = np.random.default_rng(5)
    d = rng.normal(size=(3, 4))
    mask = np.array([False, True, False])
    weights, pooled = pool_one(d, rng.normal(size=2), rng.normal(size=(2, 4)), mask)
    assert np.allclose(pooled, d[1])
    assert np.array_equal(weights, [0.0, 1.0, 0.0])


def test_review_pool_uniform_logits_symmetry():
    d = np.tile(np.array([1.0, 2.0]), (4, 1))  # identical reviews -> equal logits
    weights, _ = pool_one(d, np.ones(2), np.ones((2, 2)), np.ones(4, bool))
    assert np.allclose(weights, 0.25)


def test_review_pool_permutation_equivariance():
    rng = np.random.default_rng(6)
    d = rng.normal(size=(5, 3))
    q = rng.normal(size=2)
    pairing = rng.normal(size=(2, 3))
    mask = np.array([True, True, True, False, True])
    weights, pooled = pool_one(d, q, pairing, mask)
    perm = np.array([2, 0, 4, 1, 3])
    weights_p, pooled_p = pool_one(d[perm], q, pairing, mask[perm])
    assert np.allclose(weights_p, weights[perm], atol=1e-12)
    assert np.allclose(pooled_p, pooled, atol=1e-12)


def test_uniform_weights_counts():
    """Uniform pooling (no query) weighs each unmasked position 1/count."""
    mask = np.array([[True, True, False], [False, False, False]])
    w, _ = M.attention_pool(np.ones((2, 3, 4)), None, mask)
    assert np.allclose(w[0], [0.5, 0.5, 0.0])
    assert not w[1].any()


def random_pool_case(seed, with_query):
    """Random (R, L, K) features, mask with row 0 fully masked, optional query,
    and the upstream gradient G of the loss sum(pooled * G)."""
    rng = np.random.default_rng(seed)
    r, length, k = rng.integers(2, 5), rng.integers(1, 7), rng.integers(1, 5)
    features = rng.normal(size=(r, length, k))
    mask = rng.random((r, length)) < 0.7
    mask[0] = False
    mask[1, 0] = True
    q = rng.normal(size=(r, k)) if with_query else None
    return features, q, mask, rng.normal(size=(r, k))


@pytest.mark.parametrize("with_query", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_attention_pool_backward_matches_finite_differences(seed, with_query):
    features, q, mask, g = random_pool_case(seed, with_query)
    weights, _ = M.attention_pool(features, q, mask)
    d_features, d_query = M.attention_pool_backward(features, q, weights, g)

    def f_features(flat):
        return float(np.sum(M.attention_pool(flat.reshape(features.shape), q, mask)[1] * g))
    assert grad_check(f_features, features.ravel().copy(), d_features) < 1e-6
    assert not d_features[0].any()  # a fully masked row passes no gradient
    if q is None:
        assert d_query is None
        return

    def f_query(flat):
        return float(np.sum(M.attention_pool(features, flat.reshape(q.shape), mask)[1] * g))
    assert grad_check(f_query, q.ravel().copy(), d_query) < 1e-6
    assert not d_query[0].any()


@pytest.mark.parametrize("with_query", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_attention_pool_backward_is_the_elementwise_formula(seed, with_query):
    """d_features is w (x) g + d_logits (x) q to rounding (the finite-difference
    test only sees 1e-6), and exactly 0 at every masked position, including
    those of a partly masked row."""
    rng = np.random.default_rng(100 + seed)
    r, length, k = 4, 6, 5
    features = rng.normal(size=(r, length, k))
    mask = rng.random((r, length)) < 0.6
    mask[0] = False                                   # fully masked
    mask[1] = np.arange(length) % 2 == 0              # partly masked
    mask[2] = True
    q = rng.normal(size=(r, k)) if with_query else None
    g = rng.normal(size=(r, k))
    w, _ = M.attention_pool(features, q, mask)
    d_features, _ = M.attention_pool_backward(features, q, w, g)

    assert (d_features[~mask] == 0.0).all()
    reference = w[..., None] * g[:, None]
    if q is not None:
        d_w = np.einsum("rlk,rk->rl", features, g)
        d_logits = w * (d_w - np.sum(w * d_w, axis=1, keepdims=True))
        reference = reference + d_logits[..., None] * q[:, None]
    np.testing.assert_allclose(d_features, reference, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_query_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b, id_dim, attn, k = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 6), \
        rng.integers(1, 5)
    while True:  # keep every pre-activation away from the ReLU kink
        uid, w = rng.normal(size=(b, id_dim)), rng.normal(size=(attn, id_dim))
        bias, pairing = rng.normal(size=attn), rng.normal(size=(attn, k))
        if np.abs(M.query(uid, w, bias, pairing)[0]).min() > 0.05:
            break
    g = rng.normal(size=(b, k))
    pre, _ = M.query(uid, w, bias, pairing)
    grads = [np.zeros_like(w), np.zeros_like(bias), np.zeros_like(pairing)]
    d_uid = M.query_backward(uid, pre, g, w, pairing, *grads)

    args = [uid, w, bias, pairing]
    for pos, analytic in enumerate([d_uid] + grads):
        def f(flat, pos=pos):
            trial = list(args)
            trial[pos] = flat.reshape(args[pos].shape)
            return float(np.sum(M.query(*trial)[1] * g))
        assert grad_check(f, args[pos].ravel().copy(), analytic) < 1e-6, pos


# ---------------------------------------------------------------------------
# factorization machine
# ---------------------------------------------------------------------------

def fm_brute_force(o, fm):
    """Literal double-sum second-order FM, the independent oracle."""
    total = float(fm.bias)
    for i in range(len(o)):
        total += fm.linear[i] * o[i]
    for i in range(len(o)):
        for j in range(i + 1, len(o)):
            total += float(fm.factors[i] @ fm.factors[j]) * o[i] * o[j]
    return total


def fm_params(bias, linear, factors):
    """An FM head's parameters, as fm_predict_batch reads them."""
    return SimpleNamespace(bias=bias, linear=linear, factors=factors)


def test_fm_bias_only():
    fm = fm_params(np.array(3.7), np.zeros(4), np.zeros((4, 2)))
    assert M.fm_predict_batch(fm, np.zeros((1, 4)))[0] == 3.7


def test_fm_linear_when_factors_zero():
    rng = np.random.default_rng(7)
    fm = fm_params(np.array(0.5), rng.normal(size=6), np.zeros((6, 3)))
    o = rng.normal(size=6)
    assert M.fm_predict_batch(fm, o[None])[0] == pytest.approx(0.5 + fm.linear @ o,
                                                               abs=1e-12)


def test_fm_fast_identity_matches_brute_force_small():
    rng = np.random.default_rng(8)
    fm = fm_params(np.array(rng.normal()), rng.normal(size=4),
                   rng.normal(size=(4, 2)))
    o = rng.normal(size=4)
    fast = M.fm_predict_batch(fm, o[None])[0]
    assert fast == pytest.approx(fm_brute_force(o, fm), abs=1e-12)


def test_fm_batch_matches_single():
    rng = np.random.default_rng(9)
    fm = fm_params(np.array(0.2), rng.normal(size=8), rng.normal(size=(8, 3)))
    feats = rng.normal(size=(5, 8))
    batch = M.fm_predict_batch(fm, feats)
    for b in range(5):
        assert batch[b] == pytest.approx(M.fm_predict_batch(fm, feats[b:b + 1])[0],
                                         abs=1e-12)


# ---------------------------------------------------------------------------
# composed forward
# ---------------------------------------------------------------------------

# sha256 of predict_batch's predictions and both sides' alpha for
# init_params(TOY_DIMS, seed=7) on the toy stores: the bits of the forward pass
FORWARD_SEED7_SHA256 = "d59b989bf8b1b4c7f3be333f721707ad2c2564176c5701e29542262cb233ce4e"


def test_forward_bits_are_golden(toy_params):
    users, items = toy_stores()
    batch = toy_batch()
    preds, u_cache, i_cache = M.predict_batch(toy_params, users, items,
                                              [b.user for b in batch],
                                              [b.item for b in batch])
    h = hashlib.sha256()
    for arr in (preds, u_cache.alpha, i_cache.alpha):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == FORWARD_SEED7_SHA256


def test_forward_deterministic(toy_params):
    users, items = toy_stores()
    r1, u1, _ = M.forward(1, 2, users, items, toy_params)
    r2, u2, _ = M.forward(1, 2, users, items, toy_params)
    assert r1 == r2
    assert np.array_equal(u1.alpha[0], u2.alpha[0])


def test_forward_all_pad_profile_still_finite(toy_params):
    users, items = toy_stores()
    rating, u_cache, _ = M.forward(0, 1, users, items, toy_params)  # owner 0 is empty
    assert math.isfinite(rating)
    assert not u_cache.beta[0].any()
    # the empty side contributes a zero text feature
    empty = user_cache(toy_params, [0], users)
    assert not empty.pooled.any()
    item_rep = M.encode_side_batch(toy_params, "item", items, np.array([1])).pooled
    expect = M.fm_predict_batch(toy_params.fm, np.concatenate([np.zeros((1, 6)), item_rep],
                                                              axis=1))[0]
    assert rating == pytest.approx(expect, abs=1e-12)


def test_forward_batch_equals_single_composition(toy_params):
    users, items = toy_stores()
    batch = toy_batch()
    preds, _, _ = M.predict_batch(toy_params, users, items,
                                  [b.user for b in batch], [b.item for b in batch])
    for pred, inter in zip(preds, batch):
        single, _, _ = M.forward(inter.user, inter.item, users, items, toy_params)
        assert pred == pytest.approx(single, abs=1e-12)


def test_forward_batch_exclude_target_matches_single(toy_params):
    users, items = toy_stores()
    batch = toy_batch()
    preds, _, _ = M.predict_batch(toy_params, users, items,
                                  [b.user for b in batch], [b.item for b in batch],
                                  exclude_target=True)
    for pred, inter in zip(preds, batch):
        single, _, _ = M.forward(inter.user, inter.item, users, items, toy_params,
                                 exclude_target=True)
        assert pred == pytest.approx(single, abs=1e-12)
    base, _, _ = M.predict_batch(toy_params, users, items,
                                 [b.user for b in batch], [b.item for b in batch])
    assert not np.allclose(preds, base)  # exclusion changes the encoding


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, TOY_DIMS.n_users - 1),
                                st.integers(0, TOY_DIMS.n_items - 1)),
                      min_size=4, max_size=9),
       exclude=st.booleans(),
       variant=st.sampled_from([name for name, _ in ABLATION_VARIANTS]))
def test_repeated_owners_match_batches_of_one(pairs, exclude, variant):
    """Four or more pairs over the three owners of a side, owner 0's empty
    profile included, repeat an owner on both sides, in any order; each pair
    scores and traces as if alone, and without exclusion one owner's pairs
    share bits."""
    params = M.init_params(TOY_DIMS, seed=7)
    stores = toy_stores()
    ablation = dict(ABLATION_VARIANTS)[variant]
    users, items = (np.array(col) for col in zip(*pairs))
    preds, u_cache, i_cache = M.predict_batch(params, *stores, users, items, exclude,
                                              ablation)
    for b, (user, item) in enumerate(pairs):
        single, u_one, i_one = M.predict_batch(params, *stores, [user], [item], exclude,
                                               ablation)
        assert preds[b] == pytest.approx(single[0], abs=1e-12)
        for cache, one in ((u_cache, u_one), (i_cache, i_one)):
            assert cache.alpha[b] == pytest.approx(one.alpha[0], abs=1e-12)
            assert cache.beta[b] == pytest.approx(one.beta[0], abs=1e-12)
    if exclude:
        return
    for cache, owners in ((u_cache, users), (i_cache, items)):
        for b in range(len(pairs)):
            first = int(np.argmax(owners == owners[b]))
            assert np.array_equal(cache.alpha[b], cache.alpha[first])
            assert np.array_equal(cache.beta[b], cache.beta[first])


def test_forward_trace_weights_normalized(toy_params):
    users, items = toy_stores()
    _, u_cache, _ = M.forward(2, 1, users, items, toy_params)
    alpha, beta = u_cache.alpha[0], u_cache.beta[0]
    rmask = users.partner[2] >= 0
    assert beta[rmask].sum() == pytest.approx(1.0, abs=1e-9)
    for j in np.where(rmask)[0]:
        tmask = users.tokens[2, j] != PAD_ID
        assert alpha[j][tmask].sum() == pytest.approx(1.0, abs=1e-9)
        assert not alpha[j][~tmask].any()


def test_pooled_vectors_inside_convex_hull(toy_params):
    cache = user_cache(toy_params, [2])
    review_mask = toy_stores()[0].gather(np.array([2]))[2]
    atoms = cache.d_vecs[0][review_mask[0]]  # the per-review encodings
    assert len(atoms) == 3
    assert np.all(cache.pooled[0] >= atoms.min(axis=0) - 1e-12)
    assert np.all(cache.pooled[0] <= atoms.max(axis=0) + 1e-12)


def test_personalization_is_expressible():
    """Two users with different id embeddings can weight the same text
    differently under a crafted pairing matrix."""
    dims = M.Dims(10, 3, 2, 4, 2, 3, 2, 3, 2, 5, 2)
    params = M.init_params(dims, seed=0)
    params.user_id_emb[1] = [1.0, 0.0]
    params.user_id_emb[2] = [0.0, 1.0]
    params.user.word_query_w = np.eye(2)
    params.user.word_query_b[:] = 0.0
    params.user.word_attn = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])

    # the same review text for both users
    store, _ = build_profiles([Interaction(owner, 1, 3.0, np.array([2, 3, 4, 5, 6]))
                               for owner in (1, 2)], 5, 2, 3, 2)
    alpha = user_cache(params, [1, 2], store).alpha
    assert not np.allclose(alpha[0, 0], alpha[1, 0])


@pytest.mark.parametrize("seed", range(8))
def test_forward_finite_for_random_finite_params(seed):
    users, items = toy_stores()
    params = M.init_params(TOY_DIMS, seed=seed)
    # scale some tensors harshly; output must stay finite for finite inputs
    rng = np.random.default_rng(seed)
    params.fm.factors *= rng.uniform(0, 50)
    params.user.word_attn *= rng.uniform(0, 50)
    for u in (0, 1, 2):
        for i in (1, 2):
            rating, _, _ = M.forward(u, i, users, items, params)
            assert math.isfinite(rating)


def test_ablation_spec_validation():
    with pytest.raises(ValueError):
        M.AblationSpec(word_level="average")
    spec = M.AblationSpec(user_attention="uniform")
    assert spec.uniform("user", "word") and spec.uniform("user", "review")
    assert not spec.uniform("item", "word")


def test_ablation_spec_is_frozen():
    """FULL_ATTENTION is a shared default argument: setting a field on it
    would change every later call that relies on the default."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.FULL_ATTENTION.word_level = "uniform"
