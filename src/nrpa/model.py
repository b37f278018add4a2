"""Forward model: embeddings, convolutional review encoding, personalized
word- and review-level attention pooling, and the factorization-machine head.

Two towers share one word-embedding table: the user side encodes the user's
review profile with queries derived from the user id embedding, the item side
does the same with item queries. Each side yields a pooled text feature; the
concatenation goes through the FM to produce the rating. Every rating is
computed by predict_batch; forward() is a batch of one.

The review encoder is two stages, each with its backward function beside
it: conv(), which projects each distinct token of the batch through every
filter tap once and keeps the whole batch's feature maps for backward, and
personalized attention, query() and attention_pool(), at both levels and
under every ablation.

Conventions:
  reviews are embedded time-major, (review_len, word_dim) per review;
  conv filters are stored flattened as (num_filters, window*word_dim) where
  column block c holds the taps for relative offset c - (window-1)//2;
  the PAD embedding row (row 0) is pinned to zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64
from .tensor import masked_softmax

PAD_ID = 0

@dataclass(frozen=True)
class Dims:
    vocab_size: int
    n_users: int
    n_items: int
    word_dim: int
    id_dim: int
    num_filters: int
    attn_dim: int
    window: int
    fm_dim: int
    review_len: int
    num_reviews: int

    def validate(self):
        for name, val in self.__dict__.items():
            if val < 1:
                raise ValueError(f"dim {name} must be >= 1, got {val}")
        if self.window % 2 == 0:
            raise ValueError(f"window must be odd, got {self.window}")


def param_layout(dims: Dims):
    """(name, shape) of every parameter tensor, in checkpoint order.

    The one place that names and shapes a parameter: ModelParams lays its
    flat buffer out by it, init_params draws in its order and the checkpoint
    format writes it.
    """
    d = dims
    yield "word_emb", (d.vocab_size, d.word_dim)  # row 0 (PAD) pinned to zero
    yield "user_id_emb", (d.n_users, d.id_dim)
    yield "item_id_emb", (d.n_items, d.id_dim)
    for tag in ("user", "item"):
        yield f"{tag}.conv_w", (d.num_filters, d.window * d.word_dim)
        yield f"{tag}.conv_b", (d.num_filters,)
        yield f"{tag}.word_query_w", (d.attn_dim, d.id_dim)
        yield f"{tag}.word_query_b", (d.attn_dim,)
        yield f"{tag}.word_attn", (d.attn_dim, d.num_filters)  # bilinear pairing
        yield f"{tag}.review_query_w", (d.attn_dim, d.id_dim)
        yield f"{tag}.review_query_b", (d.attn_dim,)
        yield f"{tag}.review_attn", (d.attn_dim, d.num_filters)
    yield "fm.bias", ()
    yield "fm.linear", (2 * d.num_filters,)
    yield "fm.factors", (2 * d.num_filters, d.fm_dim)


def param_count(dims: Dims) -> int:
    """Total scalars in the layout, as a Python int (no overflow on bogus dims)."""
    return sum(math.prod(shape) for _, shape in param_layout(dims))


@dataclass
class SideParams:
    conv_w: np.ndarray
    conv_b: np.ndarray
    word_query_w: np.ndarray
    word_query_b: np.ndarray
    word_attn: np.ndarray
    review_query_w: np.ndarray
    review_query_b: np.ndarray
    review_attn: np.ndarray


@dataclass
class FMParams:
    bias: np.ndarray
    linear: np.ndarray
    factors: np.ndarray


class ModelParams:
    """All parameters in one contiguous float64 buffer, `flat`, laid out by
    param_layout(dims). word_emb, user_id_emb, item_id_emb, user, item and fm
    hold views into it, so a write through any of them changes `flat` and
    whole-model operations (copy, zeroing, Adam, checkpoint I/O) are one
    operation on `flat`.
    """

    def __init__(self, dims: Dims, flat: np.ndarray, conv_activation: str = "relu"):
        size = param_count(dims)
        if not (flat.dtype == np.float64 and flat.shape == (size,)
                and flat.flags.c_contiguous):
            raise ValueError(f"parameter buffer must be a contiguous float64 vector of "
                             f"{size} values, got {flat.dtype} of shape {flat.shape}")
        self.dims = dims
        self.flat = flat
        self.conv_activation = conv_activation
        self._views = {}
        groups = {}
        offset = 0
        for name, shape in param_layout(dims):
            n = math.prod(shape)
            view = flat[offset:offset + n].reshape(shape)
            offset += n
            self._views[name] = view
            group, _, field = name.rpartition(".")
            if group:
                groups.setdefault(group, {})[field] = view
            else:
                setattr(self, field, view)
        self.user = SideParams(**groups["user"])
        self.item = SideParams(**groups["item"])
        self.fm = FMParams(**groups["fm"])

    def side(self, which: str) -> SideParams:
        return self.user if which == "user" else self.item

    def tensors(self):
        """(name, view) pairs in layout order."""
        return iter(self._views.items())

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.flat.copy(), self.conv_activation)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.dims, np.zeros(self.flat.size), self.conv_activation)

    def assert_finite(self, kind: str = "tensor"):
        """Raises FloatingPointError naming the first non-finite tensor."""
        if np.isfinite(self.flat).all():
            return
        for name, arr in self.tensors():
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite values in {kind} {name}")


@dataclass
class AblationSpec:
    """Which attention sites run personalized vs uniform (plain averaging).

    A site is uniform when its side is uniform or its level is uniform; the
    query MLP and pairing matrix of a uniform site are unused and untrained.
    """
    user_attention: str = "personalized"
    item_attention: str = "personalized"
    word_level: str = "personalized"
    review_level: str = "personalized"

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val not in ("personalized", "uniform"):
                raise ValueError(f"{name} must be personalized|uniform, got {val!r}")

    def word_uniform(self, side: str) -> bool:
        side_mode = self.user_attention if side == "user" else self.item_attention
        return side_mode == "uniform" or self.word_level == "uniform"

    def review_uniform(self, side: str) -> bool:
        side_mode = self.user_attention if side == "user" else self.item_attention
        return side_mode == "uniform" or self.review_level == "uniform"


FULL_ATTENTION = AblationSpec()


@dataclass
class AttentionTrace:
    user_alpha: np.ndarray  # (N, T)
    user_beta: np.ndarray   # (N,)
    item_alpha: np.ndarray
    item_beta: np.ndarray


def _glorot(rng: SplitMix64, shape) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)); a vector counts as one column."""
    fans = shape[0] + (shape[1] if len(shape) == 2 else 1)
    limit = np.sqrt(6.0 / fans)
    return rng.uniform(-limit, limit, shape)


def init_params(dims: Dims, seed: int, conv_activation: str = "relu") -> ModelParams:
    """Seed-deterministic init, drawn in layout order: [-0.1, 0.1) embeddings
    with the PAD row zeroed, zero biases, fan-scaled uniform weights."""
    dims.validate()
    if conv_activation not in ("relu", "tanh"):
        raise ValueError(f"conv_activation must be relu|tanh, got {conv_activation!r}")
    rng = SplitMix64(seed)
    params = ModelParams(dims, np.zeros(param_count(dims)), conv_activation)
    for name, arr in params.tensors():
        if name.endswith("_emb"):
            arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
        elif not name.endswith(("_b", ".bias")):
            arr[...] = _glorot(rng, arr.shape)
    params.word_emb[PAD_ID] = 0.0
    return params


# ---------------------------------------------------------------------------
# batched forward: the one way a rating is computed
# ---------------------------------------------------------------------------

def attention_pool(features: np.ndarray, query, mask: np.ndarray):
    """Masked attention pooling of (R, L, K) features; returns (weights, pooled).

    query is the (R, K) pairing-transformed query, so the logit of position l
    is features[r, l] . query[r]; None pools uniformly (zero logits). Masked
    positions carry weight exactly 0 and a row with nothing unmasked pools to
    the zero vector, so empty reviews and profiles stay representable.
    """
    if query is None:
        logits = np.zeros(np.shape(mask))
    else:
        logits = np.matmul(features, query[:, :, None])[:, :, 0]  # (R, L)
    weights = masked_softmax(logits, mask)
    return weights, np.matmul(weights[:, None, :], features)[:, 0, :]


def attention_pool_backward(features: np.ndarray, query, weights: np.ndarray,
                            d_pooled: np.ndarray):
    """attention_pool's gradients given d loss / d pooled (R, K): returns
    (d_features (R, L, K), d_query (R, K)), d_query None when query is None."""
    d_features = weights[:, :, None] * d_pooled[:, None, :]
    if query is None:
        return d_features, None
    d_weights = np.matmul(features, d_pooled[:, :, None])[:, :, 0]    # (R, L)
    inner = np.sum(weights * d_weights, axis=1, keepdims=True)
    d_logits = weights * (d_weights - inner)                          # masked stay 0
    d_features += d_logits[:, :, None] * query[:, None, :]
    return d_features, np.matmul(d_logits[:, None, :], features)[:, 0, :]


def query(uid: np.ndarray, query_w, query_b, pairing):
    """ReLU query MLP of (B, id_dim) id embeddings, then the pairing matrix;
    returns (pre-activation (B, attn_dim), paired query (B, K))."""
    pre = uid @ query_w.T + query_b
    return pre, np.maximum(pre, 0.0) @ pairing


def query_backward(uid, pre, d_paired, query_w, pairing, g_query_w, g_query_b, g_pairing):
    """Adds query()'s parameter gradients given d loss / d paired (B, K) into
    the g_ views; returns d loss / d uid. The ReLU subgradient at 0 is 0."""
    g_pairing += np.maximum(pre, 0.0).T @ d_paired
    d_pre = (d_paired @ pairing.T) * (pre > 0)
    g_query_w += d_pre.T @ uid
    g_query_b += d_pre.sum(axis=0)
    return d_pre @ query_w


def _stacked_filters(conv_w: np.ndarray, word_dim: int) -> np.ndarray:
    """conv_w (K, window*word_dim) -> (word_dim, window*K) with offset-major
    column blocks, so one GEMM evaluates every filter at every offset."""
    k, taps = conv_w.shape
    window = taps // word_dim
    return np.ascontiguousarray(
        conv_w.reshape(k, window, word_dim).transpose(2, 1, 0).reshape(word_dim, window * k))


def conv(tokens: np.ndarray, conv_w, conv_b, word_emb: np.ndarray, activation: str):
    """Same-padded convolution of (R, T) token rows, time-major; returns
    (features (R, T, K), ids, pos).

    The convolution is linear in the embeddings, so each distinct token,
    ids (sorted), is projected through every filter tap once. pos (R,
    T + window - 1) holds, at every zero-padded position, the projection row
    it reads: the token's index in ids, or len(ids), a zero row, at the
    edges. Feature (r, j) is conv_b plus tap c at pos[r, j + c], added in
    offset order c = 0, 1, ...
    """
    r, t = tokens.shape
    word_dim = word_emb.shape[1]
    k, taps = conv_w.shape
    window = taps // word_dim
    half = (window - 1) // 2
    if activation not in ("relu", "tanh"):
        raise ValueError(f"unknown activation {activation!r}")

    ids, inv = np.unique(tokens, return_inverse=True)
    proj = np.zeros((ids.size + 1, window, k))
    np.matmul(word_emb[ids], _stacked_filters(conv_w, word_dim),
              out=proj[:-1].reshape(ids.size, window * k))
    pos = np.full((r, t + 2 * half), ids.size)
    pos[:, half:half + t] = inv.reshape(r, t)

    features = proj[pos[:, 0:t], 0]
    features += conv_b
    for c in range(1, window):
        features += proj[pos[:, c:c + t], c]
    if activation == "relu":
        np.maximum(features, 0.0, out=features)
    else:
        np.tanh(features, out=features)
    return features, ids, pos


def conv_backward(d_features: np.ndarray, features: np.ndarray, ids: np.ndarray,
                  pos: np.ndarray, conv_w, word_emb: np.ndarray, activation: str,
                  g_conv_w, g_conv_b, g_word_emb):
    """Adds conv()'s gradients given d loss / d features (R, T, K), which it
    overwrites, into g_conv_w, g_conv_b and the ids rows of g_word_emb.
    The ReLU subgradient at 0 is 0."""
    r, t, k = features.shape
    word_dim = word_emb.shape[1]
    window = conv_w.shape[1] // word_dim
    d_pre = d_features
    if activation == "relu":
        d_pre *= features > 0
    else:
        d_pre *= 1.0 - features * features
    g_conv_b += d_pre.sum(axis=(0, 1))

    # d_proj[u, c] sums d_pre over the positions whose tap c reads row u:
    # one bincount per tap over (row, filter) cells; the zero row's are dropped
    cells = np.empty((r, t, k), dtype=np.intp)
    d_proj = np.empty((ids.size, window, k))
    for c in range(window):
        np.add((pos[:, c:c + t] * k)[:, :, None], np.arange(k), out=cells)
        d_proj[:, c] = np.bincount(cells.ravel(), d_pre.ravel(),
                                   (ids.size + 1) * k)[:-k].reshape(ids.size, k)
    d_proj = d_proj.reshape(ids.size, window * k)

    emb = word_emb[ids]
    g_conv_w += (emb.T @ d_proj).reshape(word_dim, window, k) \
        .transpose(2, 1, 0).reshape(k, window * word_dim)
    g_word_emb[ids] += d_proj @ _stacked_filters(conv_w, word_dim).T  # ids are distinct


@dataclass
class SideCache:
    """Everything backward() needs for one side of one batch; alpha and beta
    are also the attention traces, row j aligned with the owner's j-th
    profile slot."""
    owners: np.ndarray       # (B,)
    review_mask: np.ndarray  # (B, N)
    uid: np.ndarray          # (B, id_dim)
    features: np.ndarray     # (B*N, T, K) conv features, review b*N + j
    ids: np.ndarray          # (U,) the batch's distinct tokens, as conv() returns them
    pos: np.ndarray          # (B*N, T + window - 1) projection rows, as conv() returns them
    pre_qw: np.ndarray       # (B, attn_dim) or None when word level is uniform
    a_q: np.ndarray          # (B, K) pairing-transformed word query, or None
    alpha: np.ndarray        # (B, N, T)
    d_vecs: np.ndarray       # (B, N, K)
    pre_qr: np.ndarray       # (B, attn_dim) or None when review level is uniform
    a_r: np.ndarray          # (B, K) or None
    beta: np.ndarray         # (B, N)
    pooled: np.ndarray       # (B, K)


def encode_side_batch(params: ModelParams, side_name: str, store, owners: np.ndarray,
                      exclude_partner=None, ablation: AblationSpec = FULL_ATTENTION) -> SideCache:
    """Vectorized profile encoding for a batch of owners on one side."""
    side = params.side(side_name)
    id_emb = params.user_id_emb if side_name == "user" else params.item_id_emb

    tokens, token_mask, review_mask = store.gather(owners, exclude_partner)
    b, n, t = tokens.shape
    uid = id_emb[owners]  # (B, id_dim)

    pre_qw = a_q = a_q_rep = None
    if not ablation.word_uniform(side_name):
        pre_qw, a_q = query(uid, side.word_query_w, side.word_query_b, side.word_attn)
        a_q_rep = np.repeat(a_q, n, axis=0)  # (B*N, K)
    features, ids, pos = conv(tokens.reshape(b * n, t), side.conv_w, side.conv_b,
                              params.word_emb, params.conv_activation)
    alpha, d_vecs = attention_pool(features, a_q_rep, token_mask.reshape(b * n, t))

    pre_qr = a_r = None
    if not ablation.review_uniform(side_name):
        pre_qr, a_r = query(uid, side.review_query_w, side.review_query_b, side.review_attn)
    d_vecs = d_vecs.reshape(b, n, -1)
    beta, pooled = attention_pool(d_vecs, a_r, review_mask)       # (B, N), (B, K)

    return SideCache(owners, review_mask, uid, features, ids, pos, pre_qw, a_q,
                     alpha.reshape(b, n, t), d_vecs, pre_qr, a_r, beta, pooled)


def fm_predict_batch(fm: FMParams, features: np.ndarray) -> np.ndarray:
    """FM scores for (B, 2K) feature rows."""
    s = features @ fm.factors                       # (B, fm_dim)
    sq = (features ** 2) @ (fm.factors ** 2)        # (B, fm_dim)
    return fm.bias + features @ fm.linear + 0.5 * np.sum(s * s - sq, axis=1)


def predict_batch(params: ModelParams, user_store, item_store, users: np.ndarray,
                  items: np.ndarray, exclude_target: bool = False,
                  ablation: AblationSpec = FULL_ATTENTION):
    """Batched ratings; returns (predictions, user cache, item cache)."""
    users = np.asarray(users)
    items = np.asarray(items)
    u_cache = encode_side_batch(params, "user", user_store, users,
                                items if exclude_target else None, ablation)
    i_cache = encode_side_batch(params, "item", item_store, items,
                                users if exclude_target else None, ablation)
    features = np.concatenate([u_cache.pooled, i_cache.pooled], axis=1)
    return fm_predict_batch(params.fm, features), u_cache, i_cache


def attention_traces(u_cache: SideCache, i_cache: SideCache) -> list:
    """One AttentionTrace per scored pair of a predict_batch call."""
    return [AttentionTrace(u_cache.alpha[b], u_cache.beta[b], i_cache.alpha[b],
                           i_cache.beta[b]) for b in range(len(u_cache.owners))]


def forward(user: int, item: int, user_store, item_store, params: ModelParams,
            exclude_target: bool = False, ablation: AblationSpec = FULL_ATTENTION):
    """Score one (user, item) pair as a batch of one; returns (rating, AttentionTrace)."""
    preds, u_cache, i_cache = predict_batch(params, user_store, item_store, [user], [item],
                                            exclude_target, ablation)
    return float(preds[0]), attention_traces(u_cache, i_cache)[0]
