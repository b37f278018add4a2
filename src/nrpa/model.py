"""The NRPA network, forward and backward: embeddings, convolutional review
encoding, personalized word- and review-level attention pooling, and the
factorization-machine head.

Two towers share one word-embedding table: the user side encodes the user's
review profile with queries derived from the user id embedding, the item side
does the same with item queries. Each side yields a pooled text feature; the
concatenation goes through the FM to produce the rating. Every rating is
computed, checked for finiteness and traced by predict_batch; forward() is a
batch of one.

Every stage has its backward function beside it: conv(), which projects each
distinct token of the batch through every filter tap once and keeps the whole
batch's feature maps for backward; personalized attention, query() and
attention_pool(), at both levels and under every ablation; and the FM head.
encode_side_backward() and backward_batch() compose them in reverse, so the
exact gradient of any loss of the predictions is one backward_batch() call
given d loss / d predictions.

A side of a batch of B pairs with U distinct owners, N reviews of T tokens
and K filters runs in two stages. The owner stage reads only the owner's id
and profile, so it runs once per distinct owner: the id queries (U, K), the
conv feature maps (U*N, T, K), the word weights (U, N, T) and the review
encodings (U, N, K). The pair stage indexes the encodings by pair, (B, N, K),
and pools them with each pair's own review mask, which is where the scored
pair's own review is dropped: review weights (B, N), pooled (B, K). Backward
sums the pair stage's gradients over each owner's pairs before the owner
stage runs.

Conventions:
  reviews are embedded time-major, (review_len, word_dim) per review;
  conv filters are stored flattened as (num_filters, window*word_dim) where
  column block c holds the taps for relative offset c - (window-1)//2;
  PAD is padding, not a word: conv() reads a PAD position as a zero row, so
  nothing reads the PAD embedding row and its gradient is exactly zero.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .data import PAD_ID
from .rng import SplitMix64

# the conv nonlinearities conv() applies, by their config names
ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Dims:
    """A model's sizes, each >= 1 with an odd window, or ValueError when built."""
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

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val < 1:
                raise ValueError(f"dim {name} must be >= 1, got {val}")
        if self.window % 2 == 0:
            raise ValueError(f"window must be odd, got {self.window}")


def param_layout(dims: Dims):
    """(name, shape) of every parameter tensor, in checkpoint order.

    The one place that names and shapes a parameter: ModelParams lays its
    flat buffer out by it and exposes "group.field" names as attribute groups,
    init_params draws in its order, training's L2 walk follows it and the
    checkpoint format writes it.
    """
    d = dims
    yield "word_emb", (d.vocab_size, d.word_dim)  # row PAD_ID is never read
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


def _bind_views(owner, layout, flat: np.ndarray) -> dict:
    """Views of flat, one per (name, shape) of layout in order, set on owner:
    a top-level name as an attribute, a dotted one as a field of its group.
    Returns them by name."""
    views, groups = {}, {}
    offset = 0
    for name, shape in layout:
        n = math.prod(shape)
        view = flat[offset:offset + n].reshape(shape)
        offset += n
        views[name] = view
        group, _, field = name.rpartition(".")
        if group:
            groups.setdefault(group, {})[field] = view
        else:
            setattr(owner, field, view)
    for group, fields in groups.items():
        setattr(owner, group, SimpleNamespace(**fields))
    return views


class ModelParams:
    """All parameters in one contiguous float64 buffer, `flat`, laid out by
    param_layout(dims). Each layout name is a view into it: a top-level name
    is an attribute (params.word_emb) and a dotted one a field of its group
    (params.user.conv_w, params.fm.bias). A write through any view changes
    `flat`, and whole-model operations (copy, zeroing, Adam, checkpoint I/O)
    are one operation on `flat`.
    """

    def __init__(self, dims: Dims, flat: np.ndarray, conv_activation: str = "relu"):
        size = param_count(dims)
        if not (flat.dtype == np.float64 and flat.shape == (size,)
                and flat.flags.c_contiguous):
            raise ValueError(f"parameter buffer must be a contiguous float64 vector of "
                             f"{size} values, got {flat.dtype} of shape {flat.shape}")
        if conv_activation not in ACTIVATIONS:
            raise ValueError(f"conv_activation must be relu|tanh, got {conv_activation!r}")
        self.dims = dims
        self.flat = flat
        self.conv_activation = conv_activation
        self._views = _bind_views(self, param_layout(dims), flat)

    def tensors(self):
        """(name, view) pairs in layout order."""
        return iter(self._views.items())

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.flat.copy(), self.conv_activation)

    def assert_finite(self):
        """Raises FloatingPointError naming the first non-finite parameter tensor."""
        if np.isfinite(self.flat).all():
            return
        for name, arr in self.tensors():
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite values in parameter {name}")


class Gradients:
    """The gradient of a loss w.r.t. a ModelParams, as backward_batch adds it.

    word_emb, first in param_layout and nearly every parameter, has as its
    gradient 2 l2_weight word_emb plus the rows a batch reads: word_rows
    holds one (ids, rows) piece per side, user first, rows[j] the gradient
    of row ids[j], ids sorted and distinct. Every other tensor is a view,
    named as in ModelParams (grads.fm.bias), into one dense buffer `flat`
    laid out like ModelParams.flat after word_emb.
    """

    def __init__(self, dims: Dims, l2_weight: float = 0.0):
        layout = list(param_layout(dims))[1:]  # all but word_emb
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in layout))
        self._views = _bind_views(self, layout, self.flat)
        self.word_rows = []
        self.l2_weight = l2_weight

    def tensors(self):
        """(name, view) pairs of the dense tensors, in layout order."""
        return iter(self._views.items())


# the ways an attention site can pool, by their config and CLI names
ATTENTION_MODES = ("personalized", "uniform")


@dataclass(frozen=True)
class AblationSpec:
    """Which attention sites run personalized vs uniform (plain averaging).

    A site is uniform when its side is uniform or its level is uniform; the
    query MLP and pairing matrix of a uniform site are unused; L2 still covers them.
    """
    user: str = "personalized"
    item: str = "personalized"
    word: str = "personalized"
    review: str = "personalized"

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val not in ATTENTION_MODES:
                raise ValueError(f"{name} must be {'|'.join(ATTENTION_MODES)}, got {val!r}")

    def uniform(self, side: str, level: str) -> bool:
        """Whether the site of side user|item at level word|review pools uniformly."""
        return "uniform" in (getattr(self, side), getattr(self, level))


FULL_ATTENTION = AblationSpec()


def _glorot(rng: SplitMix64, out: np.ndarray) -> None:
    """Draws `out` uniform in +-sqrt(6 / (fan_in + fan_out)); a vector counts
    as one column."""
    shape = out.shape
    fans = shape[0] + (shape[1] if len(shape) == 2 else 1)
    limit = np.sqrt(6.0 / fans)
    rng.uniform(-limit, limit, shape, out=out)


# the name suffixes of the bias tensors, which start at zero and take no L2
_BIASES = ("_b", ".bias")


def init_params(dims: Dims, seed: int, conv_activation: str = "relu") -> ModelParams:
    """Seed-deterministic init, drawn in layout order straight into each
    tensor's view of the flat buffer: [-0.1, 0.1) embeddings with the PAD row
    zeroed after its words are drawn, zero biases, fan-scaled uniform weights."""
    rng = SplitMix64(seed)
    params = ModelParams(dims, np.zeros(param_count(dims)), conv_activation)
    for name, arr in params.tensors():
        if name.endswith("_emb"):
            rng.uniform(-0.1, 0.1, arr.shape, out=arr)
        elif not name.endswith(_BIASES):
            _glorot(rng, arr)
    params.word_emb[PAD_ID] = 0.0
    return params


def regularized(name: str) -> bool:
    """Whether the L2 term covers the tensor `name`: every weight but the
    biases, under every ablation."""
    return not name.endswith(_BIASES)


# ---------------------------------------------------------------------------
# batched forward and backward: the one way a rating and its gradient are computed
# ---------------------------------------------------------------------------

def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to mask==True positions.

    The max is subtracted first, so large logits cannot overflow. Masked
    positions get weight exactly 0. Rows with no unmasked position come back
    all-zero rather than raising, so empty reviews/profiles stay scorable; a
    row with a NaN logit at an unmasked position comes back all-NaN, so a
    corrupt parameter shows in the output instead of pooling to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape != mask.shape:
        raise ValueError(f"logits {logits.shape} vs mask {mask.shape}")
    neg = np.where(mask, logits, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    # rows with no unmasked entry have mx = -inf; their total is 0
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    # after the shift every exponent is <= 0, and a masked position's is
    # -inf, so its weight is exactly 0; the shift itself can only overflow at
    # the float64 extremes, to -inf (numpy warns), which gives weight exactly 0
    e = np.exp(neg - safe_mx)
    total = e.sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=np.zeros_like(e), where=total != 0)


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
    (d_features (R, L, K), d_query (R, K)), d_query None when query is None.
    With a query, d_features = weights (x) d_pooled + d_logits (x) query is
    written once, by one matmul with inner dimension 2; masked positions stay 0."""
    if query is None:
        return weights[:, :, None] * d_pooled[:, None, :], None
    d_weights = np.matmul(features, d_pooled[:, :, None])[:, :, 0]    # (R, L)
    inner = np.sum(weights * d_weights, axis=1, keepdims=True)
    d_logits = weights * (d_weights - inner)                          # masked stay 0
    d_features = np.matmul(np.stack([weights, d_logits], axis=2),
                           np.stack([d_pooled, query], axis=1))       # (R, L, K)
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
    (features (R, T, K), ids, emb, pos).

    The convolution is linear in the embeddings, so each distinct token,
    ids (sorted), is projected through every filter tap once from its
    embedding row, emb = word_emb[ids], which backward reads again. pos (R,
    T + window - 1) holds, at every zero-padded position, the projection row
    it reads: the token's index in ids, or len(ids), a zero row, at the
    edges and at PAD tokens. conv_b is added to tap 0's rows, the zero row's
    included, so feature (r, j) is (tap 0 at pos[r, j] + conv_b) plus tap c
    at pos[r, j + c], added in offset order c = 1, 2, ...
    """
    r, t = tokens.shape
    word_dim = word_emb.shape[1]
    k, taps = conv_w.shape
    window = taps // word_dim
    half = (window - 1) // 2

    ids, inv = np.unique(tokens, return_inverse=True)
    emb = word_emb[ids]
    proj = np.zeros((ids.size + 1, window, k))
    np.matmul(emb, _stacked_filters(conv_w, word_dim),
              out=proj[:-1].reshape(ids.size, window * k))
    pos = np.full((r, t + 2 * half), ids.size)
    pos[:, half:half + t] = np.where(tokens == PAD_ID, ids.size, inv.reshape(r, t))
    proj[:, 0] += conv_b

    features = proj[pos[:, 0:t], 0]
    for c in range(1, window):
        features += proj[pos[:, c:c + t], c]
    if activation == "relu":
        np.maximum(features, 0.0, out=features)
    else:
        np.tanh(features, out=features)
    return features, ids, emb, pos


def conv_backward(d_features: np.ndarray, features: np.ndarray, ids: np.ndarray,
                  emb: np.ndarray, pos: np.ndarray, conv_w, activation: str,
                  g_conv_w, g_conv_b):
    """Adds conv()'s gradients given d loss / d features (R, T, K), which it
    overwrites, into g_conv_w and g_conv_b; returns (ids, rows), rows[j]
    the gradient of word_emb row ids[j]. The ReLU subgradient at 0 is 0."""
    r, t, k = features.shape
    word_dim = emb.shape[1]
    window = conv_w.shape[1] // word_dim
    d_pre = d_features
    if activation == "relu":
        d_pre *= features > 0
    else:
        d_pre *= 1.0 - features * features

    # d_proj[u, c] sums d_pre over the positions whose tap c reads row u:
    # one bincount per tap over (row, filter) cells. Every position reads one
    # row at tap 0, which carries conv_b, so tap 0's rows, the zero row's
    # included, sum to g_conv_b; then the zero row is dropped.
    cells = np.empty((r, t, k), dtype=np.intp)
    d_proj = np.empty((ids.size + 1, window, k))
    for c in range(window):
        np.add((pos[:, c:c + t] * k)[:, :, None], np.arange(k), out=cells)
        d_proj[:, c] = np.bincount(cells.ravel(), d_pre.ravel(),
                                   (ids.size + 1) * k).reshape(ids.size + 1, k)
    g_conv_b += d_proj[:, 0].sum(axis=0)
    d_proj = d_proj[:-1].reshape(ids.size, window * k)

    g_conv_w += (emb.T @ d_proj).reshape(word_dim, window, k) \
        .transpose(2, 1, 0).reshape(k, window * word_dim)
    return ids, d_proj @ _stacked_filters(conv_w, word_dim).T


@dataclass
class SideCache:
    """Everything encode_side_backward() needs for one side of one batch of
    B pairs, U of whose owners are distinct; alpha and beta are also the
    attention traces that `eval --trace` and `inspect` report, row j aligned
    with the owner's j-th profile slot."""
    owners: np.ndarray       # (U,) the batch's distinct owners, sorted
    inverse: np.ndarray      # (B,) each pair's row in owners
    uid: np.ndarray          # (U, id_dim)
    features: np.ndarray     # (U*N, T, K) conv features, review u*N + j
    ids: np.ndarray          # the batch's distinct tokens, as conv() returns them
    emb: np.ndarray          # (len(ids), word_dim) their embedding rows, conv()'s gather
    pos: np.ndarray          # (U*N, T + window - 1) projection rows, as conv() returns them
    pre_qw: np.ndarray       # (U, attn_dim) or None when word level is uniform
    a_q: np.ndarray          # (U, K) pairing-transformed word query, or None
    owner_alpha: np.ndarray  # (U, N, T) word weights
    d_vecs: np.ndarray       # (B, N, K) each pair's review encodings
    pre_qr: np.ndarray       # (U, attn_dim) or None when review level is uniform
    a_r: np.ndarray          # (B, K) each pair's owner's review query, or None
    beta: np.ndarray         # (B, N)
    pooled: np.ndarray       # (B, K)

    @property
    def alpha(self) -> np.ndarray:
        """(B, N, T) word weights of each pair's owner."""
        return self.owner_alpha[self.inverse]


def encode_side_batch(params: ModelParams, side_name: str, store, owners: np.ndarray,
                      exclude_partner=None, ablation: AblationSpec = FULL_ATTENTION) -> SideCache:
    """Vectorized profile encoding for a batch of owners on one side.

    The owner stage runs the id queries, conv and word attention once per
    distinct owner: they read only the owner's id and profile. The pair stage
    pools each pair's review encodings with its own review mask, which drops
    the pair's own review when exclude_partner is set.
    """
    side = getattr(params, side_name)
    id_emb = getattr(params, f"{side_name}_id_emb")

    distinct, inverse = np.unique(owners, return_inverse=True)
    tokens, token_mask, _ = store.gather(distinct)
    u, n, t = tokens.shape
    uid = id_emb[distinct]  # (U, id_dim)

    pre_qw = a_q = a_q_rep = None
    if not ablation.uniform(side_name, "word"):
        pre_qw, a_q = query(uid, side.word_query_w, side.word_query_b, side.word_attn)
        a_q_rep = np.repeat(a_q, n, axis=0)  # (U*N, K)
    features, ids, emb, pos = conv(tokens.reshape(u * n, t), side.conv_w, side.conv_b,
                                   params.word_emb, params.conv_activation)
    alpha, d_vecs = attention_pool(features, a_q_rep, token_mask.reshape(u * n, t))

    pre_qr = a_r = None
    if not ablation.uniform(side_name, "review"):
        pre_qr, a_r = query(uid, side.review_query_w, side.review_query_b, side.review_attn)
        a_r = a_r[inverse]                                           # (B, K)
    d_vecs = d_vecs.reshape(u, n, -1)[inverse]                       # (B, N, K)
    beta, pooled = attention_pool(d_vecs, a_r, store.review_mask(owners, exclude_partner))

    return SideCache(distinct, inverse, uid, features, ids, emb, pos, pre_qw, a_q,
                     alpha.reshape(u, n, t), d_vecs, pre_qr, a_r, beta, pooled)


def _owner_sum(pair_rows: np.ndarray, inverse: np.ndarray, n_owners: int) -> np.ndarray:
    """Sums (B, ...) per-pair rows into (U, ...) rows of their owners, in
    pair order: one bincount over (owner, column) cells."""
    cols = pair_rows[0].size
    cells = (inverse * cols)[:, None] + np.arange(cols)
    return np.bincount(cells.ravel(), pair_rows.ravel(), n_owners * cols) \
        .reshape((n_owners,) + pair_rows.shape[1:])


def encode_side_backward(params: ModelParams, side_name: str, cache: SideCache,
                         d_pooled: np.ndarray, grads: Gradients):
    """Adds one side's gradients given d loss / d pooled (B, K) into grads:
    its tower, its owners' id embedding rows, and its tokens' word embedding
    rows as a piece of grads.word_rows. encode_side_batch's stages in
    reverse: the pair stage's gradients are summed over each owner's pairs,
    then the owner stage runs once per distinct owner."""
    side, g_side = getattr(params, side_name), getattr(grads, side_name)
    u, n, t = cache.owner_alpha.shape
    k = d_pooled.shape[1]

    d_d, da_r = attention_pool_backward(cache.d_vecs, cache.a_r, cache.beta, d_pooled)
    d_d = _owner_sum(d_d, cache.inverse, u)                         # (U, N, K)
    duid = np.zeros_like(cache.uid)
    if da_r is not None:
        duid += query_backward(cache.uid, cache.pre_qr, _owner_sum(da_r, cache.inverse, u),
                               side.review_query_w, side.review_attn,
                               g_side.review_query_w, g_side.review_query_b,
                               g_side.review_attn)

    a_q_rep = None if cache.a_q is None else np.repeat(cache.a_q, n, axis=0)
    d_features, da_q = attention_pool_backward(cache.features, a_q_rep,
                                               cache.owner_alpha.reshape(u * n, t),
                                               d_d.reshape(u * n, k))
    grads.word_rows.append(conv_backward(d_features, cache.features, cache.ids, cache.emb,
                                         cache.pos, side.conv_w, params.conv_activation,
                                         g_side.conv_w, g_side.conv_b))
    if da_q is not None:
        duid += query_backward(cache.uid, cache.pre_qw, da_q.reshape(u, n, k).sum(axis=1),
                               side.word_query_w, side.word_attn, g_side.word_query_w,
                               g_side.word_query_b, g_side.word_attn)

    getattr(grads, f"{side_name}_id_emb")[cache.owners] += duid  # owners are distinct


def fm_predict_batch(fm, features: np.ndarray) -> np.ndarray:
    """FM scores for (B, 2K) feature rows."""
    s = features @ fm.factors                       # (B, fm_dim)
    sq = (features ** 2) @ (fm.factors ** 2)        # (B, fm_dim)
    return fm.bias + features @ fm.linear + 0.5 * np.sum(s * s - sq, axis=1)


def fm_backward(fm, features: np.ndarray, d_pred: np.ndarray, g_fm) -> np.ndarray:
    """Adds fm_predict_batch's parameter gradients given d loss / d scores (B,)
    into the g_fm views; returns d loss / d features (B, 2K)."""
    s = features @ fm.factors                                     # (B, fm_dim)
    g_fm.bias += d_pred.sum()
    g_fm.linear += d_pred @ features
    r2 = np.sum(fm.factors ** 2, axis=1)                          # (2K,)
    d_features = d_pred[:, None] * (fm.linear[None, :] + s @ fm.factors.T
                                    - features * r2[None, :])
    g_fm.factors += (features * d_pred[:, None]).T @ s \
        - np.sum((features ** 2) * d_pred[:, None], axis=0)[:, None] * fm.factors
    return d_features


def predict_batch(params: ModelParams, user_store, item_store, users: np.ndarray,
                  items: np.ndarray, exclude_target: bool = False,
                  ablation: AblationSpec = FULL_ATTENTION):
    """Batched ratings; returns (predictions, user cache, item cache). A
    non-finite prediction raises FloatingPointError naming the first
    non-finite parameter tensor."""
    users = np.asarray(users)
    items = np.asarray(items)
    u_cache = encode_side_batch(params, "user", user_store, users,
                                items if exclude_target else None, ablation)
    i_cache = encode_side_batch(params, "item", item_store, items,
                                users if exclude_target else None, ablation)
    features = np.concatenate([u_cache.pooled, i_cache.pooled], axis=1)
    preds = fm_predict_batch(params.fm, features)
    if not np.isfinite(preds).all():
        params.assert_finite()
        raise FloatingPointError("non-finite predictions in forward pass")
    return preds, u_cache, i_cache


def backward_batch(params: ModelParams, u_cache: SideCache, i_cache: SideCache,
                   d_pred: np.ndarray, grads: Gradients):
    """Adds every parameter's gradient given d loss / d predictions (B,) of the
    predict_batch call that returned the caches into grads; predict_batch's
    stages in reverse."""
    features = np.concatenate([u_cache.pooled, i_cache.pooled], axis=1)
    d_features = fm_backward(params.fm, features, d_pred, grads.fm)
    k = params.dims.num_filters
    encode_side_backward(params, "user", u_cache, d_features[:, :k], grads)
    encode_side_backward(params, "item", i_cache, d_features[:, k:], grads)


def forward(user: int, item: int, user_store, item_store, params: ModelParams,
            exclude_target: bool = False, ablation: AblationSpec = FULL_ATTENTION):
    """Score one (user, item) pair as a batch of one; returns (rating, user
    cache, item cache), whose row 0 holds the pair's attention weights."""
    preds, u_cache, i_cache = predict_batch(params, user_store, item_store, [user], [item],
                                            exclude_target, ablation)
    return float(preds[0]), u_cache, i_cache
