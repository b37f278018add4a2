"""The objective, Adam, and the early-stopping training loop.

backward() is the squared-error objective, evaluation.mse of the
predictions, with L2 on every weight but the biases: it hands d loss / d
predictions to model.backward_batch, which adds the exact gradients of the
whole network into a model.Gradients. The shared word-embedding table is
nearly every parameter, but a batch reads only its distinct tokens' rows,
so its gradient stays as those rows, one (ids, rows) piece per side; every
other tensor has a small dense gradient, to which backward adds the L2
gradient and whose finiteness it checks, naming the tensor. The L2 value is
one read-only np.vdot per tensor.

adam_step is the one walk over word_emb, in blocks of whole rows: it builds
each block's gradient in a scratch (zeros, the user rows and then the item
rows in the block, then 2 l2_weight p) and updates p and Adam's moments
there, in Kingma & Ba's efficient form (arXiv:1412.6980, section 2), with
one square root and one divide per element. The other tensors are one flat
walk in 64k-element blocks. So a training step allocates no
parameter-sized buffer, and train() holds PARAM_BUFFERS of them for the
whole run: the parameters, Adam's m and v, and the best parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import batch_arrays
from .evaluation import evaluate, mse
from .rng import SplitMix64


@dataclass(frozen=True)
class TrainConfig:
    """Model and training settings; an invalid one raises ValueError when built."""
    word_dim: int = 300
    id_dim: int = 32
    num_filters: int = 80
    attn_dim: int = 80
    window: int = 3
    fm_dim: int = 10
    review_len: int = 100
    num_reviews: int = 15
    learning_rate: float = 1e-3
    batch_size: int = 100
    max_epochs: int = 50
    patience: int = 5
    l2_weight: float = 1e-6
    seed: int = 1
    exclude_target: bool = True
    conv_activation: str = "relu"

    def __post_init__(self):
        self.dims(1, 1, 1)  # the model dims follow Dims' rule
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # written so that NaN, which compares false, fails too
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and positive, got "
                             f"{self.learning_rate}")
        if not (0 <= self.l2_weight < math.inf):
            raise ValueError(f"l2_weight must be finite and non-negative, got "
                             f"{self.l2_weight}")
        if self.conv_activation not in M.ACTIVATIONS:
            raise ValueError(f"conv_activation must be {'|'.join(M.ACTIVATIONS)}, got "
                             f"{self.conv_activation!r}")

    def dims(self, vocab_size: int, n_users: int, n_items: int) -> M.Dims:
        return M.Dims(vocab_size, n_users, n_items, self.word_dim, self.id_dim,
                      self.num_filters, self.attn_dim, self.window, self.fm_dim,
                      self.review_len, self.num_reviews)


def _l2_value(params: M.ModelParams, l2_weight: float) -> float:
    """The L2 value, l2_weight * sum(p^2) over every weight but the biases
    (model.regularized): one np.vdot per tensor, in layout order, added in
    that order."""
    return l2_weight * sum(float(np.vdot(p, p)) for name, p in params.tensors()
                           if M.regularized(name))


def backward(batch, params: M.ModelParams, stores, l2_weight: float = 0.0,
             ablation: M.AblationSpec = M.FULL_ATTENTION,
             exclude_target: bool = False):
    """Loss and its exact gradients w.r.t. every parameter tensor, as a
    model.Gradients: word_emb's as each side's rows plus the L2 term that
    adam_step adds, every other tensor's dense with its L2 gradient added,
    exact zeros at l2_weight 0. exclude_target is predict_batch's. A
    non-finite dense gradient raises FloatingPointError naming the first
    non-finite parameter tensor, else the first non-finite gradient tensor."""
    users, items, ratings = batch_arrays(batch)
    user_store, item_store = stores
    preds, u_cache, i_cache = M.predict_batch(params, user_store, item_store,
                                              users, items, exclude_target, ablation)
    data_term = mse(preds, ratings)

    grads = M.Gradients(params.dims, l2_weight)
    M.backward_batch(params, u_cache, i_cache, 2.0 * (preds - ratings) / len(batch), grads)
    l2_term = _l2_value(params, l2_weight)
    p_views = dict(params.tensors())
    for name, g in grads.tensors():
        if M.regularized(name):
            g += np.multiply(p_views[name], 2.0 * l2_weight)
    if not (math.isfinite(l2_term) and np.isfinite(grads.flat).all()):
        params.assert_finite()  # a non-finite parameter is the cause
        for name, g in grads.tensors():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite values in gradient {name}")
    return data_term + l2_term, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# adam_step walks the flat buffers in blocks of about this many elements
# (word_emb's in whole rows): each block's slices stay in cache, and
# block-sized scratch rows are all a step allocates, where whole-model
# temporaries would raise peak memory
_ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    """Step count and flat moment buffers laid out like ModelParams.flat."""
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_params(cls, params: M.ModelParams) -> "AdamState":
        return cls(0, np.zeros(params.flat.size), np.zeros(params.flat.size))


@np.errstate(over="raise")
def adam_step(params: M.ModelParams, grads: M.Gradients, state: AdamState,
              lr: float) -> None:
    """One in-place Adam update with bias correction, in Kingma & Ba's
    efficient form (arXiv:1412.6980, section 2): with
    alpha = lr sqrt(c2) / c1 and eps_hat = eps sqrt(c2), where
    c1 = 1 - b1^t and c2 = 1 - b2^t,
    m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2;
    p -= alpha (m / (sqrt(v) + eps_hat)), in this order, so the result is
    bit-identical to those expressions on whole arrays.

    One pass over the flat buffers: word_emb in blocks of
    max(1, _ADAM_BLOCK // word_dim) whole rows, each block's g built in a
    scratch of those rows (zeros, plus each grads.word_rows piece's rows in
    the block in turn, plus 2 l2_weight p: the dense gradient bit for bit),
    then the rest in _ADAM_BLOCK-element blocks. A non-finite word_emb row
    raises FloatingPointError before anything changes. An overflow, such as
    a gradient whose square passes the float range, is a divergence: it
    raises FloatingPointError, with the buffers part-updated, instead of
    warning.
    """
    width = params.dims.word_dim
    words = params.word_emb.size
    if grads.flat.size != params.flat.size - words:
        raise ValueError(f"gradient shape mismatch: {params.flat.size - words} "
                         f"values after word_emb vs {grads.flat.size}")
    if not all(np.isfinite(rows).all() for _, rows in grads.word_rows):
        raise FloatingPointError("non-finite values in gradient word_emb")
    state.step += 1
    t = state.step
    root2 = math.sqrt(1.0 - ADAM_BETA2 ** t)
    alpha = lr * root2 / (1.0 - ADAM_BETA1 ** t)
    eps_hat = ADAM_EPS * root2
    size = params.flat.size
    scratch = np.empty((2, max(min(size, _ADAM_BLOCK), width)))

    # word_emb's blocks are whole rows: block k is rows edges[k] to
    # edges[k + 1] - 1, and piece j's ids in it are ids[cuts[j][k]:cuts[j][k + 1]]
    per_block = max(1, _ADAM_BLOCK // width)
    vocab = len(params.word_emb)
    edges = np.append(np.arange(0, vocab, per_block), vocab)
    cuts = [np.searchsorted(ids, edges) for ids, _ in grads.word_rows]
    rows_g = np.empty((min(per_block, vocab), width))
    for k, (r0, r1) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        blk = slice(r0 * width, r1 * width)
        p, m, v = params.flat[blk], state.m[blk], state.v[blk]
        num, den = scratch[:, :p.size]
        g = rows_g[:r1 - r0]
        g.fill(0.0)
        for (ids, rows), cut in zip(grads.word_rows, cuts):
            a, b = cut[k], cut[k + 1]
            if a < b:
                g[ids[a:b] - r0] += rows[a:b]  # ids are distinct
        g = g.reshape(-1)
        g += np.multiply(p, 2.0 * grads.l2_weight, out=num)
        _adam_block(p, g, m, v, num, den, alpha, eps_hat)
    for lo in range(words, size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        p, m, v = params.flat[blk], state.m[blk], state.v[blk]
        num, den = scratch[:, :p.size]
        _adam_block(p, grads.flat[lo - words:][:p.size], m, v, num, den, alpha, eps_hat)


def _adam_block(p, g, m, v, num, den, alpha: float, eps_hat: float) -> None:
    """adam_step's update of one block in place, num and den scratch rows:
    12 elementwise passes, one of them a square root and one a divide."""
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=num)
    m += num
    v *= ADAM_BETA2
    np.square(g, out=num)
    num *= 1.0 - ADAM_BETA2
    v += num
    np.sqrt(v, out=den)
    den += eps_hat
    np.divide(m, den, out=num)
    num *= alpha
    p -= num


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

# the parameter-sized float64 buffers train() holds: the parameters, Adam's
# m and v, and the best parameters so far
PARAM_BUFFERS = 4


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mse: float


def train(config: TrainConfig, dataset, stores,
          ablation: M.AblationSpec = M.FULL_ATTENTION):
    """Mini-batch training with early stopping on validation MSE.

    Returns (best_params, history). Shuffling is seed-deterministic and the
    whole run is single-threaded, so identical config + dataset reproduce the
    identical history and parameters. A non-finite loss, an overflow in an
    Adam step, or a non-finite prediction or MSE in a batch or in an epoch's
    validation, raises FloatingPointError naming where.
    """
    dims = config.dims(len(dataset.vocab), dataset.n_users, dataset.n_items)
    params = M.init_params(dims, config.seed, config.conv_activation)
    state = AdamState.for_params(params)
    shuffle_rng = SplitMix64(config.seed).derive(1)

    train_set = dataset.split.train
    # shuffling the positions draws the permutation shuffling the records would
    order = list(range(len(train_set)))
    history = []
    best_val = np.inf
    best_params = params.copy()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng.shuffle(order)
        perm = np.array(order, dtype=np.intp)
        total = 0.0
        try:
            for batch_idx, lo in enumerate(range(0, len(train_set), config.batch_size)):
                batch = train_set[perm[lo:lo + config.batch_size]]
                where = f"epoch {epoch}, batch {batch_idx}"
                value, grads = backward(batch, params, stores, config.l2_weight, ablation,
                                        exclude_target=False)  # own review kept: ROADMAP item 4
                if not np.isfinite(value):
                    raise FloatingPointError("non-finite loss")
                adam_step(params, grads, state, config.learning_rate)
                del grads  # else its rows outlive this step beside the next step's
                total += value * len(batch)
            where = f"epoch {epoch}, validation"
            val_mse = evaluate(params, dataset.split.validation, stores, ablation,
                               exclude_target=config.exclude_target)
        except FloatingPointError as exc:
            raise FloatingPointError(f"training diverged at {where}: {exc}") from exc
        train_loss = total / len(train_set)
        history.append(EpochRecord(epoch, train_loss, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            np.copyto(best_params.flat, params.flat)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    return best_params, history
