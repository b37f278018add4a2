"""The objective, Adam, and the early-stopping training loop.

backward() is the squared-error objective with selective L2: it takes the
residual and hands d loss / d predictions to model.backward_batch, which
accumulates the exact gradients of the whole network into a second
ModelParams, one flat buffer laid out like the parameters. Adam keeps its
moments as flat buffers and updates every parameter in one in-place pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import PAD_ID
from .rng import SplitMix64


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
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

    def validate(self):
        for name in ("word_dim", "id_dim", "num_filters", "attn_dim", "window",
                     "fm_dim", "review_len", "num_reviews", "batch_size",
                     "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # written so that NaN, which compares false, fails too
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and positive, got "
                             f"{self.learning_rate}")
        if not (0 <= self.l2_weight < math.inf):
            raise ValueError(f"l2_weight must be finite and non-negative, got "
                             f"{self.l2_weight}")
        if self.window % 2 == 0:
            raise ValueError("window must be odd")
        if self.conv_activation not in ("relu", "tanh"):
            raise ValueError(f"conv_activation must be relu|tanh, got {self.conv_activation!r}")

    def dims(self, vocab_size: int, n_users: int, n_items: int) -> M.Dims:
        return M.Dims(vocab_size, n_users, n_items, self.word_dim, self.id_dim,
                      self.num_filters, self.attn_dim, self.window, self.fm_dim,
                      self.review_len, self.num_reviews)


def _regularized(params: M.ModelParams, ablation: M.AblationSpec):
    """Weight tensors under L2, in layout order: everything except biases,
    the PAD embedding row, and the query MLP weights and pairing matrices of
    sites ablated to uniform."""
    for name, t in params.tensors():
        side, _, field = name.rpartition(".")
        if name.endswith(("_b", ".bias")):
            continue
        if field.endswith(("_query_w", "_attn")) and \
                ablation.uniform(side, field.partition("_")[0]):
            continue
        yield t[1:] if name == "word_emb" else t


def _l2_value(params, l2_weight, ablation) -> float:
    if l2_weight == 0.0:
        return 0.0
    return l2_weight * sum(float(np.sum(t * t)) for t in _regularized(params, ablation))


def _batch_arrays(batch):
    if len(batch) == 0:
        raise ValueError("empty batch")
    users = np.array([b.user for b in batch], dtype=np.int64)
    items = np.array([b.item for b in batch], dtype=np.int64)
    ratings = np.array([b.rating for b in batch], dtype=np.float64)
    return users, items, ratings


def backward(batch, params: M.ModelParams, stores, l2_weight: float = 0.0,
             ablation: M.AblationSpec = M.FULL_ATTENTION,
             exclude_target: bool = False):
    """Loss and its exact gradients w.r.t. every parameter tensor."""
    users, items, ratings = _batch_arrays(batch)
    user_store, item_store = stores
    preds, u_cache, i_cache = M.predict_batch(params, user_store, item_store,
                                              users, items, exclude_target, ablation)
    if not np.all(np.isfinite(preds)):
        params.assert_finite("parameter")
        raise FloatingPointError("non-finite predictions in forward pass")
    res = preds - ratings
    nb = len(batch)
    value = float(np.mean(res * res)) + _l2_value(params, l2_weight, ablation)

    grads = params.zeros_like()
    M.backward_batch(params, u_cache, i_cache, 2.0 * res / nb, grads)

    if l2_weight:
        for g_t, p_t in zip(_regularized(grads, ablation), _regularized(params, ablation)):
            g_t += 2.0 * l2_weight * p_t

    grads.word_emb[PAD_ID] = 0.0
    try:
        grads.assert_finite("gradient")
    except FloatingPointError:
        params.assert_finite("parameter")  # a non-finite parameter is the cause
        raise
    return value, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# the Adam pass walks the flat buffers in blocks of this many elements: each
# block's slices stay in cache, and two block-sized scratch rows are all the
# step allocates, where whole-model temporaries would raise peak memory
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


def adam_step(params: M.ModelParams, grads: M.ModelParams, state: AdamState,
              lr: float) -> None:
    """One in-place Adam update with bias correction; re-pins the PAD row.

    One pass over the flat buffers, in place: the operations are those of
    m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2;
    p -= lr (m / c1) / (sqrt(v / c2) + eps), in the same order, so the result
    is bit-identical to those expressions.
    """
    if grads.flat.shape != params.flat.shape:
        raise ValueError(f"gradient shape mismatch: {params.flat.shape} "
                         f"vs {grads.flat.shape}")
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1 ** t
    correct2 = 1.0 - ADAM_BETA2 ** t
    size = params.flat.size
    scratch = np.empty((2, min(size, _ADAM_BLOCK)))
    for lo in range(0, size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        p, g, m, v = params.flat[blk], grads.flat[blk], state.m[blk], state.v[blk]
        num, den = scratch[:, :p.size]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=num)
        m += num
        v *= ADAM_BETA2
        np.multiply(g, g, out=num)
        num *= 1.0 - ADAM_BETA2
        v += num
        np.divide(m, correct1, out=num)
        num *= lr
        np.divide(v, correct2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        p -= num
    params.word_emb[PAD_ID] = 0.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

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
    identical history and parameters.
    """
    from .evaluation import evaluate  # local import, evaluation layers on top

    config.validate()
    dims = config.dims(len(dataset.vocab), dataset.n_users, dataset.n_items)
    params = M.init_params(dims, config.seed, config.conv_activation)
    state = AdamState.for_params(params)
    shuffle_rng = SplitMix64(config.seed).derive(1)

    train_set = list(dataset.split.train)
    history = []
    best_val = np.inf
    best_params = params.copy()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        shuffle_rng.shuffle(train_set)
        total = 0.0
        for batch_idx, lo in enumerate(range(0, len(train_set), config.batch_size)):
            batch = train_set[lo:lo + config.batch_size]
            where = f"epoch {epoch}, batch {batch_idx}"
            try:
                value, grads = backward(batch, params, stores, config.l2_weight, ablation)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"training diverged at {where}: {exc}") from exc
            if not np.isfinite(value):
                raise TrainingDiverged(f"training diverged at {where}: non-finite loss")
            adam_step(params, grads, state, config.learning_rate)
            total += value * len(batch)
        train_loss = total / len(train_set)

        val_mse = evaluate(params, dataset.split.validation, stores, ablation,
                           exclude_target=config.exclude_target)
        history.append(EpochRecord(epoch, train_loss, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    return best_params, history
