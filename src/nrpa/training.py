"""The objective, Adam, and the early-stopping training loop.

backward() is the squared-error objective, evaluation.mse of the
predictions, with selective L2: it hands d loss / d predictions to
model.backward_batch, which accumulates the exact gradients of the whole
network into a second ModelParams, one flat buffer laid out like the
parameters. The L2 value, the L2 gradient and the finiteness check are one
walk after that, tensor by tensor in 64k-element blocks, so a failure names
its tensor. Adam keeps its moments as flat buffers and updates every
parameter in one in-place pass over the flat buffers, in the same blocks.
Each training step allocates a fresh gradient buffer and drops it before the
next step, so train() holds PARAM_BUFFERS parameter-sized buffers for the
whole run and no whole-model temporary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from .data import batch_arrays
from .evaluation import evaluate, mse
from .rng import SplitMix64


class TrainingDiverged(RuntimeError):
    pass


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
        self.validate()

    def validate(self):
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
            raise ValueError(f"conv_activation must be relu|tanh, got {self.conv_activation!r}")

    def dims(self, vocab_size: int, n_users: int, n_items: int) -> M.Dims:
        return M.Dims(vocab_size, n_users, n_items, self.word_dim, self.id_dim,
                      self.num_filters, self.attn_dim, self.window, self.fm_dim,
                      self.review_len, self.num_reviews)


def _dense_pass(params: M.ModelParams, l2_weight: float, ablation: M.AblationSpec,
                grads: M.ModelParams) -> float:
    """The L2 value, l2_weight * sum(p^2) over the tensors model.regularized
    names; the same walk adds the L2 gradient 2 l2_weight p into grads and
    raises FloatingPointError naming the first non-finite tensor.

    One walk of the tensors in layout order, each in _ADAM_BLOCK slices with
    one block-sized scratch row, like adam_step. The square sums are np.vdot
    per (tensor, block) piece, added in walk order.
    """
    scratch = np.empty(min(params.flat.size, _ADAM_BLOCK))
    total = 0.0
    for (name, p_all), (_, g_all) in zip(params.tensors(), grads.tensors()):
        p_all, g_all = p_all.reshape(-1), g_all.reshape(-1)
        l2 = l2_weight and M.regularized(name, ablation)
        for lo in range(0, p_all.size, _ADAM_BLOCK):
            p, g = p_all[lo:lo + _ADAM_BLOCK], g_all[lo:lo + _ADAM_BLOCK]
            if l2:
                total += float(np.vdot(p, p))
                g += np.multiply(p, 2.0 * l2_weight, out=scratch[:p.size])
            if not np.isfinite(g).all():
                params.assert_finite()  # a non-finite parameter is the cause
                raise FloatingPointError(f"non-finite values in gradient {name}")
    return l2_weight * total


def backward(batch, params: M.ModelParams, stores, l2_weight: float = 0.0,
             ablation: M.AblationSpec = M.FULL_ATTENTION,
             exclude_target: bool = False):
    """Loss and its exact gradients w.r.t. every parameter tensor, in a fresh
    buffer laid out like the parameters."""
    users, items, ratings = batch_arrays(batch)
    user_store, item_store = stores
    preds, u_cache, i_cache = M.predict_batch(params, user_store, item_store,
                                              users, items, exclude_target, ablation)
    data_term = mse(preds, ratings)

    grads = params.zeros_like()
    M.backward_batch(params, u_cache, i_cache, 2.0 * (preds - ratings) / len(batch), grads)
    return data_term + _dense_pass(params, l2_weight, ablation, grads), grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# adam_step walks the flat buffers, and _dense_pass each tensor, in blocks of
# this many elements: each block's slices stay in cache, and block-sized
# scratch rows are all a step allocates, where whole-model temporaries would
# raise peak memory
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
    """One in-place Adam update with bias correction.

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


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

# the parameter-sized float64 buffers train() holds: the parameters, the
# step's gradient buffer, Adam's m and v, and the best parameters so far
PARAM_BUFFERS = 5


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
    identical history and parameters. A non-finite loss, or a non-finite
    prediction or MSE in a batch or in an epoch's validation, raises
    TrainingDiverged naming where.
    """
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
        try:
            for batch_idx, lo in enumerate(range(0, len(train_set), config.batch_size)):
                batch = train_set[lo:lo + config.batch_size]
                where = f"epoch {epoch}, batch {batch_idx}"
                value, grads = backward(batch, params, stores, config.l2_weight, ablation)
                if not np.isfinite(value):
                    raise FloatingPointError("non-finite loss")
                adam_step(params, grads, state, config.learning_rate)
                del grads  # else it outlives this step beside the next step's buffer
                total += value * len(batch)
            where = f"epoch {epoch}, validation"
            val_mse = evaluate(params, dataset.split.validation, stores, ablation,
                               exclude_target=config.exclude_target)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"training diverged at {where}: {exc}") from exc
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
