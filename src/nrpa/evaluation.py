"""Scoring, the attention ablation variants and the synthetic corpus.

Predictions go through the batched forward path (model.predict_batch) in
fixed-size chunks taken in index order, so scores are bit-reproducible and
depend on no setting of the caller, and a non-finite prediction raises
FloatingPointError there; so does a non-finite MSE, in mse().
"""

import json

import numpy as np

from . import model as M
from .data import RawRecord, batch_arrays
from .rng import SplitMix64

_EVAL_CHUNK = 64

ABLATION_VARIANTS = (
    ("full", M.AblationSpec()),
    ("no-attention", M.AblationSpec(word_level="uniform", review_level="uniform")),
    ("user-only", M.AblationSpec(item_attention="uniform")),
    ("item-only", M.AblationSpec(user_attention="uniform")),
    ("word-only", M.AblationSpec(review_level="uniform")),
    ("review-only", M.AblationSpec(word_level="uniform")),
)


def mse(predictions, truths) -> float:
    """Mean squared error; a non-finite result, which finite inputs give when
    the squares overflow, raises FloatingPointError."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {truths.shape}")
    if predictions.size == 0:
        raise ValueError("mse of empty inputs")
    diff = predictions - truths
    with np.errstate(over="ignore"):  # an overflow is reported below, as inf
        value = float(np.mean(diff * diff))
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite mse {value}")
    return value


def evaluate(params: M.ModelParams, interactions, stores,
             ablation: M.AblationSpec = M.FULL_ATTENTION,
             exclude_target: bool = True, clip: bool = False,
             trace_sink=None) -> float:
    """MSE of the model over a split, scored in consecutive _EVAL_CHUNK-sized
    chunks and summed in fixed index order."""
    users, items, ratings = batch_arrays(interactions)
    user_store, item_store = stores
    scored = []
    for lo in range(0, len(users), _EVAL_CHUNK):
        chunk = slice(lo, lo + _EVAL_CHUNK)
        preds, u_cache, i_cache = M.predict_batch(
            params, user_store, item_store, users[chunk], items[chunk], exclude_target,
            ablation)
        if clip:
            preds = np.clip(preds, 1.0, 5.0)
        scored.append(preds)
        if trace_sink is None:
            continue
        u_alpha, i_alpha = u_cache.alpha, i_cache.alpha
        for b, (user, item, pred) in enumerate(zip(users[chunk], items[chunk], preds)):
            trace_sink.write(json.dumps({
                "user": int(user),
                "item": int(item),
                "prediction": float(pred),
                "user_alpha": u_alpha[b].tolist(),
                "user_beta": u_cache.beta[b].tolist(),
                "item_alpha": i_alpha[b].tolist(),
                "item_beta": i_cache.beta[b].tolist(),
            }, sort_keys=True) + "\n")
    return mse(np.concatenate(scored), ratings)


# ---------------------------------------------------------------------------
# synthetic personalization corpus
# ---------------------------------------------------------------------------

_FILLER = ("the", "this", "item", "works", "came", "in", "box", "color",
           "size", "feels", "fine", "okay")


def _aspect_phrase(name: str, score: float) -> list:
    # favorability -> wording: a favorable price is a low price
    if name == "price":
        direction = "low" if score >= 0.5 else "high"
    else:
        direction = "high" if score >= 0.5 else "low"
    words = [name, direction]
    if score >= 0.75 or score < 0.25:
        words.insert(1, "very")
    return words


def make_synthetic_corpus(seed: int, n_users: int, n_items: int,
                          reviews_per_user: int = 25):
    """Two-aspect corpus where rating personalization is decided by text.

    Most users are pure-price or pure-quality (the rest weigh both equally,
    weights sum to 1); each item has a favorability score per aspect, spelled
    out in every review of it with the aspect keywords plus filler words.
    Quality skews favorable while price is uniform, so users differ in mean
    rating as well as in which words matter. Ratings are the user-weighted
    item score mapped to [1, 5] with sigma=0.1 noise, clipped. Review text
    depends only on the item, so a reader without personalized attention has
    no channel from user identity to predicted rating.
    """
    if n_users < 4 or n_items < 4:
        raise ValueError("need at least 4 users and 4 items")
    rng = SplitMix64(seed)
    price_weight = [(0.0, 0.0, 0.5, 1.0, 1.0)[rng.next_below(5)] for _ in range(n_users)]
    price = [rng.next_float() for _ in range(n_items)]
    quality = [0.6 + 0.4 * rng.next_float() for _ in range(n_items)]

    records = []
    k = min(reviews_per_user, n_items)
    for u in range(n_users):
        picks = list(range(n_items))
        rng.shuffle(picks)
        for i in sorted(picks[:k]):
            score = price_weight[u] * price[i] + (1.0 - price_weight[u]) * quality[i]
            # Box-Muller normal from two uniform draws
            u1 = 1.0 - rng.next_float()
            u2 = rng.next_float()
            noise = 0.1 * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            rating = float(np.clip(1.0 + 4.0 * score + noise, 1.0, 5.0))

            words = _aspect_phrase("price", price[i])
            words += [_FILLER[rng.next_below(len(_FILLER))] for _ in range(3)]
            words += _aspect_phrase("quality", quality[i])
            words += [_FILLER[rng.next_below(len(_FILLER))] for _ in range(3)]
            records.append(RawRecord(f"u{u}", f"i{i}", rating, " ".join(words)))
    return records
