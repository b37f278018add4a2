import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nrpa
from nrpa import model as M
from nrpa.data import parse_reviews, prepare_dataset
from nrpa.evaluation import _EVAL_CHUNK, evaluate, make_synthetic_corpus, mse
from nrpa.training import TrainConfig


def test_mse_identical_vectors():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mse_hand_arithmetic():
    assert mse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)


def test_mse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])
    # finite inputs whose squares overflow: the FloatingPointError and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="mse inf"):
            mse([1e200, 3.0], [1.0, 2.0])


def test_global_mean_predictor_equals_variance_oracle(tiny_dataset):
    """The train-mean constant predictor's MSE on a split is that split's
    mean squared deviation from the train mean, computed directly."""
    train_mean = np.mean([i.rating for i in tiny_dataset.split.train])
    truths = np.array([i.rating for i in tiny_dataset.split.test])
    direct = float(np.mean((truths - train_mean) ** 2))
    assert mse(np.full(len(truths), train_mean), truths) == pytest.approx(direct,
                                                                          rel=1e-12)


def trained_toy(tiny_dataset, tiny_stores):
    from nrpa.training import train
    cfg = TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8, window=3,
                      fm_dim=4, review_len=12, num_reviews=4, learning_rate=5e-3,
                      batch_size=16, max_epochs=3, patience=3, l2_weight=1e-6, seed=2)
    params, _ = train(cfg, tiny_dataset, tiny_stores)
    return params


def test_evaluate_equals_predict_batch_on_same_chunks(tiny_dataset, tiny_stores):
    params = trained_toy(tiny_dataset, tiny_stores)
    train = tiny_dataset.split.train
    # 144 pairs: two full chunks and a partial one
    split = train[np.tile(np.arange(len(train)), 3)]
    assert len(split) > 2 * _EVAL_CHUNK
    score = evaluate(params, split, tiny_stores, M.AblationSpec(), exclude_target=True)
    preds = []
    for lo in range(0, len(split), _EVAL_CHUNK):
        chunk = split[lo:lo + _EVAL_CHUNK]
        preds.extend(M.predict_batch(params, tiny_stores[0], tiny_stores[1],
                                     [i.user for i in chunk], [i.item for i in chunk],
                                     exclude_target=True)[0])
    assert score == mse(preds, [i.rating for i in split])  # exact, same path


def traced(params, pairs, stores, exclude: bool) -> list:
    """The records evaluate's trace writes for pairs, one per pair."""
    sink = io.StringIO()
    evaluate(params, pairs, stores, exclude_target=exclude, trace_sink=sink)
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def test_forward_and_evaluate_agree_pair_for_pair(tiny_dataset, tiny_stores):
    """Under either exclude_target, forward scores each of 20 training pairs
    as evaluate's trace does: to the bits of a chunk of that pair alone, and
    within 1e-12 of a chunk of all 20, whose products BLAS runs at other
    shapes and may round otherwise in the last bit. Training pairs, because
    only their own review is in the train-built profiles: the exclusion
    changes their scores, so both settings are exercised."""
    params = trained_toy(tiny_dataset, tiny_stores)
    pairs = tiny_dataset.split.train[:20]
    scores = {}
    for exclude in (True, False):
        chunk = traced(params, pairs, tiny_stores, exclude)
        assert [(t["user"], t["item"]) for t in chunk] == \
            list(zip(pairs.users.tolist(), pairs.items.tolist()))
        scores[exclude] = [t["prediction"] for t in chunk]
        for b, t in enumerate(chunk):
            rating, _, _ = M.forward(t["user"], t["item"], tiny_stores[0], tiny_stores[1],
                                     params, exclude_target=exclude)
            alone = traced(params, pairs[b:b + 1], tiny_stores, exclude)
            assert [rating] == [one["prediction"] for one in alone]
            assert rating == pytest.approx(t["prediction"], abs=1e-12)
    assert all(a != b for a, b in zip(scores[True], scores[False]))


def test_evaluate_twice_is_bit_identical(tiny_dataset, tiny_stores):
    params = trained_toy(tiny_dataset, tiny_stores)
    split = tiny_dataset.split.train[:40]
    a = evaluate(params, split, tiny_stores, exclude_target=True)
    b = evaluate(params, split, tiny_stores, exclude_target=True)
    assert a == b


def test_evaluate_clip_bounds_predictions(tiny_dataset, tiny_stores):
    params = M.init_params(
        TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8, window=3,
                    fm_dim=4, review_len=12, num_reviews=4)
        .dims(len(tiny_dataset.vocab), tiny_dataset.n_users, tiny_dataset.n_items),
        seed=0)
    params.fm.bias[...] = 9.0  # push raw predictions far above 5
    split = tiny_dataset.split.test
    clipped = evaluate(params, split, tiny_stores, exclude_target=True, clip=True)
    raw = evaluate(params, split, tiny_stores, exclude_target=True, clip=False)
    assert clipped < raw


def test_uniform_word_ablation_is_user_independent(tiny_dataset, tiny_stores):
    """With word=uniform and review=uniform, alpha and beta cannot depend on
    who is reading: all users see identical weights on the same item text."""
    params = trained_toy(tiny_dataset, tiny_stores)
    no_att = M.AblationSpec(word="uniform", review="uniform")
    item = 1
    caches = []
    for user in range(1, 11):
        _, _, i_cache = M.forward(user, item, tiny_stores[0], tiny_stores[1], params,
                                  exclude_target=False, ablation=no_att)
        caches.append(i_cache)
    for c in caches[1:]:
        assert np.array_equal(c.alpha[0], caches[0].alpha[0])
        assert np.array_equal(c.beta[0], caches[0].beta[0])


def test_personalized_weights_do_depend_on_user(tiny_dataset, tiny_stores):
    """The same review text read by two different users gets different word
    weights once queries are personalized."""
    from conftest import interactions_of
    from nrpa.data import Interaction, build_profiles
    params = trained_toy(tiny_dataset, tiny_stores)
    toks = np.array([2, 3, 4, 5, 6, 7], dtype=np.int32)
    shared, _ = build_profiles(interactions_of(Interaction(owner, 1, 3.0, toks)
                                               for owner in (1, 2)), 12, 2, 3, 2)
    alphas = M.encode_side_batch(params, "user", shared, np.array([1, 2])).alpha
    assert not np.array_equal(alphas[0], alphas[1])


def test_trace_sink_jsonl_schema(tiny_dataset, tiny_stores):
    params = trained_toy(tiny_dataset, tiny_stores)
    sink = io.StringIO()
    split = tiny_dataset.split.test[:3]
    evaluate(params, split, tiny_stores, exclude_target=True, trace_sink=sink)
    lines = sink.getvalue().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"user", "item", "prediction", "user_alpha", "user_beta",
                        "item_alpha", "item_beta"}
    assert rec["user"] == split[0].user
    beta = np.array(rec["user_beta"])
    assert beta.sum() == pytest.approx(1.0, abs=1e-9) or beta.sum() == 0.0


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_synthetic_ratings_within_range():
    records = make_synthetic_corpus(seed=4, n_users=10, n_items=10)
    assert all(1.0 <= r.rating <= 5.0 for r in records)


def test_synthetic_pure_users_order_ratings_by_aspect():
    """A pure-price user rates an unfavorable-price/high-quality item below a
    pure-quality user's rating of the same item."""
    records = make_synthetic_corpus(seed=4, n_users=40, n_items=20,
                                    reviews_per_user=20)  # everyone rates everything
    by_pair = {(r.user_key, r.item_key): r.rating for r in records}
    texts = {r.item_key: r.text for r in records}
    targets = [k for k, t in texts.items()
               if "price very high" in t and "quality very high" in t]
    assert targets, "corpus should contain a cheap-looking-bad/high-quality item"
    item = targets[0]
    # price score < 0.25 and quality >= 0.75, so a pure-price user lands below
    # 1 + 4*0.25 + noise while a pure-quality user lands above 1 + 4*0.75 - noise
    ratings = [by_pair[(u, item)] for u in {r.user_key for r in records}]
    price_side = [r for r in ratings if r < 2.5]
    quality_side = [r for r in ratings if r > 3.5]
    assert price_side and quality_side
    assert min(price_side) < max(quality_side)


def test_synthetic_determinism():
    a = make_synthetic_corpus(seed=12, n_users=6, n_items=6)
    b = make_synthetic_corpus(seed=12, n_users=6, n_items=6)
    assert a == b
    c = make_synthetic_corpus(seed=13, n_users=6, n_items=6)
    assert a != c


def test_synthetic_rejects_tiny_worlds():
    with pytest.raises(ValueError):
        make_synthetic_corpus(seed=0, n_users=3, n_items=10)


def test_synthetic_texts_use_aspect_keywords():
    records = make_synthetic_corpus(seed=5, n_users=5, n_items=5)
    for r in records:
        assert "price" in r.text and "quality" in r.text


def test_synthetic_pipeline_prepares(tmp_path):
    records = make_synthetic_corpus(seed=6, n_users=8, n_items=6, reviews_per_user=4)
    ds = prepare_dataset(records, seed=1)
    assert len(ds.interactions) == 32


def test_synthetic_corpus_script_writes_the_corpus(tmp_path):
    """The README experiment's first step: the script's CSV parses back to
    make_synthetic_corpus's records, none skipped."""
    out = tmp_path / "synth.csv"
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"
    env = {**os.environ, "PYTHONPATH": str(Path(nrpa.__file__).parent.parent)}
    subprocess.run([sys.executable, str(script),
                    "--out", str(out), "--seed", "101", "--users", "20", "--items", "10"],
                   env=env, capture_output=True, check=True)
    with open(out, "rb") as fh:
        records, skipped = parse_reviews(fh, "csv")
    assert records == make_synthetic_corpus(101, 20, 10) and skipped == 0
