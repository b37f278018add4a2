"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines.
Criterion 7 needs a real review corpus; point NRPA_REAL_CORPUS at an
amazon-json or csv file with >= 20k usable interactions to enable it.
"""

import csv
import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from nrpa import model as M
from nrpa import training as T
from nrpa.cli import main
from nrpa.checkpoint import load_params, save_params
from nrpa.data import (Interaction, build_profiles, parse_reviews,
                       prepare_dataset)
from nrpa.evaluation import evaluate, make_synthetic_corpus, mse
from nrpa.model import masked_softmax
from conftest import TOY_DIMS, interactions_of, toy_batch, toy_stores
from gradcheck import grad_check, loss
from scalar_oracle import scalar_forward

NO_ATTENTION = M.AblationSpec(word="uniform", review="uniform")


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. gradient exactness on the stated toy dims
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_exactness():
    started = time.time()
    params = M.init_params(TOY_DIMS, seed=7)
    stores = toy_stores()
    batch = toy_batch()
    l2 = 1e-3
    _, grads = T.backward(batch, params, stores, l2)

    worst = {}
    # every coordinate, the PAD embedding row's included: nothing reads it,
    # so its analytic and numeric gradients are both 0
    for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
        def f(flat, name=name, shape=p.shape):
            trial = params.copy()
            dict(trial.tensors())[name][...] = flat.reshape(shape)
            return loss(batch, trial, stores, l2)
        worst[name] = grad_check(f, p.reshape(-1).copy(), g.reshape(-1).copy(),
                                 eps=1e-5)
    elapsed = time.time() - started
    assert max(worst.values()) < 1e-4, worst
    assert elapsed < 60.0
    report(1, f"max relative gradient error {max(worst.values()):.2e} over "
              f"{len(worst)} tensors in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. forward matches the independent scalar-loop oracle
# ---------------------------------------------------------------------------

def test_criterion_2_scalar_oracle_equivalence():
    params = M.init_params(TOY_DIMS, seed=13)
    stores = toy_stores()
    worst = 0.0
    for exclude in (False, True):
        for user in (1, 2):
            for item in (1, 2):
                got, _, _ = M.forward(user, item, stores[0], stores[1], params,
                                      exclude_target=exclude)
                want = scalar_forward(params, user, item, stores[0], stores[1],
                                      exclude_target=exclude)
                worst = max(worst, abs(got - want))
    assert worst < 1e-10
    report(2, f"2-user/2-item fixture matches straight-line oracle, "
              f"max |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. FM fast form vs explicit double sum
# ---------------------------------------------------------------------------

def test_criterion_3_fm_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n, k_fm = 160, 10
        fm = SimpleNamespace(bias=np.array(rng.normal()), linear=rng.normal(size=n),
                             factors=rng.normal(size=(n, k_fm)) * 0.3)
        o = rng.normal(size=n)
        fast = M.fm_predict_batch(fm, o[None])[0]
        gram = fm.factors @ fm.factors.T
        slow = float(fm.bias) + float(fm.linear @ o)
        for i in range(n):
            for j in range(i + 1, n):
                slow += gram[i, j] * o[i] * o[j]
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    assert worst < 1e-10
    report(3, f"fast FM equals explicit double sum on 100 random instances "
              f"(2K=160, k_fm=10), max rel diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. attention invariants, >= 100 random cases each
# ---------------------------------------------------------------------------

def test_criterion_4a_masked_softmax_normalization():
    rng = np.random.default_rng(41)
    for _ in range(120):
        n = int(rng.integers(1, 40))
        logits = rng.normal(size=n) * rng.uniform(0.1, 30)
        mask = rng.random(n) < rng.uniform(0.1, 1.0)
        w = masked_softmax(logits, mask)
        assert not w[~mask].any()
        if mask.any():
            assert abs(w[mask].sum() - 1.0) <= 1e-9
        else:
            assert not w.any()
    report("4a", "masked-softmax normalization holds on 120 random cases")


def test_criterion_4b_convex_hull_containment():
    rng = np.random.default_rng(42)
    for _ in range(120):
        k, t = int(rng.integers(1, 10)), int(rng.integers(1, 20))
        c = rng.normal(size=(k, t)) * 3
        q = rng.normal(size=5)
        pairing = rng.normal(size=(5, k))
        mask = rng.random(t) < 0.7
        if not mask.any():
            mask[int(rng.integers(t))] = True
        _, pooled = M.attention_pool(c.T[None], (pairing.T @ q)[None], mask[None])
        atoms = c[:, mask]
        assert np.all(pooled[0] >= atoms.min(axis=1) - 1e-12)
        assert np.all(pooled[0] <= atoms.max(axis=1) + 1e-12)
    report("4b", "pooled vectors stay in the convex hull of unmasked atoms "
                 "(120 random cases)")


def test_criterion_4c_review_permutation_invariance():
    rng = np.random.default_rng(43)
    for _ in range(120):
        n, k = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        d = rng.normal(size=(n, k))
        q = rng.normal(size=4)
        pairing = rng.normal(size=(4, k))
        mask = rng.random(n) < 0.8
        query = (pairing.T @ q)[None]
        weights, pooled = M.attention_pool(d[None], query, mask[None])
        perm = rng.permutation(n)
        weights_p, pooled_p = M.attention_pool(d[perm][None], query, mask[perm][None])
        assert np.allclose(weights_p[0], weights[0][perm], atol=1e-12)
        assert np.allclose(pooled_p, pooled, atol=1e-12)
    report("4c", "review-order permutation equivariance/invariance "
                 "(120 random cases)")


def test_criterion_4d_uniform_ablation_user_independence():
    rng = np.random.default_rng(44)
    params = M.init_params(M.Dims(30, 12, 3, 6, 4, 5, 5, 3, 2, 9, 3), seed=3)
    text = np.arange(2, 2 + 7, dtype=np.int32)  # identical text for every owner
    store, _ = build_profiles(interactions_of(Interaction(owner, 1, 3.0, text)
                                              for owner in range(12) for rev in range(2)),
                              9, 3, 12, 2)
    count = 0
    for _ in range(34):  # x3 user pairs = 102 comparisons
        users = rng.choice(12, size=4, replace=False)
        cache = M.encode_side_batch(params, "user", store, users, ablation=NO_ATTENTION)
        for b in range(1, len(users)):
            assert np.array_equal(cache.alpha[b], cache.alpha[0])
            assert np.array_equal(cache.beta[b], cache.beta[0])
            count += 1
    assert count >= 100
    report("4d", f"uniform ablation gives user-independent weights "
                 f"({count} comparisons)")


# ---------------------------------------------------------------------------
# 5. capacity: overfit a 50-interaction corpus
# ---------------------------------------------------------------------------

def test_criterion_5_capacity():
    records = make_synthetic_corpus(seed=21, n_users=10, n_items=5,
                                    reviews_per_user=5)
    assert len(records) == 50
    ds = prepare_dataset(records, seed=2, min_count=1, review_len=14)
    cfg = T.TrainConfig(word_dim=16, id_dim=8, num_filters=16, attn_dim=16,
                        window=3, fm_dim=8, review_len=12, num_reviews=5,
                        learning_rate=2e-2, batch_size=5, max_epochs=200,
                        patience=200, l2_weight=0.0, seed=4)
    stores = build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                            ds.n_users, ds.n_items)
    _, history = T.train(cfg, ds, stores)
    best = min(rec.train_loss for rec in history)
    first = next((rec.epoch for rec in history if rec.train_loss < 0.05), None)
    assert first is not None and first <= 200, f"best training MSE {best:.4f}"
    report(5, f"training MSE dropped below 0.05 at epoch {first} "
              f"(best {best:.4f} within {len(history)} epochs)")


# ---------------------------------------------------------------------------
# 6. personalization beats the no-attention variant on synthetic data
# ---------------------------------------------------------------------------

def test_criterion_6_personalization_benefit():
    started = time.time()
    results = []
    for seed in (101, 102, 103):
        records = make_synthetic_corpus(seed=seed, n_users=200, n_items=100)
        ds = prepare_dataset(records, seed=seed + 1, min_count=1, review_len=14)
        cfg = T.TrainConfig(word_dim=16, id_dim=16, num_filters=16, attn_dim=16,
                            window=3, fm_dim=8, review_len=12, num_reviews=10,
                            learning_rate=5e-3, batch_size=100, max_epochs=20,
                            patience=5, l2_weight=1e-6, seed=seed + 2)
        stores = build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                                ds.n_users, ds.n_items)
        full_params, _ = T.train(cfg, ds, stores)
        none_params, _ = T.train(cfg, ds, stores, NO_ATTENTION)
        full_mse = evaluate(full_params, ds.split.test, stores,
                            exclude_target=True)
        none_mse = evaluate(none_params, ds.split.test, stores, NO_ATTENTION,
                            exclude_target=True)
        results.append((seed, full_mse, none_mse))

    for seed, full_mse, none_mse in results:
        assert full_mse < none_mse, \
            f"seed {seed}: full {full_mse:.4f} !< none {none_mse:.4f}"
    improvements = [(none - full) / none for _, full, none in results]
    mean_rel = float(np.mean(improvements))
    elapsed = time.time() - started
    assert mean_rel >= 0.05
    detail = ", ".join(f"seed {s}: {f:.3f} vs {n:.3f}" for s, f, n in results)
    report(6, f"full beats no-attention on all 3 seeds ({detail}); mean "
              f"improvement {100 * mean_rel:.1f}% in {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# 7. real-corpus sanity (needs NRPA_REAL_CORPUS)
# ---------------------------------------------------------------------------

@pytest.mark.skipif("NRPA_REAL_CORPUS" not in os.environ,
                    reason="no real review corpus in this environment; set "
                           "NRPA_REAL_CORPUS=<amazon-json or csv file>")
def test_criterion_7_real_data_sanity():
    path = os.environ["NRPA_REAL_CORPUS"]
    fmt = "amazon-json" if path.endswith((".json", ".jsonl", ".json.gz")) else "csv"
    with open(path, "rb") as fh:
        records, skipped = parse_reviews(fh, fmt)
    assert len(records) >= 20_000, f"corpus has only {len(records)} usable records"
    ds = prepare_dataset(records, seed=7, min_count=5, review_len=100)
    cfg = T.TrainConfig(word_dim=48, id_dim=32, num_filters=32, attn_dim=32,
                        window=3, fm_dim=10, review_len=60, num_reviews=10,
                        learning_rate=1e-3, batch_size=100, max_epochs=8,
                        patience=2, l2_weight=1e-6, seed=7)
    stores = build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                            ds.n_users, ds.n_items)
    params, _ = T.train(cfg, ds, stores)
    model_mse = evaluate(params, ds.split.test, stores, exclude_target=True)

    train_mean = float(np.mean([i.rating for i in ds.split.train]))
    truths = [i.rating for i in ds.split.test]
    baseline = mse(np.full(len(truths), train_mean), truths)
    assert model_mse <= 0.9 * baseline, \
        f"model {model_mse:.4f} vs train-mean {baseline:.4f}"
    report(7, f"model MSE {model_mse:.4f} beats train-mean {baseline:.4f} by "
              f"{100 * (baseline - model_mse) / baseline:.1f}%")


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.csv"
    records = make_synthetic_corpus(seed=31, n_users=12, n_items=8,
                                    reviews_per_user=5)
    with open(corpus, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for r in records:
            writer.writerow([r.user_key, r.item_key, repr(r.rating), r.text])
    config = tmp_path / "train.cfg"
    config.write_text(
        "word_dim = 8\nid_dim = 4\nnum_filters = 8\nattn_dim = 8\nwindow = 3\n"
        "fm_dim = 4\nreview_len = 12\nnum_reviews = 4\nlearning_rate = 5e-3\n"
        "batch_size = 16\nmax_epochs = 2\npatience = 2\nl2_weight = 1e-6\n"
        "seed = 2\n")

    artifacts = {}
    for tag in ("one", "two"):
        data = tmp_path / f"prep_{tag}"
        run = tmp_path / f"run_{tag}"
        assert main(["prepare", "--input", str(corpus), "--format", "csv",
                     "--out", str(data), "--seed", "11"]) == 0
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(run)]) == 0
        eval_csv = tmp_path / f"eval_{tag}.csv"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.nrpa"),
                     "--data", str(data), "--split", "val",
                     "--out", str(eval_csv)]) == 0
        artifacts[tag] = {
            "vocab": (data / "vocab.tsv").read_bytes(),
            "interactions": (data / "interactions.bin").read_bytes(),
            "checkpoint": (run / "checkpoint.nrpa").read_bytes(),
            "history": (run / "history.csv").read_bytes(),
            "eval": eval_csv.read_bytes(),
        }
    for key in artifacts["one"]:
        assert artifacts["one"][key] == artifacts["two"][key], key
    report(8, "prepare/train/eval reruns are byte-identical "
              f"({len(artifacts['one'])} artifacts compared)")


# ---------------------------------------------------------------------------
# 9. checkpoint round trip
# ---------------------------------------------------------------------------

def test_criterion_9_checkpoint_round_trip(tmp_path, tiny_dataset, tiny_stores):
    cfg = T.TrainConfig(word_dim=8, id_dim=4, num_filters=8, attn_dim=8,
                        window=3, fm_dim=4, review_len=12, num_reviews=4,
                        learning_rate=5e-3, batch_size=16, max_epochs=3,
                        patience=3, l2_weight=1e-6, seed=6)
    params, history = T.train(cfg, tiny_dataset, tiny_stores)
    before = evaluate(params, tiny_dataset.split.validation, tiny_stores,
                      exclude_target=cfg.exclude_target)
    assert before == min(r.val_mse for r in history)

    first = tmp_path / "first.nrpa"
    second = tmp_path / "second.nrpa"
    save_params(params, first, {"config": {"seed": cfg.seed}})
    loaded, _ = load_params(first)
    save_params(loaded, second, {"config": {"seed": cfg.seed}})
    assert first.read_bytes() == second.read_bytes()

    after = evaluate(loaded, tiny_dataset.split.validation, tiny_stores,
                     exclude_target=cfg.exclude_target)
    assert after == before
    report(9, f"save-load-save byte-identical; reloaded validation MSE "
              f"{after!r} equals pre-save value exactly")
