"""The benchmark's workloads and their reduced-size smoke variants.

Why each workload exists:

- `synthetic`: acceptance criterion 6's corpus and config. Its tensors are
  tiny, so per-call interpreter overhead dominates every phase, and the
  single-pair `model.forward` loop behind `evaluate` is the eval cost.
  Each side handles B*N*(T+window-1) rows per step, several hundred times
  the vocabulary size.
- `wide-vocab`: full.cfg dimensions with 8 reviews of 30 tokens per profile
  and a ~101k-token vocabulary. Work that scales with the parameter count
  (Adam, gradient allocation, L2, the finiteness check) dominates a step, and
  each side handles fewer rows than there are vocabulary entries. A change
  that pays per vocabulary row gains on `synthetic` and shows its cost here.

A `full` workload (full.cfg on a ~30k-token corpus of ~100-token reviews)
is not among them: its training steps take 8-10 s on a shared two-vCPU
machine, so a run could time only two of them, and ten runs took over seven
minutes, long enough for the host's slow spells to split the set.
"""

from dataclasses import dataclass, replace

from corpus import CorpusSpec


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # config file, relative to the repository root
    overrides: tuple            # (field, value) pairs applied to the config
    corpus: CorpusSpec | None   # None: make_synthetic_corpus(n_users, n_items)
    vocab_range: tuple          # inclusive bounds on the prepared vocabulary size
    warmup_steps: int           # untimed steps before the first timed one
    fixed_steps: int            # steps (warm-up included) before val_mse is taken
    eval_pairs: int             # validation pairs scored by each timed evaluate call
    mse_pairs: int              # validation pairs val_mse is scored on, once
    synthetic_users: int = 200
    synthetic_items: int = 100


WORKLOADS = {
    w.name: w for w in (
        Workload("synthetic", "configs/synthetic.cfg", (), None, (19, 19),
                 warmup_steps=5, fixed_steps=10, eval_pairs=10, mse_pairs=500),
        Workload("wide-vocab", "configs/full.cfg",
                 (("review_len", 30), ("num_reviews", 8)),
                 CorpusSpec(records=24000, users=3000, items=1200, types=110000,
                            zipf_s=0.7, min_len=10, max_len=50),
                 (95000, 110002), warmup_steps=1, fixed_steps=3, eval_pairs=10,
                 mse_pairs=300),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload shrunk to run in seconds; the tests use it."""
    corpus, vocab_range = w.corpus, w.vocab_range
    if corpus is not None:
        corpus = replace(corpus, records=400, users=60, items=30, types=corpus.types // 100)
        vocab_range = (2, corpus.types + 2)
    return replace(w, overrides=w.overrides + (("batch_size", 8),), corpus=corpus,
                   vocab_range=vocab_range, warmup_steps=1, fixed_steps=3,
                   eval_pairs=8, mse_pairs=12, synthetic_users=20, synthetic_items=10)
