# nrpa before numpy: importing nrpa pins BLAS to one thread only if numpy has
# not loaded yet, and the in-process goldens are one-thread bits
import nrpa  # noqa: F401  isort: skip

import numpy as np
import pytest
from hypothesis import settings

from nrpa import model as M
from nrpa.data import Interaction, Interactions, build_profiles, prepare_dataset
from nrpa.evaluation import make_synthetic_corpus

# every run draws the same hypothesis examples, and no example database
# carries a failure from one run into the next, so a defect a property finds
# fails every run; each @settings keeps its max_examples
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

# toy dimensions small enough for finite-difference sweeps over every tensor
TOY_DIMS = M.Dims(vocab_size=20, n_users=3, n_items=3, word_dim=5, id_dim=4,
                  num_filters=6, attn_dim=6, window=3, fm_dim=2, review_len=7,
                  num_reviews=3)


def interactions_of(records) -> Interactions:
    """The Interactions holding records (Interaction objects with tokens) in
    order, built column by column: their tokens back to back in one buffer."""
    records = list(records)
    lens = np.array([len(r.tokens) for r in records], dtype=np.int64)
    ends = np.cumsum(lens)
    tokens = np.concatenate([np.zeros(0, np.int32)]
                            + [np.asarray(r.tokens, np.int32) for r in records])
    return Interactions(np.array([r.user for r in records], dtype=np.int64),
                        np.array([r.item for r in records], dtype=np.int64),
                        np.array([r.rating for r in records], dtype=np.float64),
                        tokens, ends - lens, ends)


def forbid_records(monkeypatch):
    """Makes building an Interaction record from an Interactions raise."""
    getitem = Interactions.__getitem__

    def columns_only(self, k):
        if isinstance(k, (int, np.integer)):
            raise AssertionError(f"Interactions[{k}] built a record")
        return getitem(self, k)

    def no_iteration(self):
        raise AssertionError("iterating an Interactions builds records")

    monkeypatch.setattr(Interactions, "__getitem__", columns_only)
    monkeypatch.setattr(Interactions, "__iter__", no_iteration)


def toy_stores():
    """Deterministic 2-user/2-item profile pair with underfull and overlong
    reviews (owner 0 is the reserved cold-start slot, all padding)."""
    reviews = [
        (1, 1, [2, 3, 4, 5, 6]),
        (1, 2, [7, 8]),
        (2, 1, [9, 10, 11, 2, 3, 4, 5, 17, 18]),  # truncated to 7
        (2, 2, [12, 13, 14]),
        (2, 1, [15, 16, 2]),
    ]
    inters = [Interaction(u, i, 3.0, np.array(toks, dtype=np.int32))
              for u, i, toks in reviews]
    return build_profiles(interactions_of(inters), review_len=7, num_reviews=3, n_users=3,
                          n_items=3)


def toy_batch():
    return [Interaction(1, 1, 4.0, None), Interaction(1, 2, 3.0, None),
            Interaction(2, 1, 5.0, None), Interaction(2, 2, 2.0, None)]


@pytest.fixture
def toy_params():
    return M.init_params(TOY_DIMS, seed=7)


@pytest.fixture(scope="session")
def tiny_dataset():
    """60-interaction synthetic corpus through the full prepare pipeline."""
    records = make_synthetic_corpus(seed=3, n_users=12, n_items=8, reviews_per_user=5)
    return prepare_dataset(records, seed=9, min_count=1, review_len=14)


@pytest.fixture(scope="session")
def tiny_stores(tiny_dataset):
    ds = tiny_dataset
    return build_profiles(ds.split.train, 12, 4, ds.n_users, ds.n_items)
