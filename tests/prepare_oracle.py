"""Two-pass reference for `data.prepare_dataset`, and a per-record one for
`data.build_profiles`.

The straightforward pipeline: split the raw records with a scalar
Fisher-Yates loop, count the train texts' tokens with a `Counter`, sort the
kept tokens by (-count, token), then tokenize every text again and look each
token up in the vocabulary's dict. It tokenizes with the regex [a-z0-9]+
over the lowercased text and shares only the container types with the
package, so it can serve as an oracle for the one-pass numpy pipeline and
its bytes tokenizer. The profiles are filled by a Python loop over the train
records, one slot at a time, as an oracle for the fill from columns.
"""

import re
from collections import Counter

import numpy as np

from nrpa.data import (UNK_ID, UNK_TOKEN, DatasetSplit, Interaction, PreparedDataset,
                       ProfileStore, Vocabulary)
from nrpa.rng import SplitMix64
from conftest import interactions_of


def tokenize(text: str) -> list:
    """The [a-z0-9]+ runs of the lowercased text."""
    return re.findall(r"[a-z0-9]+", text.lower())


def split_indices(n: int, seed: int):
    """(train, validation, test) index lists of the 80/10/10 split."""
    order = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    return (sorted(order[:n_train]), sorted(order[n_train:n_train + n_val]),
            sorted(order[n_train + n_val:]))


def build_vocabulary(texts, min_count: int) -> Vocabulary:
    counts = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def encode(token_to_id: dict, tokens, limit: int) -> np.ndarray:
    get = token_to_id.get
    return np.asarray([get(t, UNK_ID) for t in tokens[:limit]], dtype=np.int32)


def prepare_dataset(records, seed: int, min_count: int = 1,
                    review_len: int = 100) -> PreparedDataset:
    train_idx, val_idx, test_idx = split_indices(len(records), seed)
    user_keys = [UNK_TOKEN, *dict.fromkeys(r.user_key for r in records)]
    item_keys = [UNK_TOKEN, *dict.fromkeys(r.item_key for r in records)]
    user_index = {key: i for i, key in enumerate(user_keys[1:], start=1)}
    item_index = {key: i for i, key in enumerate(item_keys[1:], start=1)}
    vocab = build_vocabulary((records[i].text for i in train_idx), min_count)
    token_to_id = {t: i for i, t in enumerate(vocab.id_to_token)}
    interactions = interactions_of(
        Interaction(user_index[r.user_key], item_index[r.item_key], r.rating,
                    encode(token_to_id, tokenize(r.text), review_len))
        for r in records
    )
    part = np.empty(len(records), dtype=np.uint32)
    for p, idx in enumerate((train_idx, val_idx, test_idx)):
        part[idx] = p
    split = DatasetSplit(interactions, part)
    return PreparedDataset(vocab, interactions, split, user_keys, item_keys, review_len)


def build_profiles(train_interactions, review_len: int, num_reviews: int,
                   n_users: int, n_items: int):
    """(user_store, item_store): each owner's first num_reviews train records
    in order, each cut to review_len tokens, written slot by slot."""
    users = ProfileStore(n_users, num_reviews, review_len)
    items = ProfileStore(n_items, num_reviews, review_len)
    user_fill, item_fill = [0] * n_users, [0] * n_items
    for inter in train_interactions:
        toks = inter.tokens[:review_len]
        for store, fill, owner, partner in ((users, user_fill, inter.user, inter.item),
                                            (items, item_fill, inter.item, inter.user)):
            slot = fill[owner]
            if slot < num_reviews:
                store.tokens[owner, slot, :len(toks)] = toks
                store.partner[owner, slot] = partner
                fill[owner] = slot + 1
    return users, items
