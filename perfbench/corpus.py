"""Seeded Zipf review corpora for the benchmark's large-vocabulary workloads.

Every random draw comes from one `SplitMix64` stream seeded with the workload
seed, so one seed always gives the same CSV bytes. Tokens follow a Zipf law
over `types` word types; users and items are drawn with Zipf-skewed activity,
so most users have few reviews and their profiles carry padding.

Ratings are integers 1..5 from a per-user and per-item offset plus noise,
mostly 4 and 5 like store reviews. Review text does not determine
the rating; the corpus exists to give the model realistic tensor shapes.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from nrpa.rng import SplitMix64

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class CorpusSpec:
    records: int
    users: int
    items: int
    types: int          # word types the Zipf law ranges over
    zipf_s: float       # Zipf exponent of the token law
    min_len: int        # review length is uniform on [min_len, max_len]
    max_len: int
    owner_s: float = 0.8  # Zipf exponent of user and item activity


def word(rank: int) -> str:
    """Bijective base-26 spelling of a rank: 0 -> 'a', 26 -> 'aa'."""
    out = []
    rank += 1
    while rank:
        rank, digit = divmod(rank - 1, 26)
        out.append(_LETTERS[digit])
    return "".join(reversed(out))


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    # inverse-CDF draw; the clip guards the last bin against rounding in cdf[-1]
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def generate_csv(spec: CorpusSpec, seed: int) -> bytes:
    """Headerless `user,item,rating,text` CSV, the input `nrpa prepare` reads."""
    rng = SplitMix64(seed)
    n = spec.records
    users = _draw(_zipf_cdf(spec.users, spec.owner_s), rng.uniform(0.0, 1.0, (n,)))
    items = _draw(_zipf_cdf(spec.items, spec.owner_s), rng.uniform(0.0, 1.0, (n,)))
    lengths = spec.min_len + np.floor(
        rng.uniform(0.0, spec.max_len - spec.min_len + 1, (n,))).astype(np.int64)

    user_bias = rng.uniform(-0.25, 0.25, (spec.users,))
    item_bias = rng.uniform(-0.25, 0.25, (spec.items,))
    noise = rng.uniform(-0.6, 0.6, (n,))
    ratings = np.clip(np.rint(4.2 + user_bias[users] + item_bias[items] + noise), 1, 5)

    # item i's ranks are shifted by a per-item offset, so items differ in
    # which words are frequent while the marginal law stays Zipf
    shift = np.floor(rng.uniform(0.0, 50.0, (spec.items,))).astype(np.int64)
    ranks = _draw(_zipf_cdf(spec.types, spec.zipf_s),
                  rng.uniform(0.0, 1.0, (int(lengths.sum()),)))
    words = np.array([word(r) for r in range(spec.types)], dtype=object)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    pos = 0
    for r in range(n):
        end = pos + int(lengths[r])
        toks = (ranks[pos:end] + shift[items[r]]) % spec.types
        writer.writerow((f"u{users[r]}", f"i{items[r]}", int(ratings[r]),
                         " ".join(words[toks])))
        pos = end
    return out.getvalue().encode("utf-8")
