"""Corpus ingestion: parsing, tokenization, vocabulary, splits and review profiles.

A prepared dataset is corpus-order list of interactions plus an 80/10/10
split, a train-only vocabulary, and per-owner fixed-shape review profiles
(num_reviews x review_len token grids) for the user and item sides.
prepare_dataset tokenizes each review once: the vocabulary is counted, ranked
and looked up in numpy over one stream of token-type numbers.
"""

import csv
import io
import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .rng import SplitMix64

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# users.tsv/items.tsv store one `key<TAB>index` line per owner in UTF-8, so a
# key holding a tab or a line break could not be read back, and one holding a
# lone surrogate (a JSON escape such as "\ud800") could not be written
_KEY_BREAKERS = re.compile(r"[\t\n\r\ud800-\udfff]")

# the largest field csv.reader may read, in characters: the largest value a
# C long holds on every platform, so that a review of any length is read
_CSV_FIELD_LIMIT = 2**31 - 1


@dataclass
class RawRecord:
    user_key: str
    item_key: str
    rating: float
    text: str


@dataclass
class Interaction:
    user: int
    item: int
    rating: float
    tokens: np.ndarray  # int32 token ids, length <= review_len


def batch_arrays(interactions):
    """(users, items, ratings) of interactions as int64, int64 and float64
    arrays, in their order."""
    if len(interactions) == 0:
        raise ValueError("no interactions")
    users = np.array([b.user for b in interactions], dtype=np.int64)
    items = np.array([b.item for b in interactions], dtype=np.int64)
    ratings = np.array([b.rating for b in interactions], dtype=np.float64)
    return users, items, ratings


def _interactions(users, items, ratings, tokens: np.ndarray, bounds: np.ndarray) -> list:
    """Interactions over one int32 token buffer, which is made read-only:
    interaction k's tokens are the view tokens[bounds[k]:bounds[k + 1]]."""
    tokens.flags.writeable = False
    bounds = bounds.tolist()
    return [Interaction(user, item, rating, tokens[lo:hi])
            for user, item, rating, lo, hi in zip(users, items, ratings, bounds, bounds[1:])]


class DatasetSplit:
    """Train/validation/test parts of `items`, taken by three index lists;
    each part keeps the order of its list."""

    def __init__(self, items: list, seed: int, train_idx: list, val_idx: list,
                 test_idx: list):
        self.seed = seed
        self.train_idx, self.val_idx, self.test_idx = train_idx, val_idx, test_idx
        self.train = [items[i] for i in train_idx]
        self.validation = [items[i] for i in val_idx]
        self.test = [items[i] for i in test_idx]


def parse_reviews(stream, format: str):
    """Parse a review corpus from a binary stream into (records, skipped_count).

    amazon-json: one JSON object per line with reviewerID/asin/overall/reviewText.
    csv: headerless rows user,item,rating,text (quoting per the csv module).
    A line that does not split into those four fields (malformed, too
    deeply nested, a key missing, a row of another width) is skipped and
    counted, and so is one whose fields break the rule both formats share:
    the keys and the text are strings, the rating is a number in [1, 5] and
    not a boolean (a string that float() reads counts), and no key holds a
    tab, newline, carriage return or lone surrogate. Blank lines are passed
    over, and a field of any length is read. The stream is read as UTF-8,
    with a leading byte-order mark dropped, and left open.
    """
    if format not in ("amazon-json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    text = io.TextIOWrapper(stream, encoding="utf-8-sig")
    field_limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        # each non-blank line's fields, four unless the line does not split
        lines = (filter(None, csv.reader(text)) if format == "csv"
                 else map(_json_fields, filter(str.strip, text)))
        records = []
        skipped = 0
        for fields in lines:
            try:  # the rule the docstring states, for either format
                user_key, item_key, rating, review = fields
                if isinstance(rating, bool) or not (isinstance(user_key, str)
                                                    and isinstance(item_key, str)
                                                    and isinstance(review, str)):
                    raise TypeError
                rating = float(rating)
                if not 1.0 <= rating <= 5.0 or _KEY_BREAKERS.search(user_key + item_key):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                skipped += 1
                continue
            records.append(RawRecord(user_key, item_key, rating, review))
        return records, skipped
    finally:
        csv.field_size_limit(field_limit)
        text.detach()


def _json_fields(line: str) -> tuple:
    """An amazon-json line's reviewerID, asin, overall and reviewText, or ()
    for a line that does not split into them."""
    try:
        obj = json.loads(line)
        return obj["reviewerID"], obj["asin"], obj["overall"], obj["reviewText"]
    except (KeyError, TypeError, ValueError, RecursionError):
        return ()


def tokenize(text: str) -> list:
    """Lowercase and split on non-alphanumeric runs; drops empty tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Tokens by id, with PAD=0 and UNK=1 always present."""

    def __init__(self, tokens_by_rank=()):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens_by_rank)

    def __len__(self):
        return len(self.id_to_token)


def split_dataset(interactions: list, seed: int) -> DatasetSplit:
    """Deterministic 80/10/10 split; members stay in corpus order inside splits."""
    n = len(interactions)
    if n < 10:
        raise ValueError(f"need at least 10 interactions to split, got {n}")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return DatasetSplit(interactions, seed, sorted(order[:n_train]),
                        sorted(order[n_train:n_train + n_val]),
                        sorted(order[n_train + n_val:]))


class ProfileStore:
    """Fixed-shape review profiles for one side (users or items).

    tokens[o, n] is the n-th kept training review of owner o, PAD-padded to
    review_len; partner[o, n] identifies the other side of that review so the
    target review can be masked out when scoring the pair it belongs to, and
    is -1 in an unfilled slot. A review holds no PAD, so the masks follow:
    a slot is real where partner >= 0 and a token where it is not PAD.
    """

    def __init__(self, n_owners: int, num_reviews: int, review_len: int):
        self.tokens = np.zeros((n_owners, num_reviews, review_len), dtype=np.int32)
        self.partner = np.full((n_owners, num_reviews), -1, dtype=np.int32)

    @staticmethod
    def nbytes(n_owners: int, num_reviews: int, review_len: int) -> int:
        """Bytes __init__ allocates, as a Python int, so oversized dims can be
        rejected before anything is allocated."""
        return n_owners * num_reviews * (review_len + 1) * 4

    def gather(self, owners: np.ndarray, exclude_partner=None):
        """Profiles for a batch of owners: (tokens, token_mask, review_mask),
        the last as review_mask() gives it."""
        owners = np.asarray(owners)
        toks = self.tokens[owners]
        return toks, toks != PAD_ID, self.review_mask(owners, exclude_partner)

    def review_mask(self, owners: np.ndarray, exclude_partner=None) -> np.ndarray:
        """(B, N) real review slots for a batch of owners.

        With exclude_partner set (one id per owner), reviews whose partner
        matches are masked off here only: the target review keeps its words
        and gets review weight 0, and the grid keeps its shape.
        """
        partner = self.partner[np.asarray(owners)]
        rmask = partner >= 0
        if exclude_partner is not None:
            rmask &= partner != np.asarray(exclude_partner).reshape(-1, 1)
        return rmask


def build_profiles(train_interactions, review_len: int, num_reviews: int,
                   n_users: int, n_items: int):
    """(user_store, item_store) over the train split.

    Owners with no training review (including the reserved unknown owner 0)
    keep an all-PAD grid with an all-false review mask.
    """
    if review_len < 1 or num_reviews < 1:
        raise ValueError("review_len and num_reviews must be >= 1")
    users = ProfileStore(n_users, num_reviews, review_len)
    items = ProfileStore(n_items, num_reviews, review_len)
    user_fill, item_fill = [0] * n_users, [0] * n_items
    for inter in train_interactions:
        toks = inter.tokens[:review_len]
        for store, fill, owner, partner in ((users, user_fill, inter.user, inter.item),
                                            (items, item_fill, inter.item, inter.user)):
            slot = fill[owner]
            if slot < num_reviews:  # keep the first num_reviews reviews in corpus order
                store.tokens[owner, slot, :len(toks)] = toks
                store.partner[owner, slot] = partner
                fill[owner] = slot + 1
    return users, items


@dataclass
class PreparedDataset:
    vocab: Vocabulary
    interactions: list          # corpus order
    split: DatasetSplit
    user_keys: list             # index -> key, index 0 reserved
    item_keys: list
    review_len: int

    @property
    def n_users(self):
        return len(self.user_keys)

    @property
    def n_items(self):
        return len(self.item_keys)

    def stats(self) -> dict:
        ratings = len(self.interactions)
        users = len(self.user_keys) - 1
        items = len(self.item_keys) - 1
        density = 100.0 * ratings / (users * items) if users and items else 0.0
        return {"users": users, "items": items, "ratings": ratings, "density": density}


def prepare_dataset(records, seed: int, min_count: int = 1,
                    review_len: int = 100) -> PreparedDataset:
    """Full in-memory pipeline: split raw records, build vocab on train, encode.

    The split is decided on raw records so no validation/test text can leak
    into the vocabulary. One pass tokenizes train, then validation and test,
    into type numbers, so one bincount of a prefix counts every train token.
    Types counted at least min_count times get ids from 2 by descending count,
    ties broken lexicographically; the rest map to UNK. Each interaction's
    tokens are its first review_len ids, a view of one read-only int32 buffer.
    """
    raw = split_dataset(records, seed)

    # owners numbered in order of first appearance from 1; 0 is reserved
    user_number = defaultdict(count(1).__next__)
    item_number = defaultdict(count(1).__next__)
    users = [user_number[r.user_key] for r in records]
    items = [item_number[r.item_key] for r in records]

    number = defaultdict(count().__next__)  # token -> type number
    stream, ends = array("i"), array("q")
    for r in (*raw.train, *raw.validation, *raw.test):
        stream.extend(map(number.__getitem__, tokenize(r.text)))
        ends.append(len(stream))
    ids, ends = np.frombuffer(stream, np.int32), np.frombuffer(ends, np.int64)
    counts = np.bincount(ids[:ends[len(raw.train) - 1]], minlength=len(number))

    types = list(number)
    kept = np.flatnonzero(counts >= max(min_count, 1)).tolist()
    kept.sort(key=types.__getitem__)
    kept.sort(key=counts.tolist().__getitem__, reverse=True)
    rank = np.full(len(types), UNK_ID, dtype=np.int32)
    rank[kept] = np.arange(2, len(kept) + 2)
    vocab = Vocabulary([types[t] for t in kept])

    # each review's first review_len ids, gathered into corpus order
    lens = np.diff(ends, prepend=0)
    at = np.empty(len(records), dtype=np.intp)  # record -> position in the pass
    at[raw.train_idx + raw.val_idx + raw.test_idx] = np.arange(len(records))
    kept_lens = np.minimum(lens, review_len)[at]
    bounds = np.concatenate(([0], np.cumsum(kept_lens)))
    take = np.repeat((ends - lens)[at] - bounds[:-1], kept_lens) + np.arange(bounds[-1])
    interactions = _interactions(users, items, [r.rating for r in records],
                                 rank[ids[take]], bounds)
    split = DatasetSplit(interactions, seed, raw.train_idx, raw.val_idx, raw.test_idx)
    return PreparedDataset(vocab, interactions, split, [UNK_TOKEN, *user_number],
                           [UNK_TOKEN, *item_number], review_len)


# ---------------------------------------------------------------------------
# on-disk prepared-dataset directory
# ---------------------------------------------------------------------------

_HEADER_DTYPE = np.dtype("<u4")


def _record_dtype(review_len: int) -> np.dtype:
    return np.dtype([
        ("user", "<u4"), ("item", "<u4"), ("ntok", "<u4"),
        ("rating", "<f8"), ("tokens", "<u4", (review_len,)),
    ])


def _in_review(recs) -> np.ndarray:
    """(n, review_len) mask of each record's first ntok token cells, which
    hold its review; the cells after them hold PAD."""
    return np.arange(recs["tokens"].shape[1]) < recs["ntok"][:, None]


def save_prepared(ds: PreparedDataset, out_dir) -> None:
    """vocab.tsv, users.tsv, items.tsv, interactions.bin, split.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_index_file(out / "vocab.tsv", ds.vocab.id_to_token)
    _write_index_file(out / "users.tsv", ds.user_keys)
    _write_index_file(out / "items.tsv", ds.item_keys)

    inters = ds.interactions
    n = len(inters)
    recs = np.zeros(n, dtype=_record_dtype(ds.review_len))
    recs["user"], recs["item"], recs["rating"] = batch_arrays(inters)
    recs["ntok"] = [len(inter.tokens) for inter in inters]
    recs["tokens"][_in_review(recs)] = np.concatenate([inter.tokens for inter in inters])
    header = np.array([n, ds.n_users, ds.n_items, ds.review_len], dtype=_HEADER_DTYPE)
    with open(out / "interactions.bin", "wb") as fh:
        fh.write(header.tobytes())
        fh.write(recs.tobytes())

    manifest = {
        "seed": ds.split.seed,
        "train": ds.split.train_idx,
        "validation": ds.split.val_idx,
        "test": ds.split.test_idx,
    }
    with open(out / "split.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))


def _write_index_file(path, names) -> None:
    """One `name<TAB>index` line per name, indices 0..n-1 in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            fh.write(f"{name}\t{i}\n")


def _read_index_file(path) -> list:
    """Names of an index file (vocab.tsv, users.tsv, items.tsv), whose line k
    must read `name<TAB>k`, as _write_index_file writes it."""
    names = []
    try:
        with open(path, encoding="utf-8") as fh:
            for k, line in enumerate(fh):
                name, _, idx = line.rstrip("\n").partition("\t")
                if idx != str(k):
                    raise ValueError(f"{path}:{k + 1}: expected `name<TAB>{k}`, as "
                                     f"indices run 0..n-1 in line order, got {line!r}")
                names.append(name)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    return names


def _load_split(path, interactions: list) -> DatasetSplit:
    """split.json; its three index lists must partition the interactions."""
    n = len(interactions)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad bytes, bad or too deep JSON
        raise ValueError(f"{path}: unreadable: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a JSON object")
    if type(manifest.get("seed")) is not int:
        raise ValueError(f"{path}: seed is not an integer")
    parts = []
    for key in ("train", "validation", "test"):
        idx = manifest.get(key)
        try:
            arr = np.asarray(idx) if isinstance(idx, list) else None
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(f"{path}: {key!r} is not a list of integers")
        parts.append(arr.astype(np.int64))
    if not np.array_equal(np.sort(np.concatenate(parts)), np.arange(n)):
        raise ValueError(f"{path}: train, validation and test do not partition the "
                         f"{n} interactions (an index is out of 0..{n - 1}, repeated "
                         f"or missing)")
    for key, arr in zip(("train", "validation", "test"), parts):
        if (np.diff(arr) < 0).any():  # with the partition, no index repeats
            raise ValueError(f"{path}: {key!r} is not ascending")
    return DatasetSplit(interactions, manifest["seed"], manifest["train"],
                        manifest["validation"], manifest["test"])


def _check_records(path, recs, n_users: int, n_items: int, vocab_size: int,
                   review_len: int) -> None:
    """Raises ValueError naming path and the first record with a field out of
    range, or with PAD among its tokens, which the profile masks would read
    as padding."""
    rating = recs["rating"]
    tokens = recs["tokens"]
    checks = (
        ((recs["user"] < 1) | (recs["user"] >= n_users),
         f"a user id outside 1..{n_users - 1}"),
        ((recs["item"] < 1) | (recs["item"] >= n_items),
         f"an item id outside 1..{n_items - 1}"),
        (recs["ntok"] > review_len, f"ntok above review_len {review_len}"),
        (~((rating >= 1.0) & (rating <= 5.0)), "a rating that is not a number in [1, 5]"),
        ((tokens >= vocab_size).any(axis=1),
         f"a token id not below the vocabulary size {vocab_size}"),
        ((_in_review(recs) & (tokens == PAD_ID)).any(axis=1),
         f"the PAD id {PAD_ID} among its first ntok tokens"),
    )
    for bad, what in checks:
        if bad.any():
            raise ValueError(f"{path}: record {int(np.argmax(bad))} has {what}")


def load_prepared(in_dir) -> PreparedDataset:
    """Reads a save_prepared directory. Every index and id is checked against
    the sizes it refers to, so a corrupt or hand-edited file raises ValueError
    naming the file and the problem instead of failing later in training.

    Each interaction's tokens are a view of one read-only int32 buffer that
    holds every record's first ntok tokens in corpus order."""
    src = Path(in_dir)
    id_to_token = _read_index_file(src / "vocab.tsv")
    if id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise ValueError(f"{src / 'vocab.tsv'}: indices 0 and 1 must name {PAD_TOKEN} "
                         f"and {UNK_TOKEN}, got {id_to_token[:2]!r}")
    vocab = Vocabulary(id_to_token[2:])
    user_keys = _read_index_file(src / "users.tsv")
    item_keys = _read_index_file(src / "items.tsv")

    path = src / "interactions.bin"
    with open(path, "rb") as fh:
        head = fh.read(4 * _HEADER_DTYPE.itemsize)
        body = fh.read()
    if len(head) < 4 * _HEADER_DTYPE.itemsize:
        raise ValueError(f"{path}: truncated header")
    n, n_users, n_items, review_len = (int(x) for x in np.frombuffer(head, _HEADER_DTYPE))
    if review_len < 1:
        raise ValueError(f"{path}: review_len {review_len} in the header")
    try:
        recs = np.frombuffer(body, dtype=_record_dtype(review_len))
    except ValueError as exc:
        raise ValueError(f"{path}: {len(body)} record bytes do not hold records of "
                         f"review_len {review_len}: {exc}") from None
    if len(recs) != n:
        raise ValueError(f"{path}: header says {n} records, found {len(recs)}")
    if n_users != len(user_keys) or n_items != len(item_keys):
        raise ValueError(f"{path}: header says {n_users} users and {n_items} items, "
                         f"users.tsv/items.tsv hold {len(user_keys)} and {len(item_keys)}")
    _check_records(path, recs, n_users, n_items, len(vocab), review_len)

    interactions = _interactions(recs["user"].tolist(), recs["item"].tolist(),
                                 recs["rating"].tolist(),
                                 recs["tokens"][_in_review(recs)].astype(np.int32),
                                 np.concatenate(([0], np.cumsum(recs["ntok"], dtype=np.int64))))
    split = _load_split(src / "split.json", interactions)
    return PreparedDataset(vocab, interactions, split, user_keys, item_keys, review_len)
