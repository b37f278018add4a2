"""Corpus ingestion: parsing, tokenization, vocabulary, splits and review profiles.

A prepared dataset is its interactions in corpus order, held as columns
(Interactions), each marked train, validation or test by a seeded 80/10/10
split, plus a train-only vocabulary; per-owner fixed-shape review profiles
(num_reviews x review_len token grids) for the user and item sides are
filled from its train part's columns. A token is a run of [a-z0-9] in the
lowercased review, found in its UTF-8 bytes by one byte translate and one
split. prepare_dataset tokenizes each review once: the vocabulary is
counted, ranked and looked up in numpy over one stream of token-type
numbers. No step from disk to batch makes an object per record.
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

# the closed range every rating lies in, as read, stored and clipped
RATING_RANGE = (1.0, 5.0)

# the fewest records the 80/10/10 split takes
MIN_RECORDS = 10

# tokenize's byte table: a-z and 0-9 map to themselves, every other byte to a space
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                     for b in range(256))

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


class Interactions:
    """Interactions as columns: users and items (int64), ratings (float64),
    and record k's tokens, the view tokens[starts[k]:ends[k]] of one int32
    buffer, made read-only. An int index gives an Interaction record, and
    iteration the records in order; a slice or an index array gives the
    Interactions of those records, over the same buffer."""

    def __init__(self, users, items, ratings, tokens: np.ndarray, starts, ends):
        tokens.flags.writeable = False
        self.users, self.items, self.ratings = users, items, ratings
        self.tokens, self.starts, self.ends = tokens, starts, ends

    def __len__(self):
        return len(self.users)

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            return Interaction(int(self.users[k]), int(self.items[k]), float(self.ratings[k]),
                               self.tokens[self.starts[k]:self.ends[k]])
        return Interactions(self.users[k], self.items[k], self.ratings[k], self.tokens,
                            self.starts[k], self.ends[k])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices starts[k] + j for 0 <= j < lens[k], run after run in k order."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if ends.size else 0)


def batch_arrays(interactions):
    """(users, items, ratings) of interactions as int64, int64 and float64
    arrays, in their order: an Interactions' own columns, or those of a
    sequence of records."""
    if len(interactions) == 0:
        raise ValueError("no interactions")
    if isinstance(interactions, Interactions):
        return interactions.users, interactions.items, interactions.ratings
    users = np.array([b.user for b in interactions], dtype=np.int64)
    items = np.array([b.item for b in interactions], dtype=np.int64)
    ratings = np.array([b.rating for b in interactions], dtype=np.float64)
    return users, items, ratings


class DatasetSplit:
    """Train/validation/test parts of `items`, an Interactions: part[k] is 0,
    1 or 2 as items[k] is in train, validation or test, and each part keeps
    index order."""

    def __init__(self, items: Interactions, part):
        self.part = np.asarray(part)
        self.train, self.validation, self.test = (
            items[np.flatnonzero(self.part == p)] for p in range(3))


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
        lo, hi = RATING_RANGE
        for fields in lines:
            try:  # the rule the docstring states, for either format
                user_key, item_key, rating, review = fields
                if isinstance(rating, bool) or not (isinstance(user_key, str)
                                                    and isinstance(item_key, str)
                                                    and isinstance(review, str)):
                    raise TypeError
                rating = float(rating)
                if not lo <= rating <= hi or _KEY_BREAKERS.search(user_key + item_key):
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
    """The [a-z0-9]+ runs of the lowercased text, in order, as ASCII bytes.

    The lowercased text is encoded as UTF-8 (a lone surrogate as its three
    bytes), every byte outside a-z and 0-9 becomes a space, and the bytes
    split on spaces. No other character's UTF-8 bytes fall in a-z or 0-9, so
    the runs are exactly those of the text.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


class Vocabulary:
    """Tokens by id, with PAD=0 and UNK=1 always present."""

    def __init__(self, tokens_by_rank=()):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens_by_rank)

    def __len__(self):
        return len(self.id_to_token)


def split_dataset(n: int, seed: int) -> np.ndarray:
    """Deterministic 80/10/10 split of n records: each record's part, 0
    train, 1 validation or 2 test, as a u32 array in record order."""
    if n < MIN_RECORDS:
        raise ValueError(f"need at least {MIN_RECORDS} interactions to split, got {n}")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    part = np.full(n, 2, dtype=np.uint32)
    part[order[:n_train]] = 0
    part[order[n_train:n_train + n_val]] = 1
    return part


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


def build_profiles(train: Interactions, review_len: int, num_reviews: int,
                   n_users: int, n_items: int):
    """(user_store, item_store) over the train split.

    Each owner keeps its first num_reviews reviews in index order, each cut
    to its first review_len tokens. Owners with no training review
    (including the reserved unknown owner 0) keep an all-PAD grid with an
    all-false review mask.
    """
    users = ProfileStore(n_users, num_reviews, review_len)
    items = ProfileStore(n_items, num_reviews, review_len)
    lens = np.minimum(train.ends - train.starts, review_len)
    for store, owners, partners in ((users, train.users, train.items),
                                    (items, train.items, train.users)):
        # a review's slot is its rank among its owner's reviews in index order
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        slots = np.arange(len(order)) - np.searchsorted(sorted_owners, sorted_owners)
        kept = slots < num_reviews
        order, owner, slot = order[kept], sorted_owners[kept], slots[kept]
        store.partner[owner, slot] = partners[order]
        cells, kept_lens = (owner * num_reviews + slot) * review_len, lens[order]
        store.tokens.reshape(-1)[_runs(cells, kept_lens)] = \
            train.tokens[_runs(train.starts[order], kept_lens)]
    return users, items


@dataclass
class PreparedDataset:
    vocab: Vocabulary
    interactions: Interactions  # corpus order
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

    The split is decided first, so no validation/test text can leak into
    the vocabulary. One pass tokenizes the records in corpus order and
    numbers each record's byte tokens into one stream of type numbers, and
    one bincount counts the train records' tokens. The types are decoded to
    str once. Types counted at least min_count times get ids from 2 by
    descending count, ties broken lexicographically; the rest map to UNK. Each interaction's tokens are its
    first review_len ids, a view of one read-only int32 buffer.
    """
    part = split_dataset(len(records), seed)

    # owners numbered in order of first appearance from 1; 0 is reserved
    user_number = defaultdict(count(1).__next__)
    item_number = defaultdict(count(1).__next__)
    users = [user_number[r.user_key] for r in records]
    items = [item_number[r.item_key] for r in records]

    number = defaultdict(count().__next__)  # token bytes -> type number
    stream, ends = array("i"), array("q")
    for r in records:
        stream.extend(map(number.__getitem__, tokenize(r.text)))
        ends.append(len(stream))
    ids, ends = np.frombuffer(stream, np.int32), np.frombuffer(ends, np.int64)
    lens = np.diff(ends, prepend=0)
    counts = np.bincount(ids[np.repeat(part == 0, lens)], minlength=len(number))

    types = [t.decode("ascii") for t in number]
    kept = np.flatnonzero(counts >= max(min_count, 1)).tolist()
    kept.sort(key=types.__getitem__)
    kept.sort(key=counts.tolist().__getitem__, reverse=True)
    rank = np.full(len(types), UNK_ID, dtype=np.int32)
    rank[kept] = np.arange(2, len(kept) + 2)
    vocab = Vocabulary([types[t] for t in kept])

    # each review's first review_len ids
    kept_lens = np.minimum(lens, review_len)
    kept_ends = np.cumsum(kept_lens)
    interactions = Interactions(np.array(users, np.int64), np.array(items, np.int64),
                                np.array([r.rating for r in records], np.float64),
                                rank[ids[_runs(ends - lens, kept_lens)]],
                                kept_ends - kept_lens, kept_ends)
    return PreparedDataset(vocab, interactions, DatasetSplit(interactions, part),
                           [UNK_TOKEN, *user_number], [UNK_TOKEN, *item_number], review_len)


# ---------------------------------------------------------------------------
# on-disk prepared-dataset directory
# ---------------------------------------------------------------------------

# the files save_prepared writes into a prepared directory and load_prepared reads
PREPARED_FILES = ("vocab.tsv", "users.tsv", "items.tsv", "interactions.bin")

_U32 = np.dtype("<u4")

# interactions.bin: a header of four u32s (records n, users, items,
# review_len), then these columns of n values each in corpus order, then
# every record's tokens back to back as u32s; split is the record's part,
# 0 train, 1 validation or 2 test
_COLUMNS = (("user", _U32), ("item", _U32), ("ntok", _U32), ("split", _U32),
            ("rating", np.dtype("<f8")))
_HEADER_BYTES = 4 * _U32.itemsize
_RECORD_BYTES = sum(dtype.itemsize for _, dtype in _COLUMNS)


def save_prepared(ds: PreparedDataset, out_dir) -> None:
    """vocab.tsv, users.tsv, items.tsv and interactions.bin.

    interactions.bin holds the header (n, users, items, review_len), the
    user, item, ntok and split u32 columns and the rating f64 column, then
    each record's ntok token ids back to back, so it is 16 + 24*n +
    4*sum(ntok) bytes long and holds no PAD cell. A record's split value is
    its part: 0 train, 1 validation, 2 test."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_index_file(out / "vocab.tsv", ds.vocab.id_to_token)
    _write_index_file(out / "users.tsv", ds.user_keys)
    _write_index_file(out / "items.tsv", ds.item_keys)

    inters = ds.interactions
    ntok = inters.ends - inters.starts
    cols = {"user": inters.users, "item": inters.items, "ntok": ntok,
            "split": ds.split.part, "rating": inters.ratings}
    header = np.array([len(inters), ds.n_users, ds.n_items, ds.review_len], dtype=_U32)
    with open(out / "interactions.bin", "wb") as fh:
        fh.writelines([header, *(np.asarray(cols[field], dtype) for field, dtype in _COLUMNS),
                       inters.tokens[_runs(inters.starts, ntok)].astype(_U32)])


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


def _check_records(path, cols: dict, tokens: np.ndarray, ends: np.ndarray, n_users: int,
                   n_items: int, vocab_size: int, review_len: int) -> None:
    """Raises ValueError naming path and the first record with a field out of
    range, or with PAD among its tokens, which the profile masks would read
    as padding. cols holds the user, item, ntok, split and rating columns;
    tokens holds every record's tokens back to back, record k's ending at
    ends[k]."""
    rating = cols["rating"]
    lo, hi = RATING_RANGE
    per_record = (
        ((cols["user"] < 1) | (cols["user"] >= n_users),
         f"a user id outside 1..{n_users - 1}"),
        ((cols["item"] < 1) | (cols["item"] >= n_items),
         f"an item id outside 1..{n_items - 1}"),
        (cols["ntok"] > review_len, f"ntok above review_len {review_len}"),
        (cols["split"] > 2, "a split value above 2 (0 train, 1 validation, 2 test)"),
        (~((rating >= lo) & (rating <= hi)),
         f"a rating that is not a number in [{lo:g}, {hi:g}]"),
    )
    for bad, what in per_record:
        if bad.any():
            raise ValueError(f"{path}: record {int(np.argmax(bad))} has {what}")
    per_token = (
        (tokens >= vocab_size, f"a token id not below the vocabulary size {vocab_size}"),
        (tokens == PAD_ID, f"the PAD id {PAD_ID} among its first ntok tokens"),
    )
    for bad, what in per_token:
        if bad.any():  # the record whose tokens hold the first bad one
            record = int(np.searchsorted(ends, np.argmax(bad), side="right"))
            raise ValueError(f"{path}: record {record} has {what}")


def load_prepared(in_dir) -> PreparedDataset:
    """Reads a save_prepared directory. Every index and id is checked against
    the sizes it refers to, so a corrupt or hand-edited file raises ValueError
    naming the file and the problem instead of failing later in training.

    interactions.bin must be exactly 16 + 24*n + 4*sum(ntok) bytes long, so a
    truncated file, a stray byte or one in another layout is rejected with a
    request to re-run `nrpa prepare`. The split is its split column. Each
    interaction's tokens are a view of one read-only int32 buffer, the file's
    token section."""
    src = Path(in_dir)
    id_to_token = _read_index_file(src / "vocab.tsv")
    if id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise ValueError(f"{src / 'vocab.tsv'}: indices 0 and 1 must name {PAD_TOKEN} "
                         f"and {UNK_TOKEN}, got {id_to_token[:2]!r}")
    vocab = Vocabulary(id_to_token[2:])
    user_keys = _read_index_file(src / "users.tsv")
    item_keys = _read_index_file(src / "items.tsv")

    path = src / "interactions.bin"
    blob = path.read_bytes()
    if len(blob) < _HEADER_BYTES:
        raise ValueError(f"{path}: truncated header")
    n, n_users, n_items, review_len = (int(x) for x in np.frombuffer(blob, _U32, 4))
    if review_len < 1:
        raise ValueError(f"{path}: review_len {review_len} in the header")
    rerun = "the file is truncated, extended or in another layout; re-run `nrpa prepare`"
    if len(blob) < _HEADER_BYTES + _RECORD_BYTES * n:
        raise ValueError(f"{path}: {len(blob)} bytes cannot hold the columns of the "
                         f"header's {n} records: {rerun}")
    cols, at = {}, _HEADER_BYTES
    for field, dtype in _COLUMNS:
        cols[field] = np.frombuffer(blob, dtype, n, at)
        at += dtype.itemsize * n
    bounds = np.concatenate(([0], np.cumsum(cols["ntok"], dtype=np.int64)))
    n_tokens = int(bounds[-1])
    if len(blob) != at + _U32.itemsize * n_tokens:
        raise ValueError(f"{path}: {len(blob)} bytes, but the header's {n} records and "
                         f"the {n_tokens} tokens their ntok column counts take "
                         f"{at + _U32.itemsize * n_tokens}: {rerun}")
    tokens = np.frombuffer(blob, _U32, n_tokens, at)
    if n_users != len(user_keys) or n_items != len(item_keys):
        raise ValueError(f"{path}: header says {n_users} users and {n_items} items, "
                         f"users.tsv/items.tsv hold {len(user_keys)} and {len(item_keys)}")
    _check_records(path, cols, tokens, bounds[1:], n_users, n_items, len(vocab), review_len)

    # every token is below the vocabulary size, so its u32 cell reads the same as int32
    interactions = Interactions(cols["user"].astype(np.int64), cols["item"].astype(np.int64),
                                cols["rating"].astype(np.float64, copy=False),
                                tokens.view("<i4").astype(np.int32, copy=False),
                                bounds[:-1], bounds[1:])
    return PreparedDataset(vocab, interactions, DatasetSplit(interactions, cols["split"]),
                           user_keys, item_keys, review_len)
