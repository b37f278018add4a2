import codecs
import csv
import dataclasses
import gc
import hashlib
import io
import json
import shutil
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrpa.data import (_COLUMNS, _HEADER_BYTES, PAD_ID, UNK_ID, UNK_TOKEN,
                       DatasetSplit, Interaction, Interactions, PreparedDataset, ProfileStore,
                       RawRecord, Vocabulary,
                       batch_arrays, build_profiles, load_prepared,
                       parse_reviews, prepare_dataset, save_prepared,
                       split_dataset, tokenize)
from nrpa.cli import load_config, main
from nrpa.evaluation import make_synthetic_corpus
from nrpa.model import init_params
from nrpa.rng import _UNIFORM_BLOCK

import prepare_oracle
from conftest import interactions_of

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def amazon_line(user="A1", item="B1", rating=5.0, text="great"):
    return json.dumps({"reviewerID": user, "asin": item, "overall": rating,
                       "reviewText": text})


def test_parse_amazon_json_field_mapping():
    records, skipped = parse_reviews(io.BytesIO(amazon_line().encode()), "amazon-json")
    assert skipped == 0
    assert records == [RawRecord("A1", "B1", 5.0, "great")]


def test_parse_empty_stream():
    records, skipped = parse_reviews(io.BytesIO(b""), "amazon-json")
    assert records == [] and skipped == 0


def test_parse_skips_bad_lines_and_counts():
    blob = "\n".join([
        amazon_line("A1", "B1", 4.0, "ok"),
        "{not json at all",
        amazon_line(rating=5.0).replace("5.0", "1" + "0" * 400),  # overflows a float
        "[" * 200_000 + "]" * 200_000,  # nested past the parser's recursion limit
        amazon_line("A2", "B2", 3.0, "fine"),
    ]).encode()
    records, skipped = parse_reviews(io.BytesIO(blob), "amazon-json")
    assert len(records) == 2 and skipped == 3
    # a leading byte-order mark is dropped, not read as the first line's text
    assert parse_reviews(io.BytesIO(codecs.BOM_UTF8 + blob), "amazon-json") == (records, 3)


def test_parse_skips_out_of_range_ratings():
    stream = io.BytesIO("\n".join([
        amazon_line(rating=0.0), amazon_line(rating=6.0), amazon_line(rating=1.0)]).encode())
    records, skipped = parse_reviews(stream, "amazon-json")
    assert len(records) == 1 and skipped == 2


def test_parse_skips_records_missing_fields():
    stream = io.BytesIO((json.dumps({"reviewerID": "A1", "overall": 4.0}) + "\n"
                          + amazon_line()).encode())
    records, skipped = parse_reviews(stream, "amazon-json")
    assert len(records) == 1 and skipped == 1


def test_parse_skips_non_string_review_text():
    stream = io.BytesIO("\n".join([
        amazon_line(text=None), amazon_line(text=17), amazon_line(text=["a"]),
        amazon_line(text="kept")]).encode())
    records, skipped = parse_reviews(stream, "amazon-json")
    assert skipped == 3
    assert records == [RawRecord("A1", "B1", 5.0, "kept")]


def test_parse_skips_keys_that_are_not_text_and_boolean_ratings():
    stream = io.BytesIO("\n".join([
        amazon_line(user=None), amazon_line(user=["x"]), amazon_line(item=7),
        amazon_line(item={"a": "b"}), amazon_line(user="a\ud800"),
        amazon_line(item="\udfff"), amazon_line(rating=True), amazon_line(rating=False),
        amazon_line(text="kept")]).encode())
    records, skipped = parse_reviews(stream, "amazon-json")
    assert skipped == 8
    assert records == [RawRecord("A1", "B1", 5.0, "kept")]


def test_parse_leaves_a_byte_stream_open_and_leaks_no_wrapper(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(amazon_line() + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with open(path, "rb") as fh:
            records, _ = parse_reviews(fh, "amazon-json")
            gc.collect()
            assert not fh.closed
    assert records == [RawRecord("A1", "B1", 5.0, "great")]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_parse_csv_with_quoted_commas():
    blob = b'u1,i1,4.0,"good, cheap"\nu2,i2,bad,text\nu3,i3,2.0,meh\n'
    records, skipped = parse_reviews(io.BytesIO(blob), "csv")
    assert skipped == 1
    assert records[0].text == "good, cheap"
    assert records[1] == RawRecord("u3", "i3", 2.0, "meh")
    # a leading byte-order mark is dropped, not read into the first user key
    assert parse_reviews(io.BytesIO(codecs.BOM_UTF8 + blob), "csv") == (records, 1)


def test_parse_skips_keys_with_tab_or_line_break():
    lines = [amazon_line(user="a\tb"), amazon_line(item="b\nc"),
             amazon_line(user="c\rd"), amazon_line(user="kept")]
    records, skipped = parse_reviews(io.BytesIO("\n".join(lines).encode()), "amazon-json")
    assert skipped == 3 and [r.user_key for r in records] == ["kept"]
    stream = io.BytesIO(b'"a\tb",i1,4.0,x\nu1,"i\n1",4.0,x\nu2,i2,4.0,x\n')
    records, skipped = parse_reviews(stream, "csv")
    assert skipped == 2 and records == [RawRecord("u2", "i2", 4.0, "x")]


# any text a UTF-8 CSV file carries unchanged: no lone surrogate, which UTF-8
# cannot hold, no carriage return, which text-mode reading turns into a line
# feed, and no byte-order mark, which is dropped from the front of a stream
_CSV_SAFE_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\ufeff"),
                         max_size=8)


@given(rows=st.lists(st.tuples(_CSV_SAFE_TEXT, _CSV_SAFE_TEXT,
                               st.one_of(st.floats(1.0, 5.0).map(repr),
                                         st.floats().map(repr), _CSV_SAFE_TEXT),
                               _CSV_SAFE_TEXT), max_size=6))
@settings(max_examples=300, deadline=None)
def test_csv_row_and_amazon_json_line_of_the_same_fields_parse_alike(rows):
    """One rule judges a line's four fields, whichever format split them; in
    the JSON line the rating is a JSON string holding the CSV field's text."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    as_csv = parse_reviews(io.BytesIO(buf.getvalue().encode("utf-8")), "csv")
    lines = "\n".join(json.dumps({"reviewerID": user, "asin": item, "overall": rating,
                                  "reviewText": text}) for user, item, rating, text in rows)
    assert parse_reviews(io.BytesIO(lines.encode("utf-8")), "amazon-json") == as_csv


def test_parse_reads_a_csv_field_of_any_length_and_restores_the_module_limit():
    before = csv.field_size_limit()
    row = "u1,i1,4.0," + "word " * 30000 + "\n"
    records, skipped = parse_reviews(io.BytesIO(row.encode()), "csv")
    assert skipped == 0 and records[0].text == "word " * 30000
    assert csv.field_size_limit() == before
    with pytest.raises(UnicodeDecodeError):
        parse_reviews(io.BytesIO(b"u1,i1,4.0,\xff\n"), "csv")
    assert csv.field_size_limit() == before


def _serialize(records, fmt) -> bytes:
    if fmt == "amazon-json":
        return "\n".join(amazon_line(r.user_key, r.item_key, r.rating, r.text)
                         for r in records).encode("utf-8")
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([r.user_key, r.item_key, repr(r.rating), r.text]
                              for r in records)
    return buf.getvalue().encode("utf-8")


@given(key=st.text(max_size=12), fmt=st.sampled_from(["amazon-json", "csv"]),
       side=st.sampled_from(["user", "item"]))
@settings(max_examples=200, deadline=None)
def test_any_key_survives_prepare_save_load_or_is_skipped(key, fmt, side):
    records = [RawRecord(f"u{i}", f"i{i % 4}", 3.0, "fine text") for i in range(12)]
    # not the first record: its key would open the stream, where a leading
    # byte-order mark is dropped as the encoding's
    if side == "user":
        records[1].user_key = key
    else:
        records[1].item_key = key
    parsed, skipped = parse_reviews(io.BytesIO(_serialize(records, fmt)), fmt)
    if any(c in key for c in "\t\n\r"):
        assert skipped == 1 and parsed == records[:1] + records[2:]
    else:
        assert skipped == 0 and parsed == records
    ds = prepare_dataset(parsed, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        save_prepared(ds, tmp)
        back = load_prepared(tmp)
    assert back.user_keys == ds.user_keys and back.item_keys == ds.item_keys
    if not skipped:
        keys = back.user_keys if side == "user" else back.item_keys
        assert key in keys[1:]


def test_parse_accepts_byte_streams():
    records, _ = parse_reviews(io.BytesIO(amazon_line().encode()), "amazon-json")
    assert records[0].user_key == "A1"


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_reviews(io.BytesIO(b""), "tsv")


def test_tokenize_rules():
    assert tokenize("Easy to USE!") == [b"easy", b"to", b"use"]
    assert tokenize("") == []
    assert tokenize("high-price camera") == [b"high", b"price", b"camera"]
    assert tokenize("  ***  ") == []
    assert tokenize("mp3 + player") == [b"mp3", b"player"]
    # the Kelvin sign lowers to k, and U+0130 to i and a combining dot
    assert tokenize("\u212aelvin \u0130stanbul") == [b"kelvin", b"i", b"stanbul"]
    assert tokenize("na\u00efve \u03a3\u039f\u03a3 \u6f22\u5b57\U0001f600x") == \
        [b"na", b"ve", b"x"]
    assert tokenize("a\x00b\r\nc\ud800d\udfffe") == [b"a", b"b", b"c", b"d", b"e"]


def test_tokenize_every_code_point_as_the_regex():
    """Each code point, lone surrogates included, between two a's."""
    text = "a".join(map(chr, range(0x110000)))
    assert tokenize(text) == [t.encode() for t in prepare_oracle.tokenize(text)]


@given(text=st.text(st.characters(exclude_categories=())))
@settings(max_examples=300, deadline=None)
def test_tokenize_is_the_regex_over_any_text(text):
    assert tokenize(text) == [t.encode() for t in prepare_oracle.tokenize(text)]


def token_id(vocab, token):
    return {t: i for i, t in enumerate(vocab.id_to_token)}.get(token, UNK_ID)


def vocab_of(text, min_count, n=10):
    """Vocabulary prepared from n records that all hold `text`, so the 8
    train records count each of its tokens 8 times its count in `text`."""
    records = [RawRecord(f"u{i}", f"i{i}", 3.0, text) for i in range(n)]
    return prepare_dataset(records, seed=0, min_count=min_count).vocab


def test_vocabulary_min_count_threshold():
    # a is counted 16 times in train, b 8 times
    vocab = vocab_of("a a b", min_count=9)
    assert token_id(vocab, "a") == 2
    assert token_id(vocab, "b") == UNK_ID


def test_vocabulary_min_count_one():
    vocab = vocab_of("x", min_count=1)
    assert token_id(vocab, "x") == 2


def test_vocabulary_frequency_then_lexicographic_order():
    # beta and alpha tie; gamma is counted twice as often
    vocab = vocab_of("gamma beta alpha gamma", 1)
    assert token_id(vocab, "gamma") == 2
    assert token_id(vocab, "alpha") == 3
    assert token_id(vocab, "beta") == 4


def test_vocabulary_empty_corpus_keeps_specials():
    vocab = vocab_of("", min_count=1)
    assert len(vocab) == 2
    assert vocab.id_to_token == ["<pad>", "<unk>"]


def _records(n):
    """n records told apart by their user and tokens, some with no tokens."""
    return [Interaction(i, i % 5, 1.0 + i % 5, np.full(i % 4, 2 + i % 7, dtype=np.int32))
            for i in range(n)]


def _same_records(got, want) -> bool:
    return [(g.user, g.item, g.rating, g.tokens.tolist()) for g in got] \
        == [(w.user, w.item, w.rating, w.tokens.tolist()) for w in want]


def test_split_sizes_small():
    assert np.bincount(split_dataset(10, seed=1)).tolist() == [8, 1, 1]


def test_split_sizes_at_published_scale():
    # 151,254 -> floor arithmetic gives 121,003 / 15,125 / 15,126
    assert np.bincount(split_dataset(151_254, seed=4)).tolist() == [121_003, 15_125, 15_126]


def test_split_determinism():
    assert split_dataset(37, seed=5).tolist() == split_dataset(37, seed=5).tolist()


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split_dataset(9, seed=0)


@given(st.integers(10, 400), st.integers(0, 2**63))
@settings(max_examples=60)
def test_split_partition_property(n, seed):
    """Part p of the column holds the oracle's sorted index list p, and
    DatasetSplit keeps those items, in that order, over the same token
    buffer."""
    part = split_dataset(n, seed)
    assert part.dtype == np.uint32 and part.shape == (n,)
    oracle = prepare_oracle.split_indices(n, seed)
    for p, idx in enumerate(oracle):
        assert np.flatnonzero(part == p).tolist() == idx
    records = _records(n)
    items = interactions_of(records)
    split = DatasetSplit(items, part)
    for members, idx in zip((split.train, split.validation, split.test), oracle, strict=True):
        assert _same_records(members, [records[i] for i in idx])
        assert members.tokens is items.tokens
    assert len(split.train) == int(0.8 * n)
    assert len(split.validation) == int(0.1 * n)


def test_ratings_in_range_in_every_split(tiny_dataset):
    for part in (tiny_dataset.split.train, tiny_dataset.split.validation,
                 tiny_dataset.split.test):
        assert all(1.0 <= i.rating <= 5.0 for i in part)


def test_vocabulary_is_train_only():
    # one record holds a unique token; force it out of train by trying seeds
    records = [RawRecord(f"u{i}", f"i{i}", 3.0, "common words here") for i in range(19)]
    records.append(RawRecord("u19", "i19", 3.0, "zzzunique common"))
    for seed in range(50):
        ds = prepare_dataset(records, seed=seed, min_count=1)
        held_out = (inter for part in (ds.split.validation, ds.split.test) for inter in part)
        if any(inter.user == ds.user_keys.index("u19") for inter in held_out):
            assert token_id(ds.vocab, "zzzunique") == UNK_ID
            return
    pytest.fail("no seed pushed the unique record out of train")


def test_profiles_fixed_shape_for_all_fill_levels():
    empty, under, over = 1, 2, 3
    inters = [Interaction(under, 1, 3.0, np.array([2, 3], dtype=np.int32))]
    inters += [Interaction(over, 1, 3.0, np.array([4] * 9, dtype=np.int32))
               for _ in range(5)]
    users, items = build_profiles(interactions_of(inters), review_len=6, num_reviews=3,
                                  n_users=4, n_items=2)
    assert users.tokens.shape == (4, 3, 6)
    _, _, rmask = users.gather([empty, under, over])
    assert not rmask[0].any()
    assert rmask[1].sum() == 1
    assert rmask[2].all()  # first 3 of 5 kept


def test_profile_truncation_and_padding():
    inters = [Interaction(1, 1, 3.0, np.arange(2, 12, dtype=np.int32))]
    users, _ = build_profiles(interactions_of(inters), review_len=4, num_reviews=3,
                              n_users=2, n_items=2)
    assert np.array_equal(users.tokens[1, 0], [2, 3, 4, 5])  # first 4 tokens kept
    assert users.tokens[1, 1:].sum() == 0                    # padding rows are PAD
    _, tmask, _ = users.gather([1])
    assert tmask[0, 0].all() and not tmask[0, 1:].any()


def test_profile_masked_cells_hold_pad():
    inters = [Interaction(1, 1, 3.0, np.array([5, 6], dtype=np.int32))]
    users, _ = build_profiles(interactions_of(inters), 5, 2, 2, 2)
    assert (users.tokens[1, 0, 2:] == PAD_ID).all()
    assert (users.tokens[1, 1] == PAD_ID).all() and (users.tokens[0] == PAD_ID).all()
    assert users.partner.tolist() == [[-1, -1], [1, -1]]


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 6)),
                max_size=25),
       st.integers(1, 4), st.integers(1, 3), st.lists(st.integers(0, 2), min_size=4,
                                                       max_size=4))
@settings(max_examples=150, deadline=None)
def test_gathered_masks_follow_fill_count_length_and_exclusion(reviews, review_len,
                                                               num_reviews, excluded):
    """review_mask[o, n] holds exactly when slot n is below owner o's kept
    count and its partner is not excluded; token_mask[o, n, t] exactly when
    the slot is below the kept count and t < min(len, review_len) for the
    review in it, whatever is excluded."""
    inters = [Interaction(u, i, 3.0, np.arange(2, 2 + length, dtype=np.int32))
              for u, i, length in reviews]
    users, _ = build_profiles(interactions_of(inters), review_len, num_reviews, n_users=4,
                              n_items=3)
    owners = np.arange(4)
    _, tmask, rmask = users.gather(owners, exclude_partner=np.array(excluded))
    for o in owners:
        kept = [(i, length) for u, i, length in reviews if u == o][:num_reviews]
        for n in range(num_reviews):
            assert rmask[o, n] == (n < len(kept) and kept[n][0] != excluded[o])
            k = min(kept[n][1], review_len) if n < len(kept) else 0
            assert tmask[o, n].tolist() == [t < k for t in range(review_len)]
    _, tmask_all, rmask_all = users.gather(owners)
    assert np.array_equal(tmask_all, tmask)
    assert (rmask_all.sum(axis=1) == [min(sum(u == o for u, _, _ in reviews), num_reviews)
                                      for o in owners]).all()


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 3, 6), (7, 15, 100)])
def test_profile_store_nbytes_counts_every_array(shape):
    store = ProfileStore(*shape)
    arrays = [v for v in vars(store).values() if isinstance(v, np.ndarray)]
    assert ProfileStore.nbytes(*shape) == sum(a.nbytes for a in arrays)


def test_exclude_target_removes_exactly_the_scored_pair():
    inters = [Interaction(1, i, 3.0, np.array([i + 2], dtype=np.int32))
              for i in (1, 2, 3)]
    users, _ = build_profiles(interactions_of(inters), 3, 3, 2, 4)
    toks, tmask, rmask = users.gather(np.array([1]), exclude_partner=np.array([2]))
    assert rmask[0].tolist() == [True, False, True]
    # the excluded review keeps its words: exclusion is a review-level choice
    assert tmask[0, 1].tolist() == [True, False, False]
    # without exclusion all three rows stay
    _, tmask_all, rmask_all = users.gather(np.array([1]))
    assert rmask_all[0].all() and np.array_equal(tmask_all, tmask)


@given(reviews=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, 9),
                                  st.integers(0, 2)), max_size=30),
       review_len=st.integers(1, 6), num_reviews=st.integers(1, 4))
# owner 1 has more reviews than num_reviews, owners 0 and 4 none; a review of
# no tokens, one longer than review_len and one outside train
@example(reviews=[(1, 1, 9, 0)] * 5 + [(2, 1, 0, 0), (3, 2, 2, 0), (3, 3, 7, 1)],
         review_len=4, num_reviews=3)
@example(reviews=[(1, 1, 3, 1), (2, 2, 2, 2)], review_len=2, num_reviews=1)  # empty train
@settings(max_examples=200, deadline=None)
def test_build_profiles_equals_the_per_record_loop(reviews, review_len, num_reviews):
    """The column fill gives the bytes of tests/prepare_oracle.py's loop over
    the train part's records, whose tokens differ from record to record."""
    records = [Interaction(u, i, 3.0, (np.arange(length, dtype=np.int32) + k) % 50 + 2)
               for k, (u, i, length, _) in enumerate(reviews)]
    train = DatasetSplit(interactions_of(records), [p for *_, p in reviews]).train
    got = build_profiles(train, review_len, num_reviews, n_users=5, n_items=4)
    want = prepare_oracle.build_profiles(list(train), review_len, num_reviews, 5, 4)
    for g, w in zip(got, want, strict=True):
        assert g.tokens.dtype == w.tokens.dtype and g.tokens.shape == w.tokens.shape
        assert g.tokens.tobytes() == w.tokens.tobytes()
        assert g.partner.tobytes() == w.partner.tobytes()


@given(n=st.integers(0, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_interactions_index_like_the_record_list(n, data):
    """An int index, a slice, an index array and iteration give the records
    of the list the columns were built from; the token buffer stays read-only."""
    records = _records(n)
    inters = interactions_of(records)
    assert len(inters) == n
    assert _same_records(inters, records)
    for k in range(-n, n):
        got = inters[k]
        assert (type(got.user), type(got.item), type(got.rating)) == (int, int, float)
        assert _same_records([got], [records[k]]) and got.tokens.dtype == np.int32
    with pytest.raises(IndexError):
        inters[n]
    lo, hi, step = (data.draw(st.integers(-n - 1, n + 1)) for _ in range(3))
    step = step or 1
    assert _same_records(inters[lo:hi:step], records[lo:hi:step])
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([]))
    picked = inters[np.array(idx, dtype=np.int64)]
    assert isinstance(picked, Interactions) and picked.tokens is inters.tokens
    assert _same_records(picked, [records[i] for i in idx])
    assert not inters.tokens.flags.writeable
    if n > 1:
        with pytest.raises(ValueError):
            inters[1].tokens[...] = 3


# sha256 of each file save_prepared writes for the tiny_dataset corpus
PREPARED_GOLDEN = {
    "interactions.bin": "0f7819d27c491ae7d919fa9829e26f55a6011b4b2b7e6b6442ffec40361bba3e",
    "items.tsv": "c04409622c72482762ea71d59563cc1a7c4ad0984cdbac18f3a0a7f44db038ef",
    "users.tsv": "b6562d279c6e7389c26611eecacb630e5fb8134f601c54af2c007a790045ff03",
    "vocab.tsv": "a2d347b01a27ef5bc69bfe833c02b7ae5dd5531b3cc9fce441a4057eae41d713",
}


def test_prepared_directory_bytes_are_golden(tmp_path, tiny_dataset):
    save_prepared(tiny_dataset, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == PREPARED_GOLDEN


# sha256 of each file save_prepared writes for the benchmark's wide-vocab smoke
# corpus at seed 11: a Zipf tail full of count ties, so it pins the
# lexicographic tie-break at scale
WIDE_VOCAB_SMOKE_GOLDEN = {
    "interactions.bin": "9ebbf444d0e206299cddf9f1a260c10b45df8e8f8343afb892632e32e577a259",
    "items.tsv": "2672c3049d131465581cb3199dbff75950db4bc4ec96f0484a98d1f899707d13",
    "users.tsv": "1cb882640b5eebc892c046b94bfbaa567afab7920b7ef3a6a1303fb6f1159687",
    "vocab.tsv": "ddb69c4c1768186d674b9af58f3c21b73850ae6176e9188863e96998ad1bc817",
}


def _wide_vocab_smoke(monkeypatch, out_dir):
    """The benchmark's wide-vocab smoke workload, its seed-11 corpus prepared
    into out_dir; perfbench/ is imported, not changed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    import workloads
    w = workloads.smoke(workloads.WORKLOADS["wide-vocab"])
    records, skipped = parse_reviews(io.BytesIO(corpus.generate_csv(w.corpus, 11)), "csv")
    assert skipped == 0
    save_prepared(prepare_dataset(records, seed=11), out_dir)
    return w


def test_wide_vocab_smoke_corpus_prepares_to_golden_bytes(monkeypatch, tmp_path):
    _wide_vocab_smoke(monkeypatch, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == WIDE_VOCAB_SMOKE_GOLDEN


# sha256 of set-up's outputs on that corpus loaded back from disk, at
# configs/full.cfg dims with the workload's overrides: the initial parameters
# (a word_emb of about five of the generator's blocks) and both profile stores
WIDE_VOCAB_SMOKE_SETUP_GOLDEN = {
    "params": "4a0e0e5f3a2f90419923c6978725e7a3e7c1f6e4a12a4de1b436fcea448c6491",
    "user.tokens": "a832908fe947f413e35da71b5d4112af875fce910ac99cc8408904922ce07f00",
    "user.partner": "d7f99d022f94487776786b31ab44cc0873933705751610325ae91793cc308356",
    "item.tokens": "3abef285addf1174719b71925fbed240e166d845b4afb73fb9ca085a2339c47c",
    "item.partner": "2bc7889e27cf8ce8d00628e8780d71de9ef9ffbfb251ac7f50658b512a4f4970",
}


def test_wide_vocab_smoke_setup_is_golden(monkeypatch, tmp_path):
    w = _wide_vocab_smoke(monkeypatch, tmp_path)
    ds = load_prepared(tmp_path)
    cfg = dataclasses.replace(load_config(PERFBENCH.parent / w.config), **dict(w.overrides))
    users, items = build_profiles(ds.split.train, cfg.review_len, cfg.num_reviews,
                                  ds.n_users, ds.n_items)
    dims = cfg.dims(len(ds.vocab), ds.n_users, ds.n_items)
    assert dims.vocab_size * dims.word_dim > 3 * _UNIFORM_BLOCK
    params = init_params(dims, cfg.seed, cfg.conv_activation)
    got = {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in (
        ("params", params.flat), ("user.tokens", users.tokens),
        ("user.partner", users.partner), ("item.tokens", items.tokens),
        ("item.partner", items.partner))}
    assert got == WIDE_VOCAB_SMOKE_SETUP_GOLDEN


_PIECES = ["alpha", "Alpha", "ALPHA", "beta", "Beta!", "gamma", "g4mma", "x", "X",
           "mp3", "...", "?!", "-", "", " ", "high-price", "zeta.eta",
           # Kelvin sign, dotted capital I, a word-final sigma, CJK, an emoji,
           # NUL, CRLF and lone surrogates, as a JSON line can deliver them
           "\u212a", "\u0130X", "\u03a3\u039f\u03a3", "\u6f22\u5b57", "\U0001f600",
           "\x00", "\r\n", "\ud800", "k\udc80z"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map(" ".join),
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.text(alphabet="abcABC019 .,!-", max_size=40),
    st.text(st.characters(exclude_categories=()), max_size=40),
)
_RECORDS = st.lists(
    st.builds(RawRecord, st.sampled_from(["u1", "u2", "u3", UNK_TOKEN]),
              st.sampled_from(["i1", "i2", "i3"]), st.sampled_from([1.0, 2.5, 5.0]),
              _TEXTS),
    min_size=10, max_size=40)


def _prepared_files(ds) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save_prepared(ds, tmp)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


@given(records=_RECORDS, seed=st.integers(0, 2**64 - 1), min_count=st.integers(-1, 3),
       review_len=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_prepare_equals_the_two_pass_oracle(records, seed, min_count, review_len):
    """Mixed case, punctuation-only, empty and non-ASCII texts (lone
    surrogates included), tokens seen only outside train, truncation and
    count ties, against tests/prepare_oracle.py and its regex tokenizer."""
    got = prepare_dataset(records, seed, min_count, review_len)
    want = prepare_oracle.prepare_dataset(records, seed, min_count, review_len)
    assert got.vocab.id_to_token == want.vocab.id_to_token
    assert (got.user_keys, got.item_keys) == (want.user_keys, want.item_keys)
    for g, w in zip(got.interactions, want.interactions, strict=True):
        assert (g.user, g.item, g.rating) == (w.user, w.item, w.rating)
        assert g.tokens.dtype == np.int32 and g.tokens.tolist() == w.tokens.tolist()
    assert got.split.part.tolist() == want.split.part.tolist()
    assert _prepared_files(got) == _prepared_files(want)


@given(records=_RECORDS, seed=st.integers(0, 2**64 - 1), review_len=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_prepare_save_load_gives_back_the_interactions(records, seed, review_len):
    """Empty and punctuation-only texts (ntok 0) and reviews longer than
    review_len: the loaded interactions are the prepared ones, their tokens
    views of one read-only int32 buffer, and give the same profiles."""
    ds = prepare_dataset(records, seed, 1, review_len)
    with tempfile.TemporaryDirectory() as tmp:
        save_prepared(ds, tmp)
        back = load_prepared(tmp)
    for g, w in zip(back.interactions, ds.interactions, strict=True):
        assert (type(g.user), type(g.item), type(g.rating)) == (int, int, float)
        assert (g.user, g.item, g.rating) == (w.user, w.item, w.rating)
        assert g.tokens.dtype == np.int32 and not g.tokens.flags.writeable
        assert g.tokens.tolist() == w.tokens.tolist()
    bases = {id(i.tokens.base) for i in back.interactions}
    assert len(bases) == 1 and back.interactions[0].tokens.base is not None
    for got, want in zip(build_profiles(back.split.train, review_len, 3, back.n_users,
                                        back.n_items),
                         build_profiles(ds.split.train, review_len, 3, ds.n_users,
                                        ds.n_items)):
        assert got.tokens.tobytes() == want.tokens.tobytes()
        assert got.partner.tobytes() == want.partner.tobytes()


# bytes the two-pass prepare (tests/prepare_oracle.py's pipeline) left
# allocated on the corpus below: per-review token arrays, interactions,
# vocabulary, owner keys and split lists
TWO_PASS_RETAINED = 753_722


def test_prepare_memory_retained_and_peak():
    """2000 records of 200 tokens over 500 types, review_len 20. Retained:
    no more than the two-pass prepare, give or take 1 KiB for the small
    blocks numpy keeps cached. Transient: under 16 bytes per corpus token,
    so no pass may hold a token string per token or an int64 array of the
    whole corpus beside the stream."""
    words = [f"w{k}" for k in range(500)]
    draws = np.random.default_rng(0).integers(0, 500, (2000, 200))
    records = [RawRecord(f"u{i % 300}", f"i{i % 120}", 1.0 + i % 5,
                         " ".join(words[t] for t in row)) for i, row in enumerate(draws)]
    prepare_dataset(records, 1, 1, 20)  # fills module and numpy caches untraced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = prepare_dataset(records, 1, 1, 20)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds.interactions) == 2000
    assert current - before <= TWO_PASS_RETAINED + 1024
    assert peak - current < 16 * draws.size


def test_literal_unk_key_keeps_its_own_index():
    records = [RawRecord(["a", UNK_TOKEN][i % 2], "x", 3.0, "w") for i in range(10)]
    ds = prepare_dataset(records, seed=1)
    assert ds.user_keys == [UNK_TOKEN, "a", UNK_TOKEN]
    assert [i.user for i in ds.interactions] == [1, 2] * 5


def test_prepared_roundtrip_bytes_and_content(tmp_path, tiny_dataset):
    out = tmp_path / "prep"
    save_prepared(tiny_dataset, out)
    back = load_prepared(out)
    assert back.user_keys == tiny_dataset.user_keys
    assert back.item_keys == tiny_dataset.item_keys
    assert back.vocab.id_to_token == tiny_dataset.vocab.id_to_token
    assert back.split.part.tolist() == tiny_dataset.split.part.tolist()
    assert len(back.interactions) == len(tiny_dataset.interactions)
    for a, b in zip(back.interactions, tiny_dataset.interactions):
        assert (a.user, a.item, a.rating) == (b.user, b.item, b.rating)
        assert np.array_equal(a.tokens, b.tokens)
    # saving the loaded copy reproduces identical bytes
    out2 = tmp_path / "prep2"
    save_prepared(back, out2)
    for name in ("vocab.tsv", "users.tsv", "items.tsv", "interactions.bin"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()
    # index files with CRLF line ends load the same, as text mode reads them
    for name in ("vocab.tsv", "users.tsv", "items.tsv"):
        (out2 / name).write_bytes((out / name).read_bytes().replace(b"\n", b"\r\n"))
    crlf = load_prepared(out2)
    assert crlf.vocab.id_to_token == back.vocab.id_to_token
    assert (crlf.user_keys, crlf.item_keys) == (back.user_keys, back.item_keys)


# ---------------------------------------------------------------------------
# load_prepared rejects what it cannot use
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, tiny_dataset):
    out = tmp_path_factory.mktemp("prepared") / "good"
    save_prepared(tiny_dataset, out)
    return out


def copy_prepared(src, dst):
    shutil.copytree(src, dst, dirs_exist_ok=True)
    return dst


def read_interactions(path):
    """(header, columns, each record's tokens) of an interactions.bin."""
    blob = path.read_bytes()
    header = np.frombuffer(blob, "<u4", 4)
    n, at, cols = int(header[0]), _HEADER_BYTES, {}
    for field, dtype in _COLUMNS:
        cols[field] = np.frombuffer(blob, dtype, n, at).copy()
        at += n * dtype.itemsize
    tokens = np.frombuffer(blob, "<u4", offset=at)
    return header, cols, np.split(tokens, np.cumsum(cols["ntok"])[:-1])


def edit_records(prep, field, row, value):
    """Overwrites one field of one record in interactions.bin, keeping the
    file's length rule: `tokens` takes a value as a scalar or review_len
    cells, of which the record's first ntok are written, and a new `ntok`
    cuts the record's tokens or pads them with UNK."""
    path = prep / "interactions.bin"
    header, cols, reviews = read_interactions(path)
    if field == "tokens":
        ntok = len(reviews[row])
        reviews[row] = np.broadcast_to(np.asarray(value, "<u4"), (int(header[3]),))[:ntok]
    else:
        cols[field][row] = value
        if field == "ntok":
            reviews[row] = np.concatenate([reviews[row], np.full(value, UNK_ID)])[:value]
    path.write_bytes(b"".join([header.tobytes(), *(cols[f].tobytes() for f, _ in _COLUMNS),
                               np.concatenate(reviews).astype("<u4").tobytes()]))


def load_rejects(prep, file, *words):
    with pytest.raises(ValueError) as info:
        load_prepared(prep)
    msg = str(info.value)
    assert file in msg, msg
    for word in words:
        assert word in msg, msg


@pytest.mark.parametrize("field,value,words", [
    ("user", 0, ["record 5", "user id"]),
    ("user", 13, ["record 5", "user id"]),
    ("item", 9, ["record 5", "item id"]),
])
def test_owner_id_out_of_range_rejected(prepared_dir, tmp_path, field, value, words):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, field, 5, value)
    load_rejects(prep, "interactions.bin", *words)


def test_token_id_past_vocabulary_rejected(prepared_dir, tmp_path, tiny_dataset):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, "tokens", 3, len(tiny_dataset.vocab))
    load_rejects(prep, "interactions.bin", "record 3", "token id")


def test_pad_id_inside_ntok_rejected(prepared_dir, tmp_path, tiny_dataset):
    """The profile masks read PAD as padding, so a stored review may not hold it."""
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    ntok = len(tiny_dataset.interactions[4].tokens)
    tokens = np.zeros(tiny_dataset.review_len, dtype=np.uint32)
    tokens[:ntok] = tiny_dataset.interactions[4].tokens
    tokens[ntok - 1] = PAD_ID
    edit_records(prep, "tokens", 4, tokens)
    load_rejects(prep, "interactions.bin", "record 4", "PAD")


def test_ntok_above_review_len_rejected(prepared_dir, tmp_path):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, "ntok", 2, 15)
    load_rejects(prep, "interactions.bin", "record 2", "ntok")


def test_split_value_above_2_rejected(prepared_dir, tmp_path):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, "split", 6, 3)
    load_rejects(prep, "interactions.bin", "record 6", "split value")


@pytest.mark.parametrize("rating", [np.nan, np.inf, 0.5, 5.5])
def test_rating_not_in_range_rejected(prepared_dir, tmp_path, rating):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, "rating", 7, rating)
    load_rejects(prep, "interactions.bin", "record 7", "rating")


@pytest.mark.parametrize("length", ["short", "long"])
def test_token_section_of_another_length_rejected(prepared_dir, tmp_path, length):
    """One u32 short of what the ntok column says, or one u32 past it."""
    path = copy_prepared(prepared_dir, tmp_path / "p") / "interactions.bin"
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] if length == "short" else blob + np.uint32(UNK_ID).tobytes())
    load_rejects(path.parent, "interactions.bin", "nrpa prepare")


def write_fixed_width(path, ds):
    """interactions.bin in the fixed-width layout that came before the column
    one: the same header, then n packed records of user, item and ntok u32,
    rating f64 and review_len u32 token cells, PAD after the first ntok."""
    recs = np.zeros(len(ds.interactions), [("user", "<u4"), ("item", "<u4"), ("ntok", "<u4"),
                                           ("rating", "<f8"), ("tokens", "<u4", (ds.review_len,))])
    for rec, inter in zip(recs, ds.interactions):
        rec["user"], rec["item"], rec["rating"] = inter.user, inter.item, inter.rating
        rec["ntok"] = len(inter.tokens)
        rec["tokens"][:len(inter.tokens)] = inter.tokens
    header = np.array([len(recs), ds.n_users, ds.n_items, ds.review_len], "<u4")
    path.write_bytes(header.tobytes() + recs.tobytes())


def test_fixed_width_directory_rejected(prepared_dir, tmp_path, tiny_dataset, capsys):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    write_fixed_width(prep / "interactions.bin", tiny_dataset)
    load_rejects(prep, "interactions.bin", "nrpa prepare")
    assert main(["train", "--data", str(prep), "--config",
                 str(PERFBENCH.parent / "configs" / "synthetic.cfg"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "interactions.bin" in err and "nrpa prepare" in err
    assert not (tmp_path / "run").exists()


def write_split_json_layout(prep, ds):
    """The layout that came before the split column: interactions.bin with
    the user, item and ntok u32 and rating f64 columns only, and the split
    in split.json as three sorted index lists."""
    users, items, ratings = batch_arrays(ds.interactions)
    ntok = [len(inter.tokens) for inter in ds.interactions]
    header = [len(ntok), ds.n_users, ds.n_items, ds.review_len]
    (prep / "interactions.bin").write_bytes(b"".join([
        *(np.asarray(col, "<u4").tobytes() for col in (header, users, items, ntok)),
        ratings.astype("<f8").tobytes(),
        np.concatenate([inter.tokens for inter in ds.interactions]).astype("<u4").tobytes()]))
    parts = [np.flatnonzero(ds.split.part == p).tolist() for p in range(3)]
    (prep / "split.json").write_text(json.dumps(
        {"seed": 11, **dict(zip(("train", "validation", "test"), parts))}))


def test_split_json_directory_rejected(prepared_dir, tmp_path, tiny_dataset, capsys):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    write_split_json_layout(prep, tiny_dataset)
    load_rejects(prep, "interactions.bin", "nrpa prepare")
    assert main(["train", "--data", str(prep), "--config",
                 str(PERFBENCH.parent / "configs" / "synthetic.cfg"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "interactions.bin" in err and "nrpa prepare" in err
    assert not (tmp_path / "run").exists()


@st.composite
def _stored_datasets(draw):
    """Datasets as save_prepared takes them, of 1 to 12 records whose reviews
    run from no tokens to review_len tokens, each split part possibly empty."""
    review_len = draw(st.integers(1, 6), label="review_len")
    vocab = Vocabulary([f"w{k}" for k in range(draw(st.integers(0, 4), label="words"))])
    n_users, n_items = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n = draw(st.integers(1, 12), label="records")
    inters = [Interaction(draw(st.integers(1, n_users - 1)), draw(st.integers(1, n_items - 1)),
                          draw(st.floats(1.0, 5.0)),
                          np.array(draw(st.lists(st.integers(1, len(vocab) - 1),
                                                 max_size=review_len)), dtype=np.int32))
              for _ in range(n)]
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="parts")
    inters = interactions_of(inters)
    return PreparedDataset(vocab, inters, DatasetSplit(inters, part),
                           [UNK_TOKEN, *(f"u{k}" for k in range(1, n_users))],
                           [UNK_TOKEN, *(f"i{k}" for k in range(1, n_items))], review_len)


def _dataset(review_len, reviews):
    """A dataset of one user, one item and one record per review."""
    inters = interactions_of(Interaction(1, 1, 3.0, np.array(r, dtype=np.int32))
                             for r in reviews)
    split = DatasetSplit(inters, [0] * len(inters))
    return PreparedDataset(Vocabulary(["a", "b"]), inters, split, [UNK_TOKEN, "u"],
                           [UNK_TOKEN, "i"], review_len)


@given(ds=_stored_datasets())
@example(ds=_dataset(3, [[], [2, 3, 1], [3]]))  # no tokens, then exactly review_len
@example(ds=_dataset(2, [[1]]))  # a single record
@settings(max_examples=150, deadline=None)
def test_save_load_round_trip(ds):
    """load_prepared gives back what save_prepared was given, from a file of
    16 + 24*n + 4*sum(ntok) bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        save_prepared(ds, tmp)
        size = (Path(tmp) / "interactions.bin").stat().st_size
        back = load_prepared(tmp)
    n, ntok = len(ds.interactions), sum(len(i.tokens) for i in ds.interactions)
    assert size == 16 + 24 * n + 4 * ntok
    assert back.vocab.id_to_token == ds.vocab.id_to_token
    assert (back.user_keys, back.item_keys, back.review_len) \
        == (ds.user_keys, ds.item_keys, ds.review_len)
    assert back.split.part.tolist() == ds.split.part.tolist()
    for g, w in zip(back.interactions, ds.interactions, strict=True):
        assert (g.user, g.item, g.rating) == (w.user, w.item, w.rating)
        assert g.tokens.dtype == np.int32 and g.tokens.tolist() == w.tokens.tolist()


@pytest.mark.parametrize("name", ["users.tsv", "items.tsv", "vocab.tsv"])
def test_key_file_indices_must_be_each_index_once(prepared_dir, tmp_path, name):
    """Line k must read `name<TAB>k`: a repeated index is rejected, and so is
    a swap of two lines, though its indices are still 0..n-1, each once."""
    lines = (prepared_dir / name).read_text().splitlines(keepends=True)
    key, _ = lines[2].split("\t")
    repeated = [*lines[:2], f"{key}\t1\n", *lines[3:]]  # index 1 twice, 2 missing
    swapped = [*lines[:2], lines[3], lines[2], *lines[4:]]
    for edited in (repeated, swapped):
        prep = copy_prepared(prepared_dir, tmp_path / "p")
        (prep / name).write_text("".join(edited))
        load_rejects(prep, f"{name}:3", "indices")


@pytest.mark.parametrize("line,name", [(0, "<unk>"), (1, "<pad>"), (1, "zebra")])
def test_vocab_must_start_with_pad_and_unk(prepared_dir, tmp_path, line, name):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    lines = (prep / "vocab.tsv").read_text().splitlines(keepends=True)
    lines[line] = f"{name}\t{line}\n"
    (prep / "vocab.tsv").write_text("".join(lines))
    load_rejects(prep, "vocab.tsv", "<pad>", "<unk>")


def loads_in_range_or_rejects(prep):
    """load_prepared either raises ValueError naming interactions.bin or
    returns a dataset whose every id is in range and whose three parts hold
    every interaction."""
    try:
        ds = load_prepared(prep)
    except ValueError as exc:
        assert "interactions.bin" in str(exc), str(exc)
        return
    n = len(ds.interactions)
    for inter in ds.interactions:
        assert 1 <= inter.user < ds.n_users and 1 <= inter.item < ds.n_items
        assert len(inter.tokens) <= ds.review_len
        assert (inter.tokens < len(ds.vocab)).all() and (inter.tokens > PAD_ID).all()
        assert 1.0 <= inter.rating <= 5.0
    assert len(ds.split.train) + len(ds.split.validation) + len(ds.split.test) == n


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_prepared_files_load_in_range_or_raise_value_error(prepared_dir, data):
    prep = copy_prepared(prepared_dir, prepared_dir.with_name("work"))
    path = prep / "interactions.bin"
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="kept bytes")]
    else:
        # bias half the flips into the sections a flip is likeliest to get past:
        # the header and the user column, the ntok and split columns and the
        # token buffer
        n = int(np.frombuffer(blob, "<u4", 1)[0])
        ends = np.cumsum([_HEADER_BYTES, *(n * dtype.itemsize for _, dtype in _COLUMNS)])
        regions = [(0, min(200, len(blob))), (ends[2], ends[3]), (ends[3], ends[4]),
                   (ends[5], len(blob))]
        lo, hi = (data.draw(st.sampled_from(regions), label="region")
                  if data.draw(st.booleans(), label="biased") else (0, len(blob)))
        pos = data.draw(st.integers(lo, hi - 1), label="position")
        blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(blob))
    loads_in_range_or_rejects(prep)


def test_stats_counts_real_owners(tiny_dataset):
    stats = tiny_dataset.stats()
    assert stats["users"] == 12 and stats["items"] == 8
    assert stats["ratings"] == 60
    assert stats["density"] == pytest.approx(100.0 * 60 / (12 * 8))


def test_synthetic_corpus_is_parseable_end_to_end():
    records = make_synthetic_corpus(seed=1, n_users=5, n_items=5, reviews_per_user=3)
    ds = prepare_dataset(records, seed=2, min_count=1)
    assert ds.n_users == 6 and ds.n_items == 6  # +1 reserved slot each
    assert all(t < len(ds.vocab) for i in ds.interactions for t in i.tokens)
