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
from hypothesis import given, settings
from hypothesis import strategies as st

from nrpa.data import (PAD_ID, UNK_ID, UNK_TOKEN, Interaction, ProfileStore, RawRecord,
                       build_profiles, load_prepared,
                       parse_reviews, prepare_dataset, save_prepared,
                       split_dataset, tokenize, _record_dtype)
from nrpa.cli import load_config
from nrpa.evaluation import make_synthetic_corpus
from nrpa.model import init_params
from nrpa.rng import _UNIFORM_BLOCK

import prepare_oracle

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
    if side == "user":
        records[0].user_key = key
    else:
        records[0].item_key = key
    parsed, skipped = parse_reviews(io.BytesIO(_serialize(records, fmt)), fmt)
    if any(c in key for c in "\t\n\r"):
        assert skipped == 1 and parsed == records[1:]
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
    assert tokenize("Easy to USE!") == ["easy", "to", "use"]
    assert tokenize("") == []
    assert tokenize("high-price camera") == ["high", "price", "camera"]
    assert tokenize("  ***  ") == []
    assert tokenize("mp3 + player") == ["mp3", "player"]


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


def _interactions(n):
    return [Interaction(i % 3, i % 5, 1.0 + i % 5, np.array([2], dtype=np.int32))
            for i in range(n)]


def test_split_sizes_small():
    split = split_dataset(_interactions(10), seed=1)
    assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)


def test_split_sizes_at_published_scale():
    # 151,254 -> floor arithmetic gives 121,003 / 15,125 / 15,126
    split = split_dataset(_interactions(151_254), seed=4)
    sizes = (len(split.train), len(split.validation), len(split.test))
    assert sizes == (121_003, 15_125, 15_126)


def test_split_determinism():
    a = split_dataset(_interactions(37), seed=5)
    b = split_dataset(_interactions(37), seed=5)
    assert a.train_idx == b.train_idx
    assert a.val_idx == b.val_idx
    assert a.test_idx == b.test_idx


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split_dataset(_interactions(9), seed=0)


@given(st.integers(10, 400), st.integers(0, 2**63))
@settings(max_examples=60)
def test_split_partition_property(n, seed):
    split = split_dataset(_interactions(n), seed)
    all_idx = split.train_idx + split.val_idx + split.test_idx
    assert sorted(all_idx) == list(range(n))  # disjoint and covering
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
        held_out = ds.split.validation + ds.split.test
        if any(inter.user == ds.user_keys.index("u19") for inter in held_out):
            assert token_id(ds.vocab, "zzzunique") == UNK_ID
            return
    pytest.fail("no seed pushed the unique record out of train")


def test_profiles_fixed_shape_for_all_fill_levels():
    empty, under, over = 1, 2, 3
    inters = [Interaction(under, 1, 3.0, np.array([2, 3], dtype=np.int32))]
    inters += [Interaction(over, 1, 3.0, np.array([4] * 9, dtype=np.int32))
               for _ in range(5)]
    users, items = build_profiles(inters, review_len=6, num_reviews=3,
                                  n_users=4, n_items=2)
    assert users.tokens.shape == (4, 3, 6)
    _, _, rmask = users.gather([empty, under, over])
    assert not rmask[0].any()
    assert rmask[1].sum() == 1
    assert rmask[2].all()  # first 3 of 5 kept


def test_profile_truncation_and_padding():
    inters = [Interaction(1, 1, 3.0, np.arange(2, 12, dtype=np.int32))]
    users, _ = build_profiles(inters, review_len=4, num_reviews=3, n_users=2, n_items=2)
    assert np.array_equal(users.tokens[1, 0], [2, 3, 4, 5])  # first 4 tokens kept
    assert users.tokens[1, 1:].sum() == 0                    # padding rows are PAD
    _, tmask, _ = users.gather([1])
    assert tmask[0, 0].all() and not tmask[0, 1:].any()


def test_profile_masked_cells_hold_pad():
    inters = [Interaction(1, 1, 3.0, np.array([5, 6], dtype=np.int32))]
    users, _ = build_profiles(inters, 5, 2, 2, 2)
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
    users, _ = build_profiles(inters, review_len, num_reviews, n_users=4, n_items=3)
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


def test_build_profiles_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        build_profiles([], review_len=0, num_reviews=3, n_users=1, n_items=1)
    with pytest.raises(ValueError):
        build_profiles([], review_len=3, num_reviews=0, n_users=1, n_items=1)


def test_exclude_target_removes_exactly_the_scored_pair():
    inters = [Interaction(1, i, 3.0, np.array([i + 2], dtype=np.int32))
              for i in (1, 2, 3)]
    users, _ = build_profiles(inters, 3, 3, 2, 4)
    toks, tmask, rmask = users.gather(np.array([1]), exclude_partner=np.array([2]))
    assert rmask[0].tolist() == [True, False, True]
    # the excluded review keeps its words: exclusion is a review-level choice
    assert tmask[0, 1].tolist() == [True, False, False]
    # without exclusion all three rows stay
    _, tmask_all, rmask_all = users.gather(np.array([1]))
    assert rmask_all[0].all() and np.array_equal(tmask_all, tmask)


# sha256 of each file save_prepared writes for the tiny_dataset corpus
PREPARED_GOLDEN = {
    "interactions.bin": "8d01f68fcb9b58212c7fffab8d49a6f3405a58e1429bd2517bad6ef2c56f1fe0",
    "items.tsv": "c04409622c72482762ea71d59563cc1a7c4ad0984cdbac18f3a0a7f44db038ef",
    "split.json": "7330a32a343e8333a46d0fd00aebb0f08810d2d016c8d90ff5682cd1ef485e16",
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
    "interactions.bin": "b4d8cfc2b361860939d871acdc171f66fe88441fa5f4a811afbb3eaf54684481",
    "items.tsv": "2672c3049d131465581cb3199dbff75950db4bc4ec96f0484a98d1f899707d13",
    "split.json": "3fa75f5b2fb216401e8deba2596619478f6d22163c7000955edf542bdd2f65f3",
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
           "mp3", "...", "?!", "-", "", " ", "high-price", "zeta.eta"]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map(" ".join),
    st.text(alphabet="abcABC019 .,!-", max_size=40),
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
    """Mixed case, punctuation-only and empty texts, tokens seen only outside
    train, truncation and count ties, against tests/prepare_oracle.py."""
    got = prepare_dataset(records, seed, min_count, review_len)
    want = prepare_oracle.prepare_dataset(records, seed, min_count, review_len)
    assert got.vocab.id_to_token == want.vocab.id_to_token
    assert (got.user_keys, got.item_keys) == (want.user_keys, want.item_keys)
    for g, w in zip(got.interactions, want.interactions, strict=True):
        assert (g.user, g.item, g.rating) == (w.user, w.item, w.rating)
        assert g.tokens.dtype == np.int32 and g.tokens.tolist() == w.tokens.tolist()
    assert (got.split.seed, got.split.train_idx, got.split.val_idx, got.split.test_idx) \
        == (want.split.seed, want.split.train_idx, want.split.val_idx, want.split.test_idx)
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
    assert back.split.train_idx == tiny_dataset.split.train_idx
    assert len(back.interactions) == len(tiny_dataset.interactions)
    for a, b in zip(back.interactions, tiny_dataset.interactions):
        assert (a.user, a.item, a.rating) == (b.user, b.item, b.rating)
        assert np.array_equal(a.tokens, b.tokens)
    # saving the loaded copy reproduces identical bytes
    out2 = tmp_path / "prep2"
    save_prepared(back, out2)
    for name in ("vocab.tsv", "users.tsv", "items.tsv", "interactions.bin",
                 "split.json"):
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


def edit_records(prep, field, row, value):
    """Overwrites one field of one record in interactions.bin."""
    path = prep / "interactions.bin"
    blob = path.read_bytes()
    review_len = int(np.frombuffer(blob[:16], "<u4")[3])
    recs = np.frombuffer(blob, _record_dtype(review_len), offset=16).copy()
    recs[field][row] = value
    path.write_bytes(blob[:16] + recs.tobytes())


def edit_split(prep, **changes):
    path = prep / "split.json"
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))


def load_rejects(prep, file, *words):
    with pytest.raises(ValueError) as info:
        load_prepared(prep)
    msg = str(info.value)
    assert file in msg, msg
    for word in words:
        assert word in msg, msg


def test_split_index_past_the_end_rejected(prepared_dir, tmp_path, tiny_dataset):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    n = len(tiny_dataset.interactions)
    edit_split(prep, test=tiny_dataset.split.test_idx[:-1] + [n])
    load_rejects(prep, "split.json", "partition")


def test_split_negative_index_rejected(prepared_dir, tmp_path, tiny_dataset):
    """-1 in place of the last index would wrap onto the same interaction."""
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    last = len(tiny_dataset.interactions) - 1
    split = tiny_dataset.split
    for key, idx in (("train", split.train_idx), ("validation", split.val_idx),
                     ("test", split.test_idx)):
        if last in idx:
            edit_split(prep, **{key: [-1 if i == last else i for i in idx]})
    load_rejects(prep, "split.json", "partition")


def test_split_missing_key_or_not_an_object_rejected(prepared_dir, tmp_path):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    manifest = json.loads((prep / "split.json").read_text())
    # the writer sorts each list, and the epoch shuffle starts from that order
    (prep / "split.json").write_text(json.dumps({**manifest, "train": manifest["train"][::-1]}))
    load_rejects(prep, "split.json", "'train'", "not ascending")
    del manifest["test"]
    (prep / "split.json").write_text(json.dumps(manifest))
    load_rejects(prep, "split.json", "'test'")
    (prep / "split.json").write_text("[1, 2, 3]")
    load_rejects(prep, "split.json", "not a JSON object")
    (prep / "split.json").write_text("[" * 200_000 + "]" * 200_000)
    load_rejects(prep, "split.json", "unreadable")


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


@pytest.mark.parametrize("rating", [np.nan, np.inf, 0.5, 5.5])
def test_rating_not_in_range_rejected(prepared_dir, tmp_path, rating):
    prep = copy_prepared(prepared_dir, tmp_path / "p")
    edit_records(prep, "rating", 7, rating)
    load_rejects(prep, "interactions.bin", "record 7", "rating")


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


def loads_in_range_or_rejects(prep, file):
    """load_prepared either raises ValueError naming `file` or returns a
    dataset whose every id and index is in range."""
    try:
        ds = load_prepared(prep)
    except ValueError as exc:
        assert file in str(exc), str(exc)
        return
    n = len(ds.interactions)
    for inter in ds.interactions:
        assert 1 <= inter.user < ds.n_users and 1 <= inter.item < ds.n_items
        assert len(inter.tokens) <= ds.review_len
        assert (inter.tokens < len(ds.vocab)).all() and (inter.tokens > PAD_ID).all()
        assert 1.0 <= inter.rating <= 5.0
    split = ds.split
    assert sorted(split.train_idx + split.val_idx + split.test_idx) == list(range(n))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_corrupt_prepared_files_load_in_range_or_raise_value_error(prepared_dir, data):
    prep = copy_prepared(prepared_dir, prepared_dir.with_name("work"))
    file = data.draw(st.sampled_from(["interactions.bin", "split.json"]), label="file")
    path = prep / file
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="kept bytes")]
    else:
        # bias half the flips into the header and the first records
        limit = data.draw(st.sampled_from([200, len(blob)]), label="region")
        pos = data.draw(st.integers(0, min(limit, len(blob)) - 1), label="position")
        blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(blob))
    loads_in_range_or_rejects(prep, file)


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
