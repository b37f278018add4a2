import csv
import io

from corpus import CorpusSpec, generate_csv, word

SPEC = CorpusSpec(records=300, users=40, items=20, types=500, zipf_s=1.0,
                  min_len=5, max_len=15)


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = generate_csv(SPEC, 11)
    assert generate_csv(SPEC, 11) == first
    assert generate_csv(SPEC, 12) != first


def test_rows_parse_with_stated_lengths_and_ratings():
    rows = list(csv.reader(io.StringIO(generate_csv(SPEC, 5).decode())))
    assert len(rows) == SPEC.records
    for user, item, rating, text in rows:
        assert user.startswith("u") and item.startswith("i")
        assert 1 <= int(rating) <= 5
        assert SPEC.min_len <= len(text.split()) <= SPEC.max_len


def test_word_spelling_is_injective():
    spelled = [word(r) for r in range(26 * 27 + 5)]
    assert len(set(spelled)) == len(spelled)
    assert spelled[:3] == ["a", "b", "c"] and spelled[26] == "aa"
