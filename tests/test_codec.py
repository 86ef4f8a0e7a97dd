"""Tokenizer determinism, golden ids, and memo round trips."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ctxpress.codec import RESERVED, UnknownId, Vocab, decode, encode, split_pieces

GOLDEN = json.loads((Path(__file__).parent / "data" / "codec_golden.json").read_text())


def test_empty_text():
    assert encode("") == []
    assert decode([], {}) == ""


def test_repeated_token_same_id():
    ids = encode("a a")
    assert len(ids) == 2
    assert ids[0] == ids[1]


def test_golden_ids_frozen():
    for text, expected in GOLDEN.items():
        assert split_pieces(text) == expected["pieces"], text
        assert encode(text) == expected["ids"], text


def test_number_with_trailing_period_splits_into_three_pieces():
    # "198398" stays one contiguous token; the "." is its own piece
    assert split_pieces("The 198398.") == ["The", "198398", "."]


def test_hyphenated_key_id_pieces():
    pieces = split_pieces("blue-cup-red-33")
    assert pieces == ["blue", "-", "cup", "-", "red", "-", "33"]


@pytest.mark.parametrize("text, pieces", [
    ("snake_case_id", ["snake", "_", "case", "_", "id"]),
    ("a\u00a0b", ["a", "b"]),  # no-break space is whitespace
    ("caf\u00e9 na\u00efve", ["caf\u00e9", "na\u00efve"]),
    ("e\u0301t\u00e9", ["e", "\u0301", "t\u00e9"]),  # a combining mark is not alphanumeric
    ("x\u00b2+y\u00b2", ["x\u00b2", "+", "y\u00b2"]),
    ("\u0661\u0662\u0663-\u0664", ["\u0661\u0662\u0663", "-", "\u0664"]),
    ("\u4e2d\u6587\u3002\u5b57", ["\u4e2d\u6587", "\u3002", "\u5b57"]),
])
def test_non_ascii_pieces(text, pieces):
    assert split_pieces(text) == pieces


def test_ids_in_hash_range():
    vocab = Vocab()
    ids = encode("Some text, with 42 punctuation! marks?", vocab)
    assert all(RESERVED <= i < vocab.size for i in ids)


def test_round_trip_with_memo():
    memo = {}
    seq = encode("magic passkey", memo=memo)
    assert decode(seq, memo) == "magic passkey"


def test_unknown_id_raises():
    with pytest.raises(UnknownId):
        decode([3], {})


def test_memo_first_write_wins():
    memo = {4242: "claimed"}
    encode("later", memo=memo)
    assert memo[4242] == "claimed"


def test_vocab_must_exceed_reserved():
    with pytest.raises(ValueError):
        Vocab(size=4)


@given(st.text(max_size=200))
def test_encode_is_pure(text):
    assert encode(text) == encode(text)


@given(st.lists(st.sampled_from(["dog", "cat", "42", "mill", "(", "tree", "river"]),
                min_size=0, max_size=30))
def test_round_trip_reproduces_piece_sequence(words):
    # the sampled words hash to distinct slots, so the memo is exact; fully
    # arbitrary texts can collide two strings onto one id (pigeonhole) and
    # then only the first claimant survives
    text = " ".join(words)
    memo = {}
    seq = encode(text, memo=memo)
    assert decode(seq, memo) == " ".join(split_pieces(text))


@given(st.lists(st.sampled_from(["dog", "cat", "42", "mill", "(", "tree", "river", "?"]),
                min_size=0, max_size=60),
       st.dictionaries(st.integers(4, 7), st.sampled_from(["old", "dog"]), max_size=2))
def test_encode_hashes_repeats_like_a_per_piece_loop(words, claimed):
    # Vocab(size=8) leaves 4 hash slots for 8 pieces, so pieces collide and
    # first-write-wins decides which one the memo keeps
    vocab = Vocab(size=8)
    text = " ".join(words)
    want_memo = dict(claimed)
    for piece in split_pieces(text):
        want_memo.setdefault(vocab.token_id(piece), piece)
    memo = dict(claimed)
    assert encode(text, vocab, memo) == [vocab.token_id(p) for p in split_pieces(text)]
    assert memo == want_memo
