"""Deterministic whitespace/punctuation tokenizer over a hashed vocabulary.

Token ids are a pure function of the token string (FNV-1a 64 with the
standard offset basis, reduced modulo the vocab past ``RESERVED``), so
golden files stay valid across runs and platforms.  Token sequences are
plain lists of ids.  Decoding goes through a per-document memo recorded at
encode time; it exists for test assertions, not for fidelity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
#: ids below this are never hashed to
RESERVED = 4


class UnknownId(KeyError):
    """Decoding hit an id with no memo entry."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a with the published offset basis and prime."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Vocab:
    """Hashed vocabulary: ids 0..RESERVED-1 are fixed, the rest hash slots."""

    size: int = 32768

    def __post_init__(self) -> None:
        if self.size <= RESERVED:
            raise ValueError(f"vocab size {self.size} must exceed reserved {RESERVED}")

    def token_id(self, piece: str) -> int:
        return RESERVED + fnv1a64(piece.encode("utf-8")) % (self.size - RESERVED)


# [^\W_] matches exactly what str.isalnum accepts and \s what str.isspace
# accepts: a run of alphanumerics, or any other non-space character alone
_PIECE = re.compile(r"[^\W_]+|[^\w\s]|_")


def split_pieces(text: str) -> list[str]:
    """Split on whitespace runs; every non-alphanumeric char is its own piece."""
    return _PIECE.findall(text)


def encode(text: str, vocab: Vocab | None = None, memo: dict[int, str] | None = None) -> list[int]:
    """Tokenize ``text`` into hashed ids.

    If ``memo`` is given, records id -> piece with first-write-wins so a
    document's earliest claim on a hash slot survives later collisions.
    """
    vocab = vocab or Vocab()
    pieces = split_pieces(text)
    # each distinct piece is hashed once, in order of first occurrence
    piece_ids = {piece: vocab.token_id(piece) for piece in dict.fromkeys(pieces)}
    if memo is not None:
        for piece, tid in piece_ids.items():
            memo.setdefault(tid, piece)
    return [piece_ids[piece] for piece in pieces]


def decode(ids: list[int], memo: dict[int, str]) -> str:
    """Rebuild the token strings of ``ids`` joined by single spaces."""
    out = []
    for tid in ids:
        if tid not in memo:
            raise UnknownId(tid)
        out.append(memo[tid])
    return " ".join(out)
