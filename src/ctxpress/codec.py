"""Deterministic whitespace/punctuation tokenizer over a hashed vocabulary.

Token ids are a pure function of the token string (FNV-1a 64 with the
standard offset basis, reduced modulo the non-reserved vocab range), so
golden files stay valid across runs and platforms.  Decoding goes through a
per-document memo recorded at encode time; it exists for test assertions,
not for fidelity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

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
    """Hashed vocabulary: ids 0..reserved-1 are fixed, the rest hash slots."""

    size: int = 32768
    reserved: int = 4

    def __post_init__(self) -> None:
        if self.size <= self.reserved:
            raise ValueError(f"vocab size {self.size} must exceed reserved {self.reserved}")

    def token_id(self, piece: str) -> int:
        return self.reserved + fnv1a64(piece.encode("utf-8")) % (self.size - self.reserved)


@dataclass
class Span:
    label: str
    start: int
    end: int  # exclusive


@dataclass
class TokenSeq:
    """Token ids plus optional labelled spans (token index ranges)."""

    ids: list[int]
    spans: list[Span] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def check(self) -> None:
        for s in self.spans:
            if not (0 <= s.start <= s.end <= len(self.ids)):
                raise ValueError(f"span {s} out of bounds for length {len(self.ids)}")


# [^\W_] matches exactly what str.isalnum accepts and \s what str.isspace
# accepts: a run of alphanumerics, or any other non-space character alone
_PIECE = re.compile(r"[^\W_]+|[^\w\s]|_")


def split_pieces(text: str) -> list[str]:
    """Split on whitespace runs; every non-alphanumeric char is its own piece."""
    return _PIECE.findall(text)


def encode(text: str, vocab: Vocab | None = None, memo: dict[int, str] | None = None) -> TokenSeq:
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
    return TokenSeq([piece_ids[piece] for piece in pieces])


def decode(seq: TokenSeq | Iterable[int], memo: dict[int, str]) -> str:
    """Rebuild the token strings of ``seq`` joined by single spaces."""
    ids = seq.ids if isinstance(seq, TokenSeq) else list(seq)
    out = []
    for tid in ids:
        if tid not in memo:
            raise UnknownId(tid)
        out.append(memo[tid])
    return " ".join(out)
