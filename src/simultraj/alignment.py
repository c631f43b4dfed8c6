"""Sentence pairs, Pharaoh alignment parsing, and per-target sufficient source sets.

Positions are 1-based internally (matching the usual alignment-graph notation);
Pharaoh input is 0-based and converted on parse. All types are immutable and all
functions are pure, so sentence pairs can be processed in parallel freely.

`curate` plans each pair as `monotonic.plan_links(pair, parse_pharaoh(...))`,
one pass over the frozenset of links that `parse_pharaoh` returns.
`sufficient_sets` is the set-based reference: it inverts the links into one
source set per target, which `monotonic.monotonicize` turns into the same plan.
Both first hold the links to the pair's lengths with `check_links`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Collection


# typing.NamedTuple refuses __new__, so a record that validates subclasses a namedtuple.
class SentencePair(namedtuple("SentencePair", "source target id")):
    """One bitext record: whitespace-tokenized source and target words."""

    __slots__ = ()

    def __new__(cls, source: tuple[str, ...], target: tuple[str, ...], id: int = 0) -> SentencePair:
        for side, words in (("source", source), ("target", target)):
            if not words:
                raise ValueError(f"record {id}: empty {side} sentence")
            try:
                # Words that are non-empty and hold no whitespace come back
                # unchanged from a join and a split, in C.
                if " ".join(words).split() == [*words]:
                    continue
            except TypeError:  # a word that is not a string
                pass
            for w in words:  # name the first bad word
                if not isinstance(w, str) or not w or w.split() != [w]:
                    raise ValueError(
                        f"record {id}: bad {side} word {w!r} (empty or contains whitespace)"
                    )
        return tuple.__new__(cls, (source, target, id))

    @classmethod
    def from_text(cls, source: str, target: str, id: int = 0) -> "SentencePair":
        src, tgt = tuple(source.split()), tuple(target.split())
        if src and tgt:  # split() makes every word non-empty and whitespace-free
            return tuple.__new__(cls, (src, tgt, id))
        return cls(src, tgt, id)  # raises the empty-side error

    @property
    def source_len(self) -> int:
        return len(self.source)

    @property
    def target_len(self) -> int:
        return len(self.target)


def parse_pharaoh(
    line: str, source_len: int, target_len: int, record_id: int = 0
) -> frozenset[tuple[int, int]]:
    """Parse one Pharaoh line (`i-j` pairs, 0-based) into a frozenset of 1-based links.

    A blank line is a valid empty alignment. Raises ValueError on a token
    that is not ASCII digits, `-`, ASCII digits, or on an index outside the
    sentence lengths.
    """
    links: set[tuple[int, int]] = set()
    for token in line.split():
        left, _, right = token.partition("-")
        # isdigit alone also passes non-ASCII digits, which int() would read.
        if not (left.isdigit() and right.isdigit() and token.isascii()):
            raise ValueError(f"record {record_id}: malformed alignment token {token!r}")
        i0, j0 = int(left), int(right)
        if not (i0 < source_len and j0 < target_len):
            raise ValueError(
                f"record {record_id}: link ({i0},{j0}) out of range for "
                f"I={source_len}, J={target_len}"
            )
        links.add((i0 + 1, j0 + 1))
    return frozenset(links)


def check_links(pair: SentencePair, links: Collection[tuple[int, int]]) -> None:
    """Raise ValueError naming a 1-based link outside 1 <= i <= I, 1 <= j <= J."""
    source_len, target_len = len(pair.source), len(pair.target)
    for i, j in links:
        if not (0 < i <= source_len and 0 < j <= target_len):
            raise ValueError(
                f"record {pair.id}: link ({i},{j}) out of bounds for lengths I={source_len}, J={target_len}"
            )


def sufficient_sets(pair: SentencePair, links: Collection[tuple[int, int]]) -> tuple[frozenset[int], ...]:
    """Invert the 1-based links: for each target, 0-based, the 1-based source
    positions it links to. Empty sets are allowed; a link outside the pair
    raises ValueError."""
    check_links(pair, links)
    buckets: list[set[int]] = [set() for _ in range(pair.target_len)]
    for i, j in links:
        buckets[j - 1].add(i)
    return tuple(frozenset(b) for b in buckets)
