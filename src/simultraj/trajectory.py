"""Segmentation of monotonic plans into READ/WRITE chunk trajectories.

The meta trajectory is the minimum-latency schedule: a chunk opens whenever the
prefix requirement rises, reading exactly the newly required source span, and
consecutive targets with an unchanged requirement share one WRITE. Source tokens
left unread after the last write are flushed into the final chunk's READ; they
complete coverage but no write waits on them.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple

from simultraj.alignment import SentencePair
from simultraj.jsonl import only_str
from simultraj.monotonic import MonotonicPlan

META = "meta"
MERGED = "merged"
MERGED_SHIFTED = "merged+shifted"
PROVENANCES = (META, MERGED, MERGED_SHIFTED)


class Chunk(NamedTuple):
    """One READ/WRITE pair: the next n_read source words, then the next n_write
    target words.

    Every trajectory reads and writes contiguous spans in order, so counts fix
    a chunk's words; `Trajectory.segments` cuts them from running offsets.
    shifted_prefix_len counts leading write tokens moved in from the previous
    chunk by the shift augmentation; it is 0 in meta and merged trajectories.
    """

    n_read: int
    n_write: int
    shifted_prefix_len: int = 0


class Trajectory(NamedTuple):
    chunks: tuple[Chunk, ...]
    pair: SentencePair
    provenance: str = META

    @property
    def pair_id(self) -> int:
        return self.pair.id

    def segments(self) -> Iterator[tuple[Chunk, tuple[str, ...], tuple[str, ...]]]:
        """Each chunk with the source words it reads and the target words it writes."""
        i = j = 0
        for chunk in self.chunks:
            yield chunk, self.pair.source[i : i + chunk.n_read], self.pair.target[j : j + chunk.n_write]
            i += chunk.n_read
            j += chunk.n_write


# A Chunk from an (n_read, n_write, shifted) sequence, without NamedTuple's __new__.
_chunk = partial(tuple.__new__, Chunk)


def build_meta(plan: MonotonicPlan, pair: SentencePair) -> Trajectory:
    """Minimum-latency trajectory for a plan: one chunk per requirement increase."""
    if plan.target_len != pair.target_len or plan.source_len != pair.source_len:
        raise ValueError(f"record {pair.id}: plan shape does not match sentence pair")
    counts: list[list[int]] = []  # [n_read, n_write, shifted] per chunk
    consumed = 0
    for m in plan.prefix_req:
        if m > consumed:
            counts.append([m - consumed, 1, 0])
            consumed = m
        else:
            counts[-1][1] += 1
    # Trailing source the last write never waited on: flush into the final READ.
    if consumed < plan.source_len:
        counts[-1][0] += plan.source_len - consumed
    return tuple.__new__(Trajectory, (tuple(map(_chunk, counts)), pair, META))


def verify(traj: Trajectory, plan: MonotonicPlan | None = None) -> list[str]:
    """Audit trajectory invariants; returns one message per violation (empty = sound).

    The messages come in this order: coverage, each chunk's shape, write
    sufficiency. The sufficiency check needs the plan and is skipped when plan
    is None. One pass over the chunks: coverage is read from the running totals.
    """
    shape: list[str] = []
    insufficient: list[str] = []
    req = None if plan is None else plan.prefix_req
    read = written = 0
    for c, (n_read, n_write, shifted) in enumerate(traj.chunks):
        if n_read < 1:
            shape.append(f"empty read @chunk {c}")
        if n_write < 1:
            shape.append(f"empty write @chunk {c}")
        if not 0 <= shifted <= n_write:
            shape.append(f"shifted prefix violated @chunk {c}")
        read += n_read
        # A write of this chunk needs more source than has been read.
        if req is not None and max(req[written : written + n_write], default=read) > read:
            insufficient.append(f"write sufficiency violated @chunk {c}")
        written += n_write
    violations: list[str] = []
    if read != traj.pair.source_len:
        violations.append("source coverage violated")
    if written != traj.pair.target_len:
        violations.append("target coverage violated")
    return violations + shape + insufficient


def to_record(traj: Trajectory, debug_indices: bool = False) -> dict:
    """JSON-ready record: each chunk's words are slices of the pair's word tuples
    (arrays in JSON); 1-based positions only under debug."""
    source, target = traj.pair.source, traj.pair.target
    chunks = []
    indices = []
    i = j = 0
    for chunk in traj.chunks:
        ni, nj = i + chunk.n_read, j + chunk.n_write
        chunks.append({"read": source[i:ni], "write": target[j:nj], "shifted": chunk.shifted_prefix_len})
        if debug_indices:
            indices.append({"read": list(range(i + 1, ni + 1)), "write": list(range(j + 1, nj + 1))})
        i, j = ni, nj
    record = {"id": traj.pair_id, "provenance": traj.provenance, "chunks": chunks}
    if debug_indices:
        record["indices"] = indices
    return record


def from_record(record: object) -> Trajectory:
    """Rebuild a trajectory from its JSONL record; chunk counts are word counts.

    Word sequences may be lists (as JSON gives them) or tuples (as `to_record`
    builds them). A record that breaks the format (an object with an integer
    id, a known provenance, and chunks holding lists of string words and an
    integer shifted count) raises ValueError naming what is wrong.

    JSON's own dicts and lists, with every key present, are checked in C:
    types in one loop, then each side's words at once. Anything else (a missing
    key, another type, a bad word) goes to the checking loop, which names the
    first error. A str subclass word (never from JSON) passes only the C check.
    """
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    rid = record.get("id")
    if type(rid) is not int:
        raise ValueError(f"record id {rid!r} is not an integer")
    provenance = record.get("provenance")
    if provenance not in PROVENANCES:
        raise ValueError(f"record {rid}: unknown provenance {provenance!r}")
    chunks = record.get("chunks")
    src: list[str] = []
    tgt: list[str] = []
    counts: list[tuple[int, int, int]] = []  # (n_read, n_write, shifted) per chunk
    if type(chunks) is list:
        try:
            for chunk in chunks:
                if type(chunk) is not dict:
                    break
                read, write, shifted = chunk["read"], chunk["write"], chunk["shifted"]
                if type(read) is not list or type(write) is not list or type(shifted) is not int:
                    break
                src += read
                tgt += write
                counts.append((len(read), len(write), shifted))
            else:
                # SentencePair's word check: words come back from a join and a split.
                if src and tgt and " ".join(src).split() == src and " ".join(tgt).split() == tgt:
                    pair = tuple.__new__(SentencePair, (tuple(src), tuple(tgt), rid))
                    return tuple.__new__(Trajectory, (tuple(map(_chunk, counts)), pair, provenance))
        except (KeyError, TypeError):  # a missing key; a word that is not a string
            pass
        src, tgt, counts = [], [], []
    if not isinstance(chunks, list):
        raise ValueError(f"record {rid}: chunks is not a list")
    for c, chunk in enumerate(chunks):
        if not isinstance(chunk, dict):
            raise ValueError(f"record {rid}: chunk {c} is not an object")
        read, write, shifted = chunk.get("read"), chunk.get("write"), chunk.get("shifted", 0)
        if not (isinstance(read, (list, tuple)) and only_str(map(type, read))):
            raise ValueError(f"record {rid}: chunk {c} read is not a list of strings")
        if not (isinstance(write, (list, tuple)) and only_str(map(type, write))):
            raise ValueError(f"record {rid}: chunk {c} write is not a list of strings")
        if type(shifted) is not int:
            raise ValueError(f"record {rid}: chunk {c} shifted {shifted!r} is not an integer")
        src += read
        tgt += write
        counts.append((len(read), len(write), shifted))
    pair = SentencePair(tuple(src), tuple(tgt), rid)  # checks each word's text
    return Trajectory(tuple(map(_chunk, counts)), pair, provenance)
