"""Segmentation of monotonic plans into READ/WRITE chunk trajectories.

The meta trajectory is the minimum-latency schedule: a chunk opens whenever the
prefix requirement rises, reading exactly the newly required source span, and
consecutive targets with an unchanged requirement share one WRITE. Source tokens
left unread after the last write are flushed into the final chunk's READ; they
complete coverage but no write waits on them, so `read_counts_before_write`
accounts for them after the final writes when a plan is supplied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from simultraj.alignment import SentencePair
from simultraj.monotonic import MonotonicPlan

META = "meta"
MERGED = "merged"
MERGED_SHIFTED = "merged+shifted"
PROVENANCES = (META, MERGED, MERGED_SHIFTED)


@dataclass(frozen=True)
class Chunk:
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


@dataclass(frozen=True)
class Trajectory:
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


def build_meta(plan: MonotonicPlan, pair: SentencePair) -> Trajectory:
    """Minimum-latency trajectory for a plan: one chunk per requirement increase."""
    if plan.target_len != pair.target_len or plan.source_len != pair.source_len:
        raise ValueError(f"record {pair.id}: plan shape does not match sentence pair")
    counts: list[list[int]] = []  # [n_read, n_write] per chunk
    consumed = 0
    for m in plan.prefix_req:
        if m > consumed:
            counts.append([m - consumed, 1])
            consumed = m
        else:
            counts[-1][1] += 1
    # Trailing source the last write never waited on: flush into the final READ.
    if consumed < plan.source_len:
        counts[-1][0] += plan.source_len - consumed
    return Trajectory(tuple(Chunk(r, w) for r, w in counts), pair, META)


def verify(traj: Trajectory, plan: MonotonicPlan | None = None) -> list[str]:
    """Audit trajectory invariants; returns one message per violation (empty = sound).

    The sufficiency check needs the plan and is skipped when plan is None.
    """
    violations: list[str] = []
    if sum(c.n_read for c in traj.chunks) != traj.pair.source_len:
        violations.append("source coverage violated")
    if sum(c.n_write for c in traj.chunks) != traj.pair.target_len:
        violations.append("target coverage violated")
    if len(traj.chunks) > traj.pair.source_len:
        violations.append("chunk count violated")

    for c, chunk in enumerate(traj.chunks):
        if chunk.n_write < 1:
            violations.append(f"empty write @chunk {c}")
        if not 0 <= chunk.shifted_prefix_len <= chunk.n_write:
            violations.append(f"shifted prefix violated @chunk {c}")

    if plan is not None:
        read = written = 0
        for c, chunk in enumerate(traj.chunks):
            read += chunk.n_read
            if any(m > read for m in plan.prefix_req[written : written + chunk.n_write]):
                violations.append(f"write sufficiency violated @chunk {c}")
            written += chunk.n_write
    return violations


def write_read_counts(traj: Trajectory) -> list[int]:
    """g[t] = source tokens read when target t is written, chunk reads before writes.

    This is the flush-inclusive schedule: the final chunk's trailing source
    counts as read before its writes. `metrics.trajectory_average_lagging`
    uses it.
    """
    counts: list[int] = []
    read = 0
    for chunk in traj.chunks:
        read += chunk.n_read
        counts.extend([read] * chunk.n_write)
    return counts


def read_counts_before_write(traj: Trajectory, plan: MonotonicPlan) -> list[int]:
    """Like write_read_counts, but the final chunk's trailing flush (source past
    every write requirement) is read after the writes, not before.

    This is the schedule the minimum-latency claim is stated on: acceptance
    gate 3 compares it with a brute-force optimum.
    """
    counts = write_read_counts(traj)
    last = traj.chunks[-1]
    if last.n_write:
        first = len(counts) - last.n_write
        need = max(plan.prefix_req[first : len(counts)])
        drained = min(last.n_read, max(0, counts[-1] - need))
        for t in range(first, len(counts)):
            counts[t] -= drained
    return counts


def to_record(traj: Trajectory, debug_indices: bool = False) -> dict:
    """JSON-ready record with words materialized; 1-based positions only under debug."""
    record: dict = {
        "id": traj.pair_id,
        "provenance": traj.provenance,
        "chunks": [
            {"read": list(reads), "write": list(writes), "shifted": chunk.shifted_prefix_len}
            for chunk, reads, writes in traj.segments()
        ],
    }
    if debug_indices:
        indices = []
        i = j = 0
        for chunk in traj.chunks:
            indices.append(
                {
                    "read": list(range(i + 1, i + chunk.n_read + 1)),
                    "write": list(range(j + 1, j + chunk.n_write + 1)),
                }
            )
            i += chunk.n_read
            j += chunk.n_write
        record["indices"] = indices
    return record


def from_record(record: object) -> Trajectory:
    """Rebuild a trajectory from its JSONL record; chunk counts are list lengths.

    A record that breaks the format (an object with an integer id, a known
    provenance, and chunks holding lists of string words and an integer
    shifted count) raises ValueError naming what is wrong.
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
    if not isinstance(chunks, list):
        raise ValueError(f"record {rid}: chunks is not a list")
    src: list[str] = []
    tgt: list[str] = []
    counts: list[Chunk] = []
    for c, chunk in enumerate(chunks):
        if not isinstance(chunk, dict):
            raise ValueError(f"record {rid}: chunk {c} is not an object")
        read, write, shifted = chunk.get("read"), chunk.get("write"), chunk.get("shifted", 0)
        for key, words in (("read", read), ("write", write)):
            if not isinstance(words, list) or not all(type(w) is str for w in words):
                raise ValueError(f"record {rid}: chunk {c} {key} is not a list of strings")
        if type(shifted) is not int:
            raise ValueError(f"record {rid}: chunk {c} shifted {shifted!r} is not an integer")
        src.extend(read)
        tgt.extend(write)
        counts.append(Chunk(len(read), len(write), shifted))
    pair = SentencePair(tuple(src), tuple(tgt), rid)
    return Trajectory(tuple(counts), pair, provenance)


def dump_jsonl(trajs: Iterable[Trajectory], path: str, debug_indices: bool = False) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for traj in trajs:
            f.write(json.dumps(to_record(traj, debug_indices), ensure_ascii=False) + "\n")
            n += 1
    return n


def load_jsonl(path: str) -> Iterator[Trajectory]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield from_record(json.loads(line))
