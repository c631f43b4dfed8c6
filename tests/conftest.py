import json
import os
import random
from collections import Counter
from typing import NamedTuple, Sequence

import pytest

from simultraj.alignment import SentencePair, sufficient_sets
from simultraj.augment import RHO_MAX, AugmentConfig
from simultraj.metrics import CostModel, average_lagging
from simultraj.monotonic import MonotonicPlan, monotonicize
from simultraj.sftformat import DEFAULT_TEMPLATE, dialogue_prompt, get_template, offline_prompt
from simultraj.simulator import CONVERSATIONAL, ScriptedModel, SelectStrategy, SimRun
from simultraj.trajectory import MERGED, MERGED_SHIFTED, META, PROVENANCES, Chunk, Trajectory, build_meta


@pytest.fixture
def no_leftover_children():
    """Fail a test that leaves an exited child process for nobody to wait for,
    such as a --workers process the pool did not reap."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    assert pid == 0, f"child {pid} exited with status {status} and was never waited for"


def make_pair(source_len: int, target_len: int, pair_id: int = 0) -> SentencePair:
    return SentencePair(
        tuple(f"s{i}" for i in range(1, source_len + 1)),
        tuple(f"t{j}" for j in range(1, target_len + 1)),
        pair_id,
    )


def random_links(rng: random.Random, source_len: int, target_len: int) -> frozenset:
    density = rng.uniform(0.0, 0.5)
    return frozenset(
        (i, j)
        for i in range(1, source_len + 1)
        for j in range(1, target_len + 1)
        if rng.random() < density
    )


def random_case(
    rng: random.Random, max_len: int = 12, pair_id: int = 0
) -> tuple[SentencePair, frozenset]:
    """A random pair and its 1-based links."""
    source_len = rng.randint(1, max_len)
    target_len = rng.randint(1, max_len)
    pair = make_pair(source_len, target_len, pair_id)
    return pair, random_links(rng, source_len, target_len)


def to_pharaoh(links: frozenset) -> str:
    """Render 1-based links back to 0-based `i-j` text, sorted for determinism."""
    return " ".join(f"{i - 1}-{j - 1}" for i, j in sorted(links))


# Graph references over sufficient sets (one frozenset of 1-based source
# positions per target): the library goes from the sets straight to the plan.


def is_monotonic(sets: Sequence[frozenset[int]]) -> bool:
    """True iff max(a_j) is nondecreasing over the non-empty sets.

    Empty sets impose no source demand of their own and are skipped.
    """
    prev = 0
    for a in sets:
        if not a:
            continue
        m = max(a)
        if m < prev:
            return False
        prev = m
    return True


def augmented_sets(sets: Sequence[frozenset[int]], plan: MonotonicPlan) -> tuple[frozenset[int], ...]:
    """Sufficient sets with the plan's added edges merged in."""
    merged = [set(a) for a in sets]
    for i, j in plan.added_edges:
        merged[j - 1].add(i)
    return tuple(frozenset(a) for a in merged)


def meta_of(pair: SentencePair, links: frozenset) -> tuple[MonotonicPlan, Trajectory]:
    plan = monotonicize(sufficient_sets(pair, links), pair.source_len)
    return plan, build_meta(plan, pair)


def write_toy_corpus(tmp_path, n_pairs: int = 2, seed: int = 0):
    """Write src/tgt/align files for n random pairs; returns the three paths."""
    rng = random.Random(seed)
    src_lines, tgt_lines, align_lines = [], [], []
    for idx in range(n_pairs):
        pair, links = random_case(rng, max_len=10, pair_id=idx)
        src_lines.append(" ".join(pair.source))
        tgt_lines.append(" ".join(pair.target))
        align_lines.append(to_pharaoh(links))
    (tmp_path / "src.txt").write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    (tmp_path / "align.txt").write_text("\n".join(align_lines) + "\n", encoding="utf-8")
    return tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "align.txt"


def write_sim_case(tmp_path, sessions: int, seed: int = 0):
    """Write sim_src.txt, one source of 3-14 words per line, and model.json, a
    compact JSON list of one script per line for chunk 3 and beam 5 whose
    candidates partly disagree. Returns the two paths and the scripts."""
    rng = random.Random(seed)
    sources = [[f"w{rng.randrange(40)}" for _ in range(rng.randint(3, 14))] for _ in range(sessions)]
    scripts = [
        {"rounds": [[[w.upper() if rng.random() > 0.25 else "X" for w in source[i : i + 3]] for _ in range(5)]
                    for i in range(0, len(source), 3)]}
        for source in sources
    ]
    src, model = tmp_path / "sim_src.txt", tmp_path / "model.json"
    src.write_text("".join(" ".join(s) + "\n" for s in sources), encoding="utf-8")
    model.write_text(json.dumps(scripts), encoding="utf-8")
    return src, model, scripts


def brute_min_read_counts(plan: MonotonicPlan) -> list[int]:
    """Per target position, the fewest source reads before that write over all
    schedules that keep source/target order and respect the plan's requirements.
    Pure enumeration; the oracle for the minimum-latency claim."""
    source_len, target_len = plan.source_len, plan.target_len
    best = [source_len] * target_len
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        reads, writes, g = stack.pop()
        if writes == target_len:
            for t, v in enumerate(g):
                if v < best[t]:
                    best[t] = v
            continue
        if reads < source_len:
            stack.append((reads + 1, writes, g))
        if plan.prefix_req[writes] <= reads:
            stack.append((reads, writes + 1, g + (reads,)))
    return best


# Read schedules of a trajectory: g[t] is the source words read when target t
# is written. The library reduces only simulated runs to AL (`metrics.run_latency`).


def write_read_counts(traj: Trajectory) -> list[int]:
    """The flush-inclusive schedule: every chunk's reads, the final chunk's
    trailing source included, come before its writes."""
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
    gate 3 compares it with `brute_min_read_counts`.
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


def trajectory_average_lagging(traj: Trajectory) -> float:
    """AL on the flush-inclusive schedule `write_read_counts`."""
    return average_lagging(write_read_counts(traj), traj.pair.source_len, traj.pair.target_len)


def ref_select_prefix(candidates: Sequence[Sequence[str]], strategy: SelectStrategy) -> list[str]:
    """Position-by-position reference for `simulator.select_prefix`: every
    position counts all votes. The library counts only when the first
    candidate's word has no strict majority; a Hypothesis test compares them."""
    if not candidates:
        raise ValueError("select_prefix needs at least one candidate")
    if strategy.kind == "greedy":
        return list(candidates[0])
    gamma = strategy.gamma
    total = len(candidates)
    prefix: list[str] = []
    pos = 0
    while all(len(c) > pos for c in candidates):
        votes = Counter(c[pos] for c in candidates)
        best = max(votes.values())
        leaders = [w for w, v in votes.items() if v == best]
        if len(leaders) > 1 or best < gamma * total:
            break
        prefix.append(leaders[0])
        pos += 1
    return prefix


class OracleRound(NamedTuple):
    committed_words: tuple[str, ...]
    recompute_tokens_conversational: int
    recompute_tokens_offline: int
    prompt_conversational: str
    prompt_offline: str
    prompt_plus_commit: str


def _recompute(cur: str, prev: str) -> int:
    cur_words, prev_words = cur.split(), prev.split()
    common = 0
    for x, y in zip(cur_words, prev_words):
        if x != y:
            break
        common += 1
    return len(cur_words) - common


def oracle_run(
    source: Sequence[str],
    model,
    chunk_size: int,
    strategy: SelectStrategy,
    prompt_mode: str = CONVERSATIONAL,
    beam: int = 5,
) -> list[OracleRound]:
    """Render-and-diff reference for simulator.run: every round renders both
    full prompts and counts recompute as prompt words minus the common word
    prefix with the previous round's prompt. Quadratic; small runs only."""
    tpl = get_template(DEFAULT_TEMPLATE)
    closed_turns: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    open_source: list[str] = []
    committed_all: list[str] = []
    rounds: list[OracleRound] = []
    prev_conv = prev_off = ""
    read = 0
    while read < len(source):
        chunk = source[read : read + chunk_size]
        read += len(chunk)
        open_source.extend(chunk)
        prompt_conv = dialogue_prompt(closed_turns, open_source, tpl)
        prompt_off = offline_prompt(source[:read], committed_all, tpl)
        context = prompt_conv if prompt_mode == CONVERSATIONAL else prompt_off
        beam_words = tuple(map(tuple, model.generate(context, beam)))
        if read < len(source):
            selected = tuple(ref_select_prefix(beam_words, strategy))
        else:
            selected = beam_words[0]
        plus_commit = prompt_conv + (tpl.turn_sep + " ".join(selected) if selected else "")
        rounds.append(
            OracleRound(
                selected,
                _recompute(prompt_conv, prev_conv),
                _recompute(prompt_off, prev_off),
                prompt_conv,
                prompt_off,
                plus_commit,
            )
        )
        if selected:
            closed_turns.append((tuple(open_source), selected))
            open_source = []
            committed_all.extend(selected)
        prev_conv, prev_off = prompt_conv, prompt_off
    return rounds


class ScriptRecorder:
    """A scripted model that also logs the contexts it saw."""

    def __init__(self, rounds) -> None:
        self.script = ScriptedModel(rounds)
        self.contexts: list[str] = []

    def generate(self, context: str, beam: int) -> list[tuple[str, ...]]:
        self.contexts.append(context)
        return self.script.generate(context, beam)


class _Replay:
    """Serves a finished run's beams back, one round per call."""

    def __init__(self, sim: SimRun) -> None:
        self.beams = iter(sim.events)

    def generate(self, context: str, beam: int) -> tuple[tuple[str, ...], ...]:
        return next(self.beams).candidates


def replay_prompts(sim: SimRun) -> list[OracleRound]:
    """Every round of a finished run re-rendered by `oracle_run` from the run's
    own beams."""
    rounds = oracle_run(sim.source, _Replay(sim), sim.chunk_size, sim.strategy, sim.prompt_mode, sim.beam)
    assert [r.committed_words for r in rounds] == [e.committed_words for e in sim.events]
    return rounds


def committed(sim: SimRun) -> tuple[str, ...]:
    """Every word a run committed, in order."""
    return tuple(w for e in sim.events for w in e.committed_words)


def realised_trajectory(sim: SimRun) -> Trajectory:
    """The trajectory a finished run realised: each round's reads and commits,
    with a round that commits nothing folded into the next one. A run whose
    flush commits nothing ends with a chunk that writes nothing."""
    chunks: list[Chunk] = []
    reads = 0
    for event in sim.events:
        reads += len(event.read_words)
        if event.committed_words or event is sim.events[-1]:
            chunks.append(Chunk(reads, len(event.committed_words)))
            reads = 0
    return Trajectory(tuple(chunks), SentencePair(sim.source, committed(sim), sim.pair_id), META)


# Per-run latency references over SimRun objects: the library reduces event
# records in `metrics.run_latency` instead; the differential test in
# test_metrics.py checks that `events_report` over a dumped log agrees exactly.


def ref_schedule_from_run(sim: SimRun) -> list[int]:
    """g for a simulated run: words committed in a round share that round's read count."""
    g: list[int] = []
    for event in sim.events:
        g.extend([event.cumulative_source_read] * len(event.committed_words))
    return g


def ref_simulated_wwt(sim: SimRun, cost: CostModel, prompt_mode: str | None = None) -> float:
    """Simulated cost per committed word: recompute at c1 plus generation at c2."""
    mode = prompt_mode or sim.prompt_mode
    total = 0.0
    generated = 0
    for event in sim.events:
        recompute = (
            event.recompute_tokens_conversational
            if mode == "conversational"
            else event.recompute_tokens_offline
        )
        total += recompute * cost.per_recomputed_token
        total += len(event.committed_words) * cost.per_generated_word
        generated += len(event.committed_words)
    if generated == 0:
        raise ValueError("run committed zero target words")
    return total / generated


def ref_cache_savings(sim: SimRun) -> dict[str, int]:
    """Total prompt words a cache-aware engine must recompute, per prompt mode."""
    return {
        "total_conversational": sum(e.recompute_tokens_conversational for e in sim.events),
        "total_offline": sum(e.recompute_tokens_offline for e in sim.events),
    }


# Position-tuple reference for trajectory construction, augmentation, records
# and verify: each chunk lists the 1-based source and target positions it reads
# and writes. The library stores counts instead; the differential test in
# test_augment.py checks that both give the same records and verdicts.


class RefChunk(NamedTuple):
    read: tuple[int, ...]
    write: tuple[int, ...]
    shifted_prefix_len: int = 0


class RefTrajectory(NamedTuple):
    chunks: tuple[RefChunk, ...]
    pair: SentencePair
    provenance: str


def ref_build_meta(plan: MonotonicPlan, pair: SentencePair) -> RefTrajectory:
    chunks: list[tuple[list[int], list[int]]] = []
    consumed = 0
    for j, m in enumerate(plan.prefix_req, start=1):
        if m > consumed:
            chunks.append((list(range(consumed + 1, m + 1)), [j]))
            consumed = m
        else:
            chunks[-1][1].append(j)
    if consumed < plan.source_len:
        chunks[-1][0].extend(range(consumed + 1, plan.source_len + 1))
    return RefTrajectory(tuple(RefChunk(tuple(r), tuple(w)) for r, w in chunks), pair, META)


def ref_merge(traj: RefTrajectory, cfg: AugmentConfig, rng: random.Random) -> RefTrajectory:
    merged: list[RefChunk] = []
    pos = 0
    while pos < len(traj.chunks):
        delta = rng.randint(cfg.delta_min, cfg.delta_max)
        group = traj.chunks[pos : pos + delta]
        merged.append(
            RefChunk(
                tuple(i for c in group for i in c.read),
                tuple(j for c in group for j in c.write),
            )
        )
        pos += len(group)
    return RefTrajectory(tuple(merged), traj.pair, MERGED)


def ref_shift(traj: RefTrajectory, cfg: AugmentConfig, rng: random.Random) -> RefTrajectory:
    chunks = list(traj.chunks)
    for c in range(len(chunks) - 1):
        cur = chunks[c]
        if len(cur.write) < 2:
            continue
        if rng.random() >= cfg.beta:
            continue
        rho = rng.uniform(cfg.rho_min, RHO_MAX)
        k = max(1, int(rho * len(cur.write)))
        moved = cur.write[k:]
        if not moved:
            continue
        nxt = chunks[c + 1]
        chunks[c] = RefChunk(cur.read, cur.write[:k], min(cur.shifted_prefix_len, k))
        chunks[c + 1] = RefChunk(nxt.read, moved + nxt.write, len(moved))
    return RefTrajectory(tuple(chunks), traj.pair, MERGED_SHIFTED)


def ref_verify(traj: RefTrajectory, plan: MonotonicPlan | None = None) -> list[str]:
    """Order and coverage are walked position by position."""
    violations: list[str] = []
    for side, length, positions in (
        ("source", traj.pair.source_len, [c.read for c in traj.chunks]),
        ("target", traj.pair.target_len, [c.write for c in traj.chunks]),
    ):
        expected = 1
        ordered = True
        for c, chunk_positions in enumerate(positions):
            for p in chunk_positions:
                if p != expected:
                    violations.append(f"{side} order violated @chunk {c}")
                    ordered = False
                    break
                expected += 1
            if not ordered:
                break
        if ordered and expected != length + 1:
            violations.append(f"{side} coverage violated")
    for c, chunk in enumerate(traj.chunks):
        if not chunk.read:
            violations.append(f"empty read @chunk {c}")
        if not chunk.write:
            violations.append(f"empty write @chunk {c}")
        if not 0 <= chunk.shifted_prefix_len <= len(chunk.write):
            violations.append(f"shifted prefix violated @chunk {c}")
    if plan is not None:
        cum = 0
        for c, chunk in enumerate(traj.chunks):
            cum += len(chunk.read)
            for j in chunk.write:
                if 1 <= j <= plan.target_len and plan.prefix_req[j - 1] > cum:
                    violations.append(f"write sufficiency violated @chunk {c}")
                    break
    return violations


# trajectory.verify as it was before its one pass: coverage from two sums over
# the chunks, a pass for each chunk's shape, then a pass for sufficiency.
# test_trajectory.py checks that both give the same messages in the same order,
# on unsound counts, lengths and plans too.
def count_verify(traj: Trajectory, plan: MonotonicPlan | None = None) -> list[str]:
    violations: list[str] = []
    if sum(c.n_read for c in traj.chunks) != traj.pair.source_len:
        violations.append("source coverage violated")
    if sum(c.n_write for c in traj.chunks) != traj.pair.target_len:
        violations.append("target coverage violated")
    for c, chunk in enumerate(traj.chunks):
        if chunk.n_read < 1:
            violations.append(f"empty read @chunk {c}")
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


def ref_to_record(traj: RefTrajectory, debug_indices: bool = False) -> dict:
    record: dict = {
        "id": traj.pair.id,
        "provenance": traj.provenance,
        "chunks": [
            {
                "read": [traj.pair.source[i - 1] for i in chunk.read],
                "write": [traj.pair.target[j - 1] for j in chunk.write],
                "shifted": chunk.shifted_prefix_len,
            }
            for chunk in traj.chunks
        ],
    }
    if debug_indices:
        record["indices"] = [
            {"read": list(chunk.read), "write": list(chunk.write)} for chunk in traj.chunks
        ]
    return record


# trajectory.from_record as it was before its C-checked path: one loop checks
# every chunk in order, then SentencePair checks the words. test_trajectory.py
# checks that both accept the same records and name the same first error.
def ref_from_record(record: object) -> Trajectory:
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
    counts: list[tuple[int, int, int]] = []
    for c, chunk in enumerate(chunks):
        if not isinstance(chunk, dict):
            raise ValueError(f"record {rid}: chunk {c} is not an object")
        read, write, shifted = chunk.get("read"), chunk.get("write"), chunk.get("shifted", 0)
        for side, words in (("read", read), ("write", write)):
            if not (isinstance(words, (list, tuple)) and all(type(w) is str for w in words)):
                raise ValueError(f"record {rid}: chunk {c} {side} is not a list of strings")
        if type(shifted) is not int:
            raise ValueError(f"record {rid}: chunk {c} shifted {shifted!r} is not an integer")
        src += read
        tgt += write
        counts.append((len(read), len(write), shifted))
    pair = SentencePair(tuple(src), tuple(tgt), rid)
    return Trajectory(tuple(Chunk(*n) for n in counts), pair, provenance)
