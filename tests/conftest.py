import random
from typing import NamedTuple, Sequence

from simultraj.alignment import AlignmentSet, SentencePair, sufficient_sets
from simultraj.monotonic import MonotonicPlan, monotonicize
from simultraj.sftformat import dialogue_prompt, get_template, offline_prompt
from simultraj.simulator import CONVERSATIONAL, SelectStrategy, select_prefix
from simultraj.trajectory import Trajectory, build_meta


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
) -> tuple[SentencePair, AlignmentSet]:
    source_len = rng.randint(1, max_len)
    target_len = rng.randint(1, max_len)
    pair = make_pair(source_len, target_len, pair_id)
    links = random_links(rng, source_len, target_len)
    return pair, AlignmentSet(links, source_len, target_len)


def meta_of(pair: SentencePair, alignment: AlignmentSet) -> tuple[MonotonicPlan, Trajectory]:
    plan = monotonicize(sufficient_sets(pair, alignment), pair.source_len)
    return plan, build_meta(plan, pair)


def write_toy_corpus(tmp_path, n_pairs: int = 2, seed: int = 0):
    """Write src/tgt/align files for n random pairs; returns the three paths."""
    rng = random.Random(seed)
    src_lines, tgt_lines, align_lines = [], [], []
    for idx in range(n_pairs):
        pair, alignment = random_case(rng, max_len=10, pair_id=idx)
        src_lines.append(" ".join(pair.source))
        tgt_lines.append(" ".join(pair.target))
        align_lines.append(alignment.to_pharaoh())
    (tmp_path / "src.txt").write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    (tmp_path / "tgt.txt").write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    (tmp_path / "align.txt").write_text("\n".join(align_lines) + "\n", encoding="utf-8")
    return tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "align.txt"


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
    template_id: str = "llama2",
    system_msg: str = "",
) -> list[OracleRound]:
    """Render-and-diff reference for simulator.run: every round renders both
    full prompts and counts recompute as prompt words minus the common word
    prefix with the previous round's prompt. Quadratic; small runs only."""
    tpl = get_template(template_id)
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
        prompt_conv = dialogue_prompt(closed_turns, open_source, tpl, system_msg)
        prompt_off = offline_prompt(source[:read], committed_all, tpl)
        context = prompt_conv if prompt_mode == CONVERSATIONAL else prompt_off
        beam_words = tuple(tuple(c.words) for c in model.generate(context, beam))
        if read < len(source):
            selected = tuple(select_prefix(beam_words, strategy))
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
