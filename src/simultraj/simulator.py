"""Discrete simulation of chunked incremental decoding with prefix selection.

Each round READs up to n source words, prompts a pluggable model for beam
candidates, prunes them to a stable prefix (LCP / RALCP voting / greedy), and
commits the prefix. Committed text is never modified. When the source is
exhausted the round flushes: the top candidate is accepted in full.

The simulation is word-level and model-agnostic. Every round records, for both
prompt modes, how many prompt words a cache-aware engine would have to ingest
anew: the word length of the round's prompt minus its longest common word
prefix with the previous round's prompt (words as ``str.split()`` cuts them).
Conversational prompts only ever grow at the end, so a round's recompute is the
word count of what it appends, and the total telescopes to the final prompt
length. Offline prompts insert source ahead of the translation history and
re-pay it each round. Both counts are kept from what each round adds, so a
round costs time in its chunk and commit, not in the prompt length; only the
active mode's prompt is rendered, for the model. ``replay_prompts`` re-renders
every round's prompts for audits.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import IO, Iterable, Iterator, Protocol, Sequence

from simultraj.alignment import SentencePair
from simultraj.sftformat import ChatTemplate, dialogue_prompt, get_template, offline_prompt

DEFAULT_BEAM = 5
DEFAULT_GAMMA = 0.6

CONVERSATIONAL = "conversational"
OFFLINE = "offline"
PROMPT_MODES = (CONVERSATIONAL, OFFLINE)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Candidate:
    words: tuple[str, ...]
    end: bool = False


class ModelPort(Protocol):
    def generate(self, context: str, beam: int) -> list[Candidate]:
        """Return up to `beam` candidate continuations for the rendered context."""


@dataclass
class ScriptedModel:
    """Deterministic test double: fixed beam candidates per round index.

    Holds a round cursor, so one instance serves exactly one run.
    """

    rounds: tuple[tuple[Candidate, ...], ...]
    _cursor: int = field(default=0, repr=False)

    @classmethod
    def from_obj(cls, obj: dict) -> "ScriptedModel":
        if not isinstance(obj, dict) or not isinstance(obj.get("rounds"), list):
            raise ValueError("scripted model needs a 'rounds' list of beam candidate lists")
        rounds = tuple(
            tuple(Candidate(tuple(words)) for words in beam) for beam in obj["rounds"]
        )
        return cls(rounds)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedModel":
        with open(path, encoding="utf-8") as f:
            return cls.from_obj(json.load(f))

    def generate(self, context: str, beam: int) -> list[Candidate]:
        if self._cursor >= len(self.rounds):
            raise SimulationError(f"script exhausted at round {self._cursor}")
        out = list(self.rounds[self._cursor][:beam])
        self._cursor += 1
        return out


def scripted_echo(
    source: Sequence[str], chunk_size: int, beam: int = 1, transform=str.upper
) -> ScriptedModel:
    """Script a model that 'translates' each newly read chunk via `transform`."""
    rounds = []
    for start in range(0, len(source), chunk_size):
        words = tuple(transform(w) for w in source[start : start + chunk_size])
        rounds.append(tuple(Candidate(words) for _ in range(beam)))
    return ScriptedModel(tuple(rounds))


@dataclass(frozen=True)
class SelectStrategy:
    kind: str
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("lcp", "ralcp", "greedy"):
            raise ValueError(f"unknown selection strategy {self.kind!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


LCP = SelectStrategy("lcp")
GREEDY = SelectStrategy("greedy")


def ralcp(gamma: float = DEFAULT_GAMMA) -> SelectStrategy:
    return SelectStrategy("ralcp", gamma)


def select_prefix(
    candidates: Sequence[Sequence[str]], strategy: SelectStrategy
) -> list[str]:
    """Stable prefix of the beam under the strategy; may be empty.

    RALCP walks positions while every candidate still has a word there, and
    accepts the plurality word when its vote share reaches gamma; a tie for the
    top vote stops acceptance. LCP is RALCP at gamma=1 (unanimity). GREEDY
    returns the first candidate whole.
    """
    if not candidates:
        raise ValueError("select_prefix needs at least one candidate")
    if strategy.kind == "greedy":
        return list(candidates[0])
    gamma = 1.0 if strategy.kind == "lcp" else strategy.gamma
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


@dataclass(frozen=True)
class SimEvent:
    round: int
    read_words: tuple[str, ...]
    candidates: tuple[tuple[str, ...], ...]
    committed_words: tuple[str, ...]
    recompute_tokens_conversational: int
    recompute_tokens_offline: int
    cumulative_source_read: int


@dataclass(frozen=True)
class SimRun:
    pair_id: int
    source: tuple[str, ...]
    events: tuple[SimEvent, ...]
    prompt_mode: str
    chunk_size: int
    beam: int
    strategy: SelectStrategy

    @property
    def committed(self) -> tuple[str, ...]:
        return tuple(w for e in self.events for w in e.committed_words)

    @property
    def rounds(self) -> int:
        return len(self.events)


def _words(texts: Iterable[str]) -> list[str]:
    """The words of ``" ".join(texts)``, without building the joined string."""
    return [w for t in texts for w in t.split()]


def _fuses(left: str, right: str) -> bool:
    """Whether left's last word and right's first word become one word in left + right."""
    return bool(left) and bool(right) and not left[-1].isspace() and not right[0].isspace()


class _OfflineCount:
    """Per-round offline recompute without rendering the offline prompt.

    The prompt is ``head + " ".join(source read) + tail``: head is the
    instruction up to its trailing space, and tail's words are the response
    trigger's words followed by the history's. Between rounds the prompt keeps
    head and the old source, so the common word prefix covers them, then runs
    on only while the new chunk's words (and, past them, the new tail's) equal
    the old tail's words. The last source word fuses with the tail's first word
    when neither side has whitespace at the seam (never with llama2, whose
    trigger starts with a space).
    """

    def __init__(self, tpl: ChatTemplate) -> None:
        self.head = len((tpl.turn_open + tpl.offline_instruction).split())
        self.trigger = tpl.turn_sep + tpl.offline_response_header
        self.tail = self.trigger.split()
        self.tail_before = 0  # len(self.tail) in the previous round's prompt
        self.source = 0  # words of the source read before this round
        self.fused = False  # the previous round's prompt fused source and tail
        self.started = False

    def round(self, chunk: Sequence[str]) -> int:
        new = _words(chunk)
        fused = _fuses(chunk[-1], self.trigger)
        words = self.head + self.source + len(new) + len(self.tail) - fused
        if not self.started:
            common = 0
        elif self.fused:
            common = self.head + self.source - 1
        else:
            common = self.head + self.source + self._tail_overlap(new, fused)
        self.source += len(new)
        self.fused = fused
        self.started = True
        self.tail_before = len(self.tail)
        return words - common

    def _tail_overlap(self, new: list[str], fused: bool) -> int:
        """Common word prefix of (new chunk words, then the tail) and the previous tail."""
        tail, skip = self.tail, 0
        if fused:
            new, skip = new[:-1] + [new[-1] + tail[0]], 1
        limit = min(self.tail_before, len(new) + len(tail) - skip)
        n = 0
        while n < limit:
            word = new[n] if n < len(new) else tail[n - len(new) + skip]
            if word != tail[n]:
                break
            n += 1
        return n

    def commit(self, words: Sequence[str]) -> None:
        self.tail.extend(_words(words))


def run(
    pair: SentencePair | Sequence[str],
    model: ModelPort,
    chunk_size: int,
    strategy: SelectStrategy,
    prompt_mode: str = CONVERSATIONAL,
    beam: int = DEFAULT_BEAM,
    template_id: str = "llama2",
    system_msg: str = "",
    pair_id: int | None = None,
) -> SimRun:
    """Simulate one decoding session over the pair's source words."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if prompt_mode not in PROMPT_MODES:
        raise ValueError(f"prompt_mode must be one of {PROMPT_MODES}")
    source = pair.source if isinstance(pair, SentencePair) else tuple(pair)
    if pair_id is None:
        pair_id = pair.id if isinstance(pair, SentencePair) else 0
    if not source:
        raise ValueError("empty source")
    tpl = get_template(template_id)
    conversational = prompt_mode == CONVERSATIONAL

    offline = _OfflineCount(tpl)
    # The offline prompt's source and history, each joined into one text that
    # grows at the end; the history is () until the first commit.
    source_text = ""
    history_text: tuple[str, ...] = ()
    prompt = ""  # the conversational prompt; it only ever grows at the end
    selected: tuple[str, ...] = ()
    events: list[SimEvent] = []
    read = 0
    rnd = 0
    while read < len(source):
        chunk = source[read : read + chunk_size]
        read += len(chunk)

        if rnd == 0:
            system = tpl.system_wrap.format(system_msg) if system_msg else ""
            appended = tpl.turn_open + system + " ".join(chunk)
        elif selected:
            # The previous round committed: close its turn, open a new one.
            appended = (
                tpl.turn_sep + " ".join(selected) + tpl.turn_close + tpl.turn_open + " ".join(chunk)
            )
        else:
            appended = " " + " ".join(chunk)
        rc_conv = len(appended.split())
        rc_off = offline.round(chunk)

        if conversational:
            # No other reference to prompt may outlive the round, so that
            # += extends the string in place instead of copying it.
            prompt += appended
            candidates = model.generate(prompt, beam)
        else:
            source_text += (" " if rnd else "") + " ".join(chunk)
            # offline_prompt joins each sequence with spaces, so one-element
            # sequences of pre-joined text render the same string.
            candidates = model.generate(offline_prompt((source_text,), history_text, tpl), beam)
        if not candidates:
            raise SimulationError(f"model returned no candidates at round {rnd}")
        beam_words = tuple(tuple(c.words) for c in candidates)

        if read < len(source):
            selected = tuple(select_prefix(beam_words, strategy))
        else:
            # Source exhausted: flush the best full hypothesis.
            selected = beam_words[0]

        events.append(
            SimEvent(
                round=rnd,
                read_words=tuple(chunk),
                candidates=beam_words,
                committed_words=selected,
                recompute_tokens_conversational=rc_conv,
                recompute_tokens_offline=rc_off,
                cumulative_source_read=read,
            )
        )
        if selected:
            offline.commit(selected)
            if not conversational:
                joined = " ".join(selected)
                history_text = (history_text[0] + " " + joined,) if history_text else (joined,)
        rnd += 1

    return SimRun(
        pair_id=pair_id,
        source=source,
        events=tuple(events),
        prompt_mode=prompt_mode,
        chunk_size=chunk_size,
        beam=beam,
        strategy=strategy,
    )


@dataclass(frozen=True)
class RoundPrompts:
    """One round's rendered prompts, re-rendered from a run for audits."""

    conversational: str
    offline: str
    # The conversational prompt followed by the round's committed continuation.
    conversational_plus_commit: str


def replay_prompts(
    sim: SimRun, template_id: str = "llama2", system_msg: str = ""
) -> list[RoundPrompts]:
    """Render every round's prompts of a run, as the model saw them in each mode.

    Pass the template and system message the run used. Each round is rendered
    in full, so time and memory grow with the square of the session length.
    """
    tpl = get_template(template_id)
    closed: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    open_source: list[str] = []
    history: list[str] = []
    out: list[RoundPrompts] = []
    for event in sim.events:
        open_source.extend(event.read_words)
        conv = dialogue_prompt(closed, open_source, tpl, system_msg)
        off = offline_prompt(sim.source[: event.cumulative_source_read], history, tpl)
        commit = event.committed_words
        plus = conv + (tpl.turn_sep + " ".join(commit) if commit else "")
        out.append(RoundPrompts(conv, off, plus))
        if commit:
            closed.append((tuple(open_source), commit))
            open_source = []
            history.extend(commit)
    return out


def cache_savings(sim: SimRun) -> dict[str, int]:
    """Total prompt words a cache-aware engine must recompute, per prompt mode."""
    return {
        "total_conversational": sum(e.recompute_tokens_conversational for e in sim.events),
        "total_offline": sum(e.recompute_tokens_offline for e in sim.events),
    }


def event_to_record(sim: SimRun, event: SimEvent) -> dict:
    return {
        "id": sim.pair_id,
        "round": event.round,
        "read_words": list(event.read_words),
        "candidates": [list(c) for c in event.candidates],
        "committed_words": list(event.committed_words),
        "recompute_tokens_conversational": event.recompute_tokens_conversational,
        "recompute_tokens_offline": event.recompute_tokens_offline,
        "cumulative_source_read": event.cumulative_source_read,
    }


def dump_events_jsonl(runs: Iterable[SimRun], out: str | IO[str]) -> int:
    own = isinstance(out, str)
    f = open(out, "w", encoding="utf-8") if own else out
    try:
        n = 0
        for sim in runs:
            for event in sim.events:
                f.write(json.dumps(event_to_record(sim, event), ensure_ascii=False) + "\n")
                n += 1
        return n
    finally:
        if own:
            f.close()


def load_events_jsonl(path: str) -> Iterator[list[dict]]:
    """Yield the event records of one run at a time, in file order.

    `dump_events_jsonl` writes each run as one block of consecutive records
    with the same id, so only one run is held at a time. An id that reappears
    after another run's records raises ValueError.
    """
    seen: set[int] = set()
    with open(path, encoding="utf-8") as f:
        records = (json.loads(line) for line in f if line.strip())
        for rid, events in groupby(records, key=lambda record: record.get("id", 0)):
            if rid in seen:
                raise ValueError(f"run id {rid} reappears after another run in {path}")
            seen.add(rid)
            yield list(events)
