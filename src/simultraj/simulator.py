"""Discrete simulation of chunked incremental decoding with prefix selection.

Each round READs up to n source words, prompts a pluggable model for beam
candidates, prunes them to a stable prefix (LCP / RALCP voting / greedy), and
commits the prefix. Committed text is never modified. When the source is
exhausted the round flushes: the top candidate is accepted in full.

The simulation is word-level and model-agnostic. Prompts use the ``llama2``
template with no system message (``format --system-msg`` affects only SFT
data). Every round records, for both prompt modes, how many prompt words a
cache-aware engine would have to ingest anew: the word length of the round's
prompt minus its longest common word prefix with the previous round's prompt
(words as ``str.split()`` cuts them). A conversational prompt only grows at the
end, by the turns that ``sftformat.open_turn`` and ``close_turn`` lay out for
SFT data too. A round hands the model only the text it appends, and counts that
text's words; the total telescopes to the final prompt length. An offline
prompt inserts source ahead of the translation history, so a round hands over
the whole prompt and re-pays that history. Both counts come from what each
round adds, so a round costs time in its chunk and commit, not in the prompt
length. The tests re-render every round's prompts in full
(``tests/conftest.py::oracle_run``) and check these counts and texts against them.

A ``SimEvent`` is the event record: each line of the event log is one event's
``_asdict()``, written by ``dump_events_jsonl``. ``load_events_jsonl`` reads the
log back as dicts, one run at a time and with the fields `eval` reads checked.
Both go through the codec of ``simultraj.jsonl``, which also reads the model file.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple, Protocol, Sequence

# dialogue_prompt is not called here; bench/tracer.py wraps it under this module.
from simultraj.jsonl import decode_line, encode_json, only_str, read_records
from simultraj.sftformat import LLAMA2, close_turn, dialogue_prompt, offline_frame, offline_prompt, open_turn

DEFAULT_BEAM = 5
DEFAULT_GAMMA = 0.6

CONVERSATIONAL = "conversational"
OFFLINE = "offline"
PROMPT_MODES = (CONVERSATIONAL, OFFLINE)
SELECT_KINDS = ("lcp", "ralcp", "greedy")


class SimulationError(RuntimeError):
    pass


class ModelPort(Protocol):
    def generate(self, context: str, beam: int) -> Sequence[Sequence[str]]:
        """Return up to `beam` candidate continuations (word sequences). A
        conversational `context` is only the text the round appends to the prompt,
        which a cache-aware engine feeds alone; an offline one is the whole prompt.
        A model may keep what it is handed."""


class ScriptedModel:
    """Deterministic test double: fixed beam candidates per round index.

    Holds a round cursor, so one instance serves exactly one run.
    """

    def __init__(self, rounds: tuple[tuple[tuple[str, ...], ...], ...]) -> None:
        self.rounds = rounds
        self._cursor = 0

    @classmethod
    def from_obj(cls, obj: dict) -> ScriptedModel:
        if not isinstance(obj, dict) or not isinstance(obj.get("rounds"), list):
            raise ValueError("scripted model needs a 'rounds' list of beam candidate lists")
        # Each candidate must be a list of strings that the UTF-8 event log can
        # hold; the first one that is not raises TypeError or UnicodeEncodeError.
        rounds = []
        for beam in obj["rounds"]:
            candidates = []
            for words in beam:
                if type(words) is not list:
                    raise TypeError(f"a candidate is a {type(words).__name__}, not a list of words")
                " ".join(words).encode()
                candidates.append(tuple(words))
            rounds.append(tuple(candidates))
        return cls(tuple(rounds))

    def generate(self, context: str, beam: int) -> list[tuple[str, ...]]:
        if self._cursor >= len(self.rounds):
            raise SimulationError(f"script exhausted at round {self._cursor}")
        out = list(self.rounds[self._cursor][:beam])
        self._cursor += 1
        return out


def scripted_echo(source: Sequence[str], chunk_size: int, beam: int = 1) -> ScriptedModel:
    """Script a model that 'translates' each newly read chunk to its upper-cased self."""
    rounds = []
    for start in range(0, len(source), chunk_size):
        words = tuple(w.upper() for w in source[start : start + chunk_size])
        rounds.append((words,) * beam)
    return ScriptedModel(tuple(rounds))


class SelectStrategy(namedtuple("SelectStrategy", "kind gamma")):
    __slots__ = ()

    def __new__(cls, kind: str, gamma: float = 1.0) -> SelectStrategy:
        if kind not in SELECT_KINDS:
            raise ValueError(f"unknown selection strategy {kind!r}")
        if kind != "ralcp":
            gamma = 1.0  # LCP is RALCP at unanimity; greedy takes no vote
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        return tuple.__new__(cls, (kind, gamma))


GREEDY = SelectStrategy("greedy")


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
    total = len(candidates)
    need = strategy.gamma * total
    prefix: list[str] = []
    for column in zip(*candidates):  # stops at the shortest candidate
        word = column[0]
        best = column.count(word)
        if 2 * best <= total:
            # The first candidate's word has no strict majority: count them all.
            votes = Counter(column)
            best = max(votes.values())
            leaders = [w for w, v in votes.items() if v == best]
            if len(leaders) > 1:
                break
            word = leaders[0]
        if best < need:
            break
        prefix.append(word)
    return prefix


class SimEvent(NamedTuple):
    """One round of run `id`, and one line of the event log as its ``_asdict()``;
    JSON writes the tuples as arrays."""

    id: int
    round: int
    read_words: tuple[str, ...]
    candidates: tuple[tuple[str, ...], ...]
    committed_words: tuple[str, ...]
    recompute_tokens_conversational: int
    recompute_tokens_offline: int
    cumulative_source_read: int


class SimRun(NamedTuple):
    pair_id: int
    source: tuple[str, ...]
    events: tuple[SimEvent, ...]
    prompt_mode: str
    chunk_size: int
    beam: int
    strategy: SelectStrategy

    @property
    def rounds(self) -> int:
        return len(self.events)


# SimEvent(*fields) without the keyword handling of its generated __new__.
_event = partial(tuple.__new__, SimEvent)
_OFFLINE_HEAD, _OFFLINE_TAIL = map(str.split, offline_frame(LLAMA2))


def _words(texts: Iterable[str]) -> list[str]:
    """The words of ``" ".join(texts)``, without building the joined string."""
    return [w for t in texts for w in t.split()]


def run(
    source: Sequence[str],
    model: ModelPort,
    chunk_size: int,
    strategy: SelectStrategy,
    prompt_mode: str = CONVERSATIONAL,
    beam: int = DEFAULT_BEAM,
    pair_id: int = 0,
) -> SimRun:
    """Simulate one decoding session over the source words."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if prompt_mode not in PROMPT_MODES:
        raise ValueError(f"prompt_mode must be one of {PROMPT_MODES}")
    source = tuple(source)
    if not source:
        raise ValueError("empty source")
    conversational = prompt_mode == CONVERSATIONAL
    # A chunk's words are its prompt words when no source word is empty or
    # holds whitespace, as with every source that str.split() cut.
    split = tuple(" ".join(source).split()) != source

    # The offline prompt is _OFFLINE_HEAD (the instruction's words), the source
    # read so far, then tail: the trigger's words and the history's. The
    # trigger starts with a space, so the last source word never fuses with it.
    # Round 0 pays for every word. Later, the prompt keeps the head and the old
    # source, so the common word prefix covers them, then runs on only while
    # the new chunk's words (and, past them, the tail's) equal the previous
    # round's tail words; the tail only grows, so those are tail[:before].
    tail = list(_OFFLINE_TAIL)
    before = 0  # len(tail) in the previous round's prompt
    committed: list[str] = []  # the offline prompt's history
    selected: tuple[str, ...] = ()
    events: list[SimEvent] = []
    read = 0
    rnd = 0
    while read < len(source):
        chunk = source[read : read + chunk_size]
        read += len(chunk)

        if rnd == 0:
            appended = open_turn(chunk, LLAMA2)
        elif selected:
            # The previous round committed: close its turn, open a new one.
            appended = close_turn(selected, LLAMA2) + open_turn(chunk, LLAMA2)
        else:
            appended = " " + " ".join(chunk)
        rc_conv = len(appended.split())
        new = _words(chunk) if split else chunk
        same = 0
        for word in chain(new, tail):
            if same == before or word != tail[same]:
                break
            same += 1
        rc_off = (0 if rnd else len(_OFFLINE_HEAD)) + len(new) + len(tail) - same
        before = len(tail)

        context = appended if conversational else offline_prompt(source[:read], committed, LLAMA2)
        candidates = model.generate(context, beam)
        if not candidates:
            raise SimulationError(f"model returned no candidates at round {rnd}")
        beam_words = tuple(map(tuple, candidates))

        if read < len(source):
            selected = tuple(select_prefix(beam_words, strategy))
        else:
            # Source exhausted: flush the best full hypothesis.
            selected = beam_words[0]

        events.append(_event((pair_id, rnd, chunk, beam_words, selected, rc_conv, rc_off, read)))
        if selected:
            tail += _words(selected)
            committed.extend(selected)
        rnd += 1

    return tuple.__new__(
        SimRun, (pair_id, source, tuple(events), prompt_mode, chunk_size, beam, strategy)
    )


def dump_events_jsonl(runs: Iterable[SimRun], out: IO[str]) -> None:
    write = out.write
    for sim in runs:
        for event in sim.events:
            write(encode_json(event._asdict()) + "\n")


# The integer fields of an event record that `metrics.events_report` reads,
# each with its least value (None: any integer). A field with a least value is
# at most 2**53 too, so that it converts to a float exactly; id is only compared.
_EVENT_INT_FIELDS = {
    "id": None,
    "recompute_tokens_conversational": 0,
    "recompute_tokens_offline": 0,
    "cumulative_source_read": 1,
}


def _checked_event(line: bytes, lineno: int) -> dict:
    """Parse one event line; raise ValueError naming the line and the first field
    that `eval` reads and finds missing, of the wrong type or out of range: those
    of `_EVENT_INT_FIELDS` in order, then committed_words. Other keys may be anything."""
    try:
        record = decode_line(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"event line {lineno}: {exc.msg}: char {exc.pos}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"event line {lineno}: {exc}") from None
    if type(record) is not dict:
        raise ValueError(f"event line {lineno}: not an object")
    for key, least in _EVENT_INT_FIELDS.items():
        value = record.get(key)
        if type(value) is not int:
            raise ValueError(f"event line {lineno}: {key} is not an integer")
        if least is None:
            continue
        if value < least:
            raise ValueError(f"event line {lineno}: {key} is below {least}")
        if value > 2**53:
            raise ValueError(f"event line {lineno}: {key} is above 2**53")
    words = record.get("committed_words")
    if type(words) is not list or not only_str(map(type, words)):
        raise ValueError(f"event line {lineno}: committed_words is not a list of strings")
    return record


def load_events_jsonl(path: str) -> Iterator[list[dict]]:
    """The event records of one run at a time, in file order, from a file opened now.

    `dump_events_jsonl` writes each run as one block of consecutive records
    with the same id, in ascending id order, so only one run is held at a time.
    A run whose id is not above the previous run's, or a record whose fields
    `eval` reads are missing, of the wrong type or out of range, raises ValueError.
    """
    return _runs(read_records(path), path)


def _runs(records: Iterator[tuple[int, bytes]], path: str) -> Iterator[list[dict]]:
    last = None
    checked = (_checked_event(line, n + 1) for n, line in records)
    for rid, events in groupby(checked, key=itemgetter("id")):
        if last is not None and rid <= last:
            raise ValueError(f"run id {rid} follows run id {last} in {path}: run ids must ascend")
        last = rid
        yield list(events)
