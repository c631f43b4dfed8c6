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
(words as ``str.split()`` cuts them). Conversational prompts only ever grow at
the end, so a round's recompute is the word count of what it appends, and the
total telescopes to the final prompt length. Offline prompts insert source
ahead of the translation history and re-pay it each round. Both counts are kept
from what each round adds, so a round costs time in its chunk and commit, not
in the prompt length; only the active mode's prompt is rendered, for the model.
The tests re-render every round's prompts in full
(``tests/conftest.py::oracle_run``) and check these counts against them.

``read_scripts`` reads `simulate`'s model file, a JSON list of scripts, one
script at a time for ``ScriptedModel.from_obj``. ``read_lines`` reads every
line-oriented input as bytes, and ``decode_line`` decodes one JSONL line.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple, Protocol, Sequence

# dialogue_prompt is not called here; bench/tracer.py wraps it under this module.
from simultraj.sftformat import LLAMA2, dialogue_prompt, offline_prompt
from simultraj.trajectory import _only_str

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
        """Return up to `beam` candidate continuations (word sequences) for the rendered context."""


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


# Characters read from a model file at a time. A script that runs past the text
# read so far is parsed again after a read that at least doubles that text.
MODEL_BLOCK = 1 << 16
# The longest JSON token a read can cut short. A syntax error that a cut read
# causes lies less than this many characters before the end of the text read,
# or is an unterminated string.
_LONGEST_TOKEN = len("-Infinity")
_skip = json.decoder.WHITESPACE.match


def read_scripts(f: IO[str]) -> Iterator[object]:
    """The scripts of a model file, the elements of its JSON list, read one at a time."""
    head = f.read(MODEL_BLOCK)
    while head.isspace() and (more := f.read(MODEL_BLOCK)):
        head += more
    if head.lstrip(" \t\n\r")[:1] != "[":  # JSON's whitespace, then the list
        raise ValueError("model file must hold a JSON list of scripts")
    return _list_items(f, head)


def _list_items(f: IO[str], buf: str) -> Iterator[object]:
    """Yield the elements of the JSON list in f one at a time; buf is the text
    read from f so far, a '[' after optional whitespace and then more.

    Only the text of the element being parsed is held. An element is taken
    once the delimiter after it has been read too: a number cut short by the
    end of a read would still parse. A syntax error that no cut read can
    cause is raised without reading on.
    """
    pos, delim = _skip(buf).end() + 1, "["  # delim: the token before the next element
    base = 0  # characters of f before buf
    while delim != "]":
        try:
            pos = _skip(buf, pos).end()
            if delim == "[" and buf[pos] == "]":  # IndexError: only whitespace read after pos
                pos += 1
                break
            obj, end = raw_decode_json(buf, pos)
            end = _skip(buf, end).end()
            if buf[end] not in ",]":  # may be the rest of a number cut by a read: 1|.5
                raise json.JSONDecodeError("Expecting ',' delimiter", buf, end)
        except (IndexError, json.JSONDecodeError) as exc:
            cut = (
                isinstance(exc, IndexError)
                or exc.msg.startswith("Unterminated string")
                or len(buf) - exc.pos < _LONGEST_TOKEN
            )
            more = cut and f.read(max(MODEL_BLOCK, len(buf) - pos))
            if more:
                base, buf, pos = base + pos, buf[pos:] + more, 0
                continue
            if isinstance(exc, IndexError):
                raise ValueError("model file ends inside its script list") from None
            raise ValueError(f"model file: {exc.msg}: char {base + exc.pos}") from None
        yield obj
        delim, pos = buf[end], end + 1
    tail = buf[pos:]
    while not tail.strip():
        tail = f.read(MODEL_BLOCK)
        if not tail:
            return
    raise ValueError("model file has data after its script list")


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
    tpl = LLAMA2
    conversational = prompt_mode == CONVERSATIONAL
    # A chunk's words are its prompt words when no source word is empty or
    # holds whitespace, as with every source that str.split() cut.
    split = tuple(" ".join(source).split()) != source

    # The offline prompt is head (the instruction's words), the source read so
    # far, then tail: the response trigger's words and the history's. The
    # trigger starts with a space, so the last source word never fuses with it.
    # Round 0 pays for every word. Later, the prompt keeps head and the old
    # source, so the common word prefix covers them, then runs on only while
    # the new chunk's words (and, past them, the tail's) equal the previous
    # round's tail words; the tail only grows, so those are tail[:before].
    head = len((tpl.turn_open + tpl.offline_instruction).split())
    tail = (tpl.turn_sep + tpl.offline_response_header).split()
    before = 0  # len(tail) in the previous round's prompt
    committed: list[str] = []  # the offline prompt's history
    prompt = ""  # the conversational prompt; it only ever grows at the end
    selected: tuple[str, ...] = ()
    events: list[SimEvent] = []
    read = 0
    rnd = 0
    while read < len(source):
        chunk = source[read : read + chunk_size]
        read += len(chunk)

        if rnd == 0:
            appended = tpl.turn_open + " ".join(chunk)
        elif selected:
            # The previous round committed: close its turn, open a new one.
            appended = (
                tpl.turn_sep + " ".join(selected) + tpl.turn_close + tpl.turn_open + " ".join(chunk)
            )
        else:
            appended = " " + " ".join(chunk)
        rc_conv = len(appended.split())
        new = _words(chunk) if split else chunk
        same = 0
        for word in chain(new, tail):
            if same == before or word != tail[same]:
                break
            same += 1
        rc_off = (0 if rnd else head) + len(new) + len(tail) - same
        before = len(tail)

        if conversational:
            # No other reference to prompt may outlive the round, so that
            # += extends the string in place instead of copying it.
            prompt += appended
            candidates = model.generate(prompt, beam)
        else:
            candidates = model.generate(offline_prompt(source[:read], committed, tpl), beam)
        if not candidates:
            raise SimulationError(f"model returned no candidates at round {rnd}")
        beam_words = tuple(map(tuple, candidates))

        if read < len(source):
            selected = tuple(select_prefix(beam_words, strategy))
        else:
            # Source exhausted: flush the best full hypothesis.
            selected = beam_words[0]

        events.append(_event((rnd, chunk, beam_words, selected, rc_conv, rc_off, read)))
        if selected:
            tail += _words(selected)
            committed.extend(selected)
        rnd += 1

    return tuple.__new__(
        SimRun, (pair_id, source, tuple(events), prompt_mode, chunk_size, beam, strategy)
    )


# An event record's keys, in order: the run's id, then SimEvent's fields.
_EVENT_KEYS = ("id", *SimEvent._fields)


def event_to_record(sim: SimRun, event: SimEvent) -> dict:
    # json writes the tuples as arrays.
    return dict(zip(_EVENT_KEYS, (sim.pair_id, *event)))


# json.dumps(obj, ensure_ascii=False, allow_nan=False) without building an
# encoder per call; every JSON output (the JSONL stages, the config line and
# eval's report) encodes through it, so none can hold a NaN or an infinity.
# Everything it encodes is a tree the program builds, so the check for
# reference cycles is skipped.
encode_json = json.JSONEncoder(ensure_ascii=False, check_circular=False, allow_nan=False).encode

# json.JSONDecoder().raw_decode, built once: the JSON value that starts at an
# index of a string, and the index after it. read_scripts and decode_line
# decode through it.
raw_decode_json = json.JSONDecoder().raw_decode


def read_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """Each line of a line-oriented input, as its 0-based number and its bytes.
    A line ends at b"\\n" only, so a CR is whitespace inside a line; each line
    is decoded where its record is parsed."""
    with open(path, "rb") as f:
        yield from enumerate(f)


def decode_line(line: bytes) -> object:
    """json.loads(line.decode("utf-8")): its value or its error, a
    UnicodeDecodeError included. Every JSONL reader decodes through this. A
    line that is one JSON value and then a newline, as this package writes
    them, skips json.loads's whitespace scans."""
    text = line.decode("utf-8")
    try:
        value, end = raw_decode_json(text)
    except json.JSONDecodeError:
        return json.loads(text)
    return value if text[end:] == "\n" else json.loads(text)


def dump_events_jsonl(runs: Iterable[SimRun], out: IO[str]) -> None:
    write = out.write
    for sim in runs:
        for event in sim.events:
            write(encode_json(event_to_record(sim, event)) + "\n")


# The integer fields of an event record that `metrics.events_report` reads,
# each with its least value (None: any integer).
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
        if least is not None and value < least:
            raise ValueError(f"event line {lineno}: {key} is below {least}")
    words = record.get("committed_words")
    if type(words) is not list or not _only_str(map(type, words)):
        raise ValueError(f"event line {lineno}: committed_words is not a list of strings")
    return record


def load_events_jsonl(path: str) -> Iterator[list[dict]]:
    """Yield the event records of one run at a time, in file order.

    `dump_events_jsonl` writes each run as one block of consecutive records
    with the same id, in ascending id order, so only one run is held at a time.
    A run whose id is not above the previous run's, or a record whose fields
    `eval` reads are missing, of the wrong type or out of range, raises ValueError.
    """
    last = None
    records = (_checked_event(line, n + 1) for n, line in read_lines(path) if not line.isspace())
    for rid, events in groupby(records, key=itemgetter("id")):
        if last is not None and rid <= last:
            raise ValueError(f"run id {rid} follows run id {last} in {path}: run ids must ascend")
        last = rid
        yield list(events)
