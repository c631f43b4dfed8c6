"""Serialization of trajectories into SFT dialogue text with loss masks.

There is one chat template, ``llama2``, held as plain data: the turn strings
and the offline-prompt scaffolding. ``open_turn`` and ``close_turn``, which the
simulator's prompts use too, render each chunk as

    <s>[INST] {read words} [/INST] {write words}</s>

with an optional system message wrapped into the first instruction. Loss masks
are character spans over the rendered text covering the assistant words minus
any shifted-in prefix; mapping spans to subword tokens is the trainer's job.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from simultraj.trajectory import Trajectory

Span = tuple[int, int]


class ChatTemplate(NamedTuple):
    name: str
    turn_open: str
    turn_sep: str
    turn_close: str
    system_wrap: str
    offline_instruction: str
    offline_response_header: str


DEFAULT_TEMPLATE = "llama2"

LLAMA2 = ChatTemplate(
    name=DEFAULT_TEMPLATE,
    turn_open="<s>[INST] ",
    turn_sep=" [/INST] ",
    turn_close="</s>",
    system_wrap="<<SYS>>\n{}\n<</SYS>>\n\n",
    offline_instruction="Translate the following text:",
    offline_response_header="Translation:",
)


def get_template(template_id: str) -> ChatTemplate:
    if template_id != LLAMA2.name:
        raise ValueError(f"unknown template id {template_id!r} (known: {LLAMA2.name})")
    return LLAMA2


class SftRecord(NamedTuple):
    """One serialized training example.

    turns holds (user_span, assistant_span) character ranges into text;
    loss_mask_spans are the ranges the trainer should apply loss over. All
    spans are half-open [start, end), ascending, non-overlapping.
    """

    id: int
    text: str
    turns: tuple[tuple[Span, Span], ...]
    loss_mask_spans: tuple[Span, ...]
    template: str
    provenance: str


def open_turn(reads: Sequence[str], tpl: ChatTemplate, system_msg: str = "") -> str:
    """A turn's text up to and with its read words; only a first turn takes a system block."""
    system = tpl.system_wrap.format(system_msg) if system_msg else ""
    return tpl.turn_open + system + " ".join(reads)


def close_turn(words: Sequence[str], tpl: ChatTemplate) -> str:
    """The text that ends an open turn with the words written for it."""
    return tpl.turn_sep + " ".join(words) + tpl.turn_close


def render_conversational(
    traj: Trajectory, system_msg: str = "", template_id: str = DEFAULT_TEMPLATE
) -> SftRecord:
    """Render a trajectory as multi-turn dialogue text with span bookkeeping."""
    tpl = get_template(template_id)
    text = ""  # grows in place: no other reference to it is kept
    turns: list[tuple[Span, Span]] = []
    loss_spans: list[Span] = []
    head, later_head = open_turn((), tpl, system_msg), open_turn((), tpl)  # one system block
    for chunk, reads, words in traj.segments():
        # open_turn(reads) is the head, then the reads; close_turn's words end before turn_close.
        user_start = len(text) + len(head)
        text += head + " ".join(reads)
        user_span = (user_start, len(text))
        head = later_head
        text += close_turn(words, tpl)
        assistant_span = (user_span[1] + len(tpl.turn_sep), len(text) - len(tpl.turn_close))
        turns.append((user_span, assistant_span))

        shifted = chunk.shifted_prefix_len
        if shifted == 0:
            loss_spans.append(assistant_span)
        elif shifted < len(words):
            skip = len(" ".join(words[:shifted])) + 1
            loss_spans.append((assistant_span[0] + skip, assistant_span[1]))
        # shifted == len(words): the whole WRITE was carried over; nothing to train on.

    # Positional: binding six keywords costs more than the turn functions' calls.
    return SftRecord(traj.pair_id, text, tuple(turns), tuple(loss_spans), tpl.name, traj.provenance)


def offline_frame(tpl: ChatTemplate) -> tuple[str, str]:
    """The offline prompt's text before its source words, and the trigger after them."""
    return tpl.turn_open + tpl.offline_instruction + " ", tpl.turn_sep + tpl.offline_response_header


def offline_prompt(
    source_prefix: Sequence[str], target_history: Sequence[str], tpl: ChatTemplate
) -> str:
    """Single-instruction prompt: instruction + source prefix, then the history.

    New source lands before the history, so between rounds the prompt changes
    ahead of the already-generated region; this is what breaks prefix caching.
    """
    instruction, trigger = offline_frame(tpl)
    text = instruction + " ".join(source_prefix) + trigger
    if target_history:
        text += " " + " ".join(target_history)
    return text


def dialogue_prompt(
    closed_turns: Sequence[tuple[Sequence[str], Sequence[str]]],
    open_source: Sequence[str],
    tpl: ChatTemplate,
) -> str:
    """Incremental-decoding prompt: closed turns plus an open instruction.

    The open turn ends with the source words read so far (no response trigger),
    keeping each round's prompt an exact string extension of the previous
    round's prompt plus its committed continuation.
    """
    parts: list[str] = []
    for src, tgt in closed_turns:
        parts.append(tpl.turn_open + " ".join(src) + tpl.turn_sep + " ".join(tgt) + tpl.turn_close)
    parts.append(tpl.turn_open + " ".join(open_source))
    return "".join(parts)


def record_to_dict(record: SftRecord) -> dict:
    # SftRecord's fields are the record's keys, in order; json writes tuples as arrays.
    return record._asdict()
