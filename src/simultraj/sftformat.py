"""Serialization of trajectories into SFT dialogue text with loss masks.

Templates are plain data (turn-open / turn-sep / turn-close strings plus the
offline-prompt scaffolding), so a new chat format needs no code changes. The
built-in ``llama2`` template renders each chunk as

    <s>[INST] {read words} [/INST] {write words}</s>

with an optional system message wrapped into the first instruction. Loss masks
are character spans over the rendered text covering the assistant words minus
any shifted-in prefix; mapping spans to subword tokens is the trainer's job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from simultraj.alignment import SentencePair
from simultraj.trajectory import Trajectory

Span = tuple[int, int]


@dataclass(frozen=True)
class ChatTemplate:
    name: str
    turn_open: str
    turn_sep: str
    turn_close: str
    system_wrap: str
    offline_instruction: str
    offline_response_header: str


TEMPLATES: dict[str, ChatTemplate] = {
    "llama2": ChatTemplate(
        name="llama2",
        turn_open="<s>[INST] ",
        turn_sep=" [/INST] ",
        turn_close="</s>",
        system_wrap="<<SYS>>\n{}\n<</SYS>>\n\n",
        offline_instruction="Translate the following text:",
        offline_response_header="Translation:",
    ),
}


def get_template(template_id: str) -> ChatTemplate:
    try:
        return TEMPLATES[template_id]
    except KeyError:
        known = ", ".join(sorted(TEMPLATES))
        raise ValueError(f"unknown template id {template_id!r} (known: {known})") from None


@dataclass(frozen=True)
class SftRecord:
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


def render_conversational(
    traj: Trajectory, system_msg: str = "", template_id: str = "llama2"
) -> SftRecord:
    """Render a trajectory as multi-turn dialogue text with span bookkeeping."""
    tpl = get_template(template_id)
    parts: list[str] = []
    pos = 0
    turns: list[tuple[Span, Span]] = []
    loss_spans: list[Span] = []

    def emit(s: str) -> None:
        nonlocal pos
        parts.append(s)
        pos += len(s)

    for t, (chunk, reads, words) in enumerate(traj.segments()):
        emit(tpl.turn_open)
        if t == 0 and system_msg:
            emit(tpl.system_wrap.format(system_msg))
        user_text = " ".join(reads)
        user_span = (pos, pos + len(user_text))
        emit(user_text)
        emit(tpl.turn_sep)
        assistant_text = " ".join(words)
        assistant_span = (pos, pos + len(assistant_text))
        emit(assistant_text)
        emit(tpl.turn_close)
        turns.append((user_span, assistant_span))

        shifted = chunk.shifted_prefix_len
        if shifted == 0:
            loss_spans.append(assistant_span)
        elif shifted < len(words):
            skip = len(" ".join(words[:shifted])) + 1
            loss_spans.append((assistant_span[0] + skip, assistant_span[1]))
        # shifted == len(words): the whole WRITE was carried over; nothing to train on.

    return SftRecord(
        id=traj.pair_id,
        text="".join(parts),
        turns=tuple(turns),
        loss_mask_spans=tuple(loss_spans),
        template=tpl.name,
        provenance=traj.provenance,
    )


def offline_prompt(
    source_prefix: Sequence[str], target_history: Sequence[str], tpl: ChatTemplate
) -> str:
    """Single-instruction prompt: instruction + source prefix, then the history.

    New source lands before the history, so between rounds the prompt changes
    ahead of the already-generated region; this is what breaks prefix caching.
    """
    text = (
        tpl.turn_open
        + tpl.offline_instruction
        + " "
        + " ".join(source_prefix)
        + tpl.turn_sep
        + tpl.offline_response_header
    )
    if target_history:
        text += " " + " ".join(target_history)
    return text


def render_offline(
    pair: SentencePair,
    partial_source_len: int,
    target_history: Sequence[str] = (),
    template_id: str = "llama2",
) -> str:
    if not 0 <= partial_source_len <= pair.source_len:
        raise ValueError(
            f"record {pair.id}: partial_source_len {partial_source_len} outside "
            f"[0, {pair.source_len}]"
        )
    return offline_prompt(pair.source[:partial_source_len], target_history, get_template(template_id))


def dialogue_prompt(
    closed_turns: Sequence[tuple[Sequence[str], Sequence[str]]],
    open_source: Sequence[str],
    tpl: ChatTemplate,
    system_msg: str = "",
) -> str:
    """Incremental-decoding prompt: closed turns plus an open instruction.

    The open turn ends with the source words read so far (no response trigger),
    keeping each round's prompt an exact string extension of the previous
    round's prompt plus its committed continuation.
    """
    parts: list[str] = []
    first = True
    for src, tgt in closed_turns:
        parts.append(tpl.turn_open)
        if first and system_msg:
            parts.append(tpl.system_wrap.format(system_msg))
            first = False
        parts.append(" ".join(src) + tpl.turn_sep + " ".join(tgt) + tpl.turn_close)
    parts.append(tpl.turn_open)
    if first and system_msg:
        parts.append(tpl.system_wrap.format(system_msg))
    parts.append(" ".join(open_source))
    return "".join(parts)


def record_to_dict(record: SftRecord) -> dict:
    return {
        "id": record.id,
        "text": record.text,
        "turns": [[list(u), list(a)] for u, a in record.turns],
        "loss_mask_spans": [list(s) for s in record.loss_mask_spans],
        "template": record.template,
        "provenance": record.provenance,
    }


def emit_jsonl(records: Iterable[SftRecord], out: str | IO[str]) -> int:
    """One UTF-8 JSON object per line, stable field order. Returns record count."""
    own = isinstance(out, str)
    f = open(out, "w", encoding="utf-8") if own else out
    try:
        n = 0
        for record in records:
            f.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")
            n += 1
        return n
    finally:
        if own:
            f.close()
