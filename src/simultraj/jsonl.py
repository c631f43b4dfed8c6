"""Every input file's reader, and the JSON codec of every output.

A reader opens its file when it is called, not at its first item, so a stage
opens all its inputs before its output: a missing or unreadable input stops
the stage while an existing output keeps its bytes. A reader holds its open
file and closes it when it is exhausted, when it is closed, or when it is
dropped unread.

``read_lines`` yields each line of a line-oriented input as bytes, cut at
``\\n`` only; each line is decoded where its record is parsed. The JSONL
readers take their records from ``read_records``, which skips the lines of
ASCII whitespace, and decode each through ``decode_line``. ``jsonl_line``
encodes a record as its UTF-8 line, and ``encode_json`` every other JSON
output; both go through one C encoder, built once per process rather than
once per call. ``read_scripts`` reads `simulate`'s model file, a JSON list of
scripts, one script at a time. This module imports no other module of the
package.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False, allow_nan=False)
# The C encoder that _ENCODER.encode builds anew on every call, built once here
# with the arguments encode passes it: markers, default, the string encoder,
# indent, the two separators, sort_keys, skipkeys and allow_nan. Everything
# encoded is a tree the program builds, so the check for reference cycles is
# skipped (markers None).
_encode_chunks = json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring, None,
    _ENCODER.key_separator, _ENCODER.item_separator, False, False, False,
)


def encode_json(obj: object) -> str:
    """json.dumps(obj, ensure_ascii=False, allow_nan=False): its text or its
    error. Every JSON output (the JSONL stages, the config line and eval's
    report) encodes through it, so none can hold a NaN or an infinity."""
    return "".join(_encode_chunks(obj, 0))  # a list of chunks, a tuple from 3.12 on


# json.JSONDecoder().raw_decode, built once: the JSON value that starts at an
# index of a string, and the index after it. read_scripts and decode_line
# decode through it.
raw_decode_json = json.JSONDecoder().raw_decode

# A C-level "every type is str" over map(type, words) of a decoded record.
only_str = frozenset((str,)).issuperset


def read_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """Each line of a line-oriented input, as its 0-based number and its bytes.
    A line ends at b"\\n" only, so a CR is whitespace inside a line. The file
    is opened now, so a missing one raises here."""
    lines = _lines(path)
    next(lines)  # runs to the bare yield, with the file open
    return lines


def _lines(path: str) -> Iterator:
    with open(path, "rb") as f:
        yield
        yield from enumerate(f)


def read_records(path: str) -> Iterator[tuple[int, bytes]]:
    """The lines of a JSONL file that hold more than ASCII whitespace, its
    records, numbered as read_lines numbers them; the file is opened now."""
    return (numbered for numbered in read_lines(path) if not numbered[1].isspace())


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


def jsonl_line(record: dict) -> bytes:
    """A record's JSONL line in UTF-8; ValueError naming the record's id if one
    of its strings holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        return (encode_json(record) + "\n").encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"record {record['id']}: {exc}") from None


# Characters read from a model file at a time. A script that runs past the text
# read so far is parsed again after a read that at least doubles that text.
MODEL_BLOCK = 1 << 16
# The longest JSON token a read can cut short. A syntax error that a cut read
# causes lies less than this many characters before the end of the text read,
# or is an unterminated string.
_LONGEST_TOKEN = len("-Infinity")
_skip = json.decoder.WHITESPACE.match


def read_scripts(path: str) -> Iterator[object]:
    """The scripts of a model file, the elements of its JSON list, read one at
    a time. The file is opened, and checked to open a list, now."""
    scripts = _scripts(path)
    next(scripts)  # runs to the bare yield, past the check
    return scripts


def _scripts(path: str) -> Iterator[object]:
    with open(path, encoding="utf-8") as f:
        head = f.read(MODEL_BLOCK)
        while head.isspace() and (more := f.read(MODEL_BLOCK)):
            head += more
        if head.lstrip(" \t\n\r")[:1] != "[":  # JSON's whitespace, then the list
            raise ValueError("model file must hold a JSON list of scripts")
        yield
        yield from _list_items(f, head)


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
