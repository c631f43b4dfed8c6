"""The contract of simultraj.jsonl: it stands alone, each reader opens its
file when it is called and closes it in every way a stage can end, and its
encoders write what json.dumps writes. The event log's reader,
simultraj.simulator.load_events_jsonl, keeps the same contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simultraj import jsonl
from simultraj.cli import main
from simultraj.jsonl import encode_json, jsonl_line, read_lines, read_records, read_scripts
from simultraj.simulator import load_events_jsonl
from conftest import write_sim_case, write_toy_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
# Lines, records and a JSON list of scripts, all at once.
TEXT = "[1,\n2]\n"
# Two runs of one event each.
EVENTS = "".join(f'{{"id": {i}, "recompute_tokens_conversational": 1, "recompute_tokens_offline": 1, '
                 f'"cumulative_source_read": 1, "committed_words": ["a"]}}\n' for i in range(2))
# Each reader, and a file in which it finds two items.
READERS = {"read_lines": (read_lines, TEXT), "read_records": (read_records, TEXT),
           "read_scripts": (read_scripts, TEXT), "load_events_jsonl": (load_events_jsonl, EVENTS)}


@pytest.fixture
def opened(monkeypatch):
    """The files that simultraj.jsonl opens, in order."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
    return files


def test_import_loads_no_other_package_module():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import simultraj.jsonl; "
              "print(sorted(m for m in sys.modules if m.startswith('simultraj')))")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", script, str(SRC)],
                            capture_output=True, text=True, timeout=60)
    assert (result.stdout, result.stderr) == ("['simultraj', 'simultraj.jsonl']\n", "")


@pytest.mark.parametrize("reader, text", READERS.values(), ids=READERS.keys())
def test_reader_raises_when_called(tmp_path, opened, reader, text):
    with pytest.raises(FileNotFoundError):
        reader(str(tmp_path / "missing.jsonl"))
    assert opened == []


@pytest.mark.parametrize("end", ["exhausted", "closed-early", "dropped-unread"])
@pytest.mark.parametrize("reader, text", READERS.values(), ids=READERS.keys())
def test_reader_closes_its_file(tmp_path, opened, reader, text, end):
    path = tmp_path / "in.jsonl"
    path.write_text(text, encoding="utf-8")
    items = reader(str(path))
    [f] = opened
    assert not f.closed  # open from the call on
    if end == "exhausted":
        assert len(list(items)) == 2
    elif end == "closed-early":
        next(items)
        items.close()
    else:
        del items
    assert f.closed


def test_stage_that_fails_before_reading_closes_its_inputs(tmp_path, capsys, opened):
    """An unwritable output, eval's --csv included, stops each stage after its
    inputs are open: each is closed when the stage returns, without waiting
    for a garbage collection."""
    src, tgt, align = map(str, write_toy_corpus(tmp_path, n_pairs=3))
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", src, "--tgt", tgt, "--align", align, "--out", str(meta)]) == 0
    sim_src, model, _ = map(str, write_sim_case(tmp_path, 2))
    events = str(tmp_path / "events.jsonl")
    assert main(["simulate", "--src", sim_src, "--model", model, "--chunk", "3", "--out", events]) == 0
    out = str(tmp_path / "no-such-dir" / "out.jsonl")
    stages = {
        "curate": ["curate", "--src", src, "--tgt", tgt, "--align", align, "--out"],
        "augment": ["augment", "--in", str(meta), "--out"],
        "format": ["format", "--in", str(meta), "--out"],
        "simulate": ["simulate", "--src", sim_src, "--model", model, "--out"],
        "eval": ["eval", "--events", events, "--csv"],
    }
    for stage, argv in stages.items():
        opened.clear()
        capsys.readouterr()
        assert main([*argv, out]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [f"error: [Errno 2] No such file or directory: '{out}'"]
        assert len(opened) == (len(argv) - 2) // 2, stage  # every input was opened
        assert all(f.closed for f in opened), stage


def dumps(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, allow_nan=False)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Text holds control characters and non-ASCII, never a lone surrogate.
KEYS = st.text() | st.integers() | FINITE | st.booleans() | st.none()
TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(TREES, st.integers())
def test_encoders_write_what_json_dumps_writes(tree, rid):
    text = encode_json(tree)
    assert type(text) is str
    assert text == dumps(tree)
    record = {"id": rid, 1.5: tree, None: [tree]}
    assert jsonl_line(record) == (dumps(record) + "\n").encode()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), object(), b"x", 1j])
def test_encoders_raise_what_json_dumps_raises(bad):
    """ValueError for a NaN or an infinity, TypeError for a value JSON has no
    type for, as a value or as a key, with json.dumps's message."""
    for obj in (bad, [1, bad], {"id": 3, "x": (1, bad)}, {"id": 3, bad: 1}):
        with pytest.raises((ValueError, TypeError)) as expected:
            dumps(obj)
        for encoder in (encode_json, jsonl_line) if isinstance(obj, dict) else (encode_json,):
            with pytest.raises(expected.type) as raised:
                encoder(obj)
            assert str(raised.value) == str(expected.value)
            assert getattr(raised.value, "__notes__", None) == getattr(expected.value, "__notes__", None)


def test_lone_surrogate_is_a_value_error_naming_the_record():
    record = {"id": 7, "chunks": [{"read": ["a\udc80"]}]}
    assert encode_json(record) == dumps(record)  # str holds it; UTF-8 cannot
    with pytest.raises(UnicodeEncodeError) as expected:
        dumps(record).encode()
    with pytest.raises(ValueError) as raised:
        jsonl_line(record)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"record 7: {expected.value}"
