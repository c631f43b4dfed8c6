"""The contract of simultraj.jsonl: it stands alone, and each reader opens its
file when it is called and closes it in every way a stage can end. The event
log's reader, simultraj.simulator.load_events_jsonl, keeps the same contract."""

import subprocess
import sys
from pathlib import Path

import pytest

from simultraj import jsonl
from simultraj.cli import main
from simultraj.jsonl import read_lines, read_records, read_scripts
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
