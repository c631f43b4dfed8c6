"""The contract of simultraj.jsonl: it stands alone, and each reader opens its
file when it is called and closes it in every way a stage can end."""

import subprocess
import sys
from pathlib import Path

import pytest

from simultraj import jsonl
from simultraj.cli import main
from simultraj.jsonl import read_lines, read_records, read_scripts
from conftest import write_sim_case, write_toy_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
READERS = {"read_lines": read_lines, "read_records": read_records, "read_scripts": read_scripts}
# Lines, records and a JSON list of scripts, all at once.
TEXT = "[1,\n2]\n"


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


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_reader_raises_when_called(tmp_path, opened, reader):
    with pytest.raises(FileNotFoundError):
        reader(str(tmp_path / "missing.jsonl"))
    assert opened == []


@pytest.mark.parametrize("end", ["exhausted", "closed-early", "dropped-unread"])
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_reader_closes_its_file(tmp_path, opened, reader, end):
    path = tmp_path / "in.jsonl"
    path.write_text(TEXT, encoding="utf-8")
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
    """An unwritable output stops each stage after its inputs are open: each
    is closed when the stage returns, without waiting for a garbage collection."""
    src, tgt, align = map(str, write_toy_corpus(tmp_path, n_pairs=3))
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", src, "--tgt", tgt, "--align", align, "--out", str(meta)]) == 0
    sim_src, model, _ = map(str, write_sim_case(tmp_path, 2))
    out = str(tmp_path / "no-such-dir" / "out.jsonl")
    stages = {
        "curate": ["curate", "--src", src, "--tgt", tgt, "--align", align],
        "augment": ["augment", "--in", str(meta)],
        "format": ["format", "--in", str(meta)],
        "simulate": ["simulate", "--src", sim_src, "--model", model],
    }
    for stage, argv in stages.items():
        opened.clear()
        capsys.readouterr()
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [f"error: [Errno 2] No such file or directory: '{out}'"]
        assert len(opened) == (len(argv) - 1) // 2, stage  # every input was opened
        assert all(f.closed for f in opened), stage
