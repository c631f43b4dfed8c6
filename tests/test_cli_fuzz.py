"""Bounded fuzz of the whole CLI: `main` in-process on mutated inputs, for all
six subcommands.

Whatever the input, only argparse's SystemExit (a bad flag value) may leave
`main`, the exit status is one of the documented 0/1/2, and a report that
`eval` prints with status 0 is strict JSON. The per-record stages (curate,
augment, format, stats, simulate's sessions and eval's runs) also set a mutated
line apart: every other record comes out as it did.
"""

import contextlib
import io
import json
import os
import re
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simultraj.cli import main
from simultraj.metrics import CostModel, corpus_stats, corpus_stats_table, events_report, run_latency
from simultraj.trajectory import from_record
from conftest import write_sim_case, write_toy_corpus

# The clean argv of each subcommand, run in the work directory, and its input files.
COMMANDS = {
    "curate": (["curate", "--src", "src.txt", "--tgt", "tgt.txt", "--align", "align.txt", "--out", "out.jsonl"],
               ["src.txt", "tgt.txt", "align.txt"]),
    "augment": (["augment", "--in", "meta.jsonl", "--out", "out.jsonl"], ["meta.jsonl"]),
    "format": (["format", "--in", "meta.jsonl", "--out", "out.jsonl"], ["meta.jsonl"]),
    "stats": (["stats", "--in", "meta.jsonl"], ["meta.jsonl"]),
    "simulate": (["simulate", "--src", "sim_src.txt", "--model", "model.json", "--chunk", "3", "--out", "out.jsonl"],
                 ["sim_src.txt", "model.json"]),
    "eval": (["eval", "--events", "events.jsonl"], ["events.jsonl"]),
}
# The flags of each subcommand that take a value (--out names a file).
VALUE_FLAGS = {
    "curate": ["--workers"],
    "augment": ["--delta-min", "--delta-max", "--beta", "--rho-min", "--seed", "--workers"],
    "format": ["--template", "--workers"],
    "stats": [],
    "simulate": ["--chunk", "--beam", "--select", "--gamma", "--prompt"],
    "eval": ["--cost-recompute", "--cost-word"],
}
# None is a valid --workers value, so no run forks a worker; "9" * 5000 is past
# int()'s digit limit.
BAD_VALUES = ["0", "-1", "nan", "-inf", "1e400", "x", "", "9" * 5000]
HUGE_INTS = [b"9" * 5000, b"1" + b"0" * 30, b"-" + b"9" * 25]
NAN_LITERALS = [b"NaN", b"Infinity", b"-Infinity"]
WRONG_TYPES = [b"1", b"1.5", b'"x"', b"null", b"true", b"[]", b"{}", b"[1, 2]", b'{"id": "0"}']
DEEP = [b"[" * 3 + b"]" * 3, b"[" * 100_000 + b"]" * 100_000, b"{" * 50_000]
# JSON strings that no UTF-8 output can hold.
SURROGATES = [b'"\\ud800"', b'"a\\udfffb"']
# The mutations that keep a line one line: a line ends at b"\n" only, so a lone
# CR, or one before the newline, is whitespace inside it.
TEXT_KINDS = ["truncate-line", "non-utf8", "deep", "wrong-type", "huge-int", "nan", "lone-cr", "crlf"]
LINE_KINDS = [*TEXT_KINDS, "surrogate"]
# A JSON string or a number: the tokens a mutation replaces.
TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The work directory and the clean bytes of every input file."""
    work = tmp_path_factory.mktemp("fuzz")
    write_toy_corpus(work, n_pairs=4)
    write_sim_case(work, 3)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["curate", "--src", str(work / "src.txt"), "--tgt", str(work / "tgt.txt"),
                     "--align", str(work / "align.txt"), "--out", str(work / "meta.jsonl")]) == 0
        assert main(["simulate", "--src", str(work / "sim_src.txt"), "--model", str(work / "model.json"),
                     "--chunk", "3", "--out", str(work / "events.jsonl")]) == 0
    names = {name for _, names in COMMANDS.values() for name in names}
    return work, {name: (work / name).read_bytes() for name in names}


@st.composite
def mutations(draw, data, kinds=(*LINE_KINDS, "truncate-file", "drop-line", "repeat-line", "blank-line")):
    """data with one mutation of a kind drawn from kinds at a drawn place; the
    place is a byte offset, and a line mutation takes the line that holds it."""
    at = draw(st.integers(0, len(data)))
    start = data.rfind(b"\n", 0, at) + 1
    end = data.find(b"\n", at)
    end = len(data) if end < 0 else end
    tokens = list(TOKEN.finditer(data))
    token = tokens[at % len(tokens)] if tokens else None
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate-line":
        return data[:at] + data[end:]
    if kind == "truncate-file":
        return data[:at]
    if kind == "drop-line":  # a count mismatch
        return data[:start] + data[end + 1:]
    if kind == "repeat-line":  # a count mismatch, or an id that reappears
        return data[:end] + b"\n" + data[start:end] + data[end:]
    if kind == "blank-line":
        return data[:start] + draw(st.sampled_from([b"\n", b"  \t\n"])) + data[start:]
    if kind == "non-utf8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    if kind == "lone-cr":
        return data[:at] + b"\r" + data[at:]
    if kind == "crlf":
        return data[:end] + b"\r" + data[end:]
    new = draw(st.sampled_from({"deep": DEEP, "wrong-type": WRONG_TYPES, "huge-int": HUGE_INTS,
                                "nan": NAN_LITERALS, "surrogate": SURROGATES}[kind]))
    if token is None:
        return data[:at] + new + data[at:]
    return data[:token.start()] + new + data[token.end():]


@st.composite
def cases(draw, command, inputs):
    """(argv, {input name: bytes}) for one run of command: one input mutated,
    or a bad value for one of its flags."""
    files = dict(inputs)
    flags = VALUE_FLAGS[command]
    if flags and draw(st.integers(0, 4)) == 0:
        return [draw(st.sampled_from(flags)), draw(st.sampled_from(BAD_VALUES))], files
    name = draw(st.sampled_from(sorted(files)))
    files[name] = draw(mutations(files[name]))
    return [], files


def reject_constant(name):
    raise ValueError(f"{name} in a JSON output")


@pytest.mark.parametrize("command", COMMANDS)
def test_main_on_mutated_inputs_exits_with_a_documented_status(clean, command, monkeypatch):
    work, inputs = clean
    argv, names = COMMANDS[command]
    monkeypatch.chdir(work)

    @settings(max_examples=30, deadline=None, database=None)
    @given(cases(command, {name: inputs[name] for name in names}))
    def run(case):
        extra, files = case
        for name, data in files.items():
            (work / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + extra)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2 and extra, err.getvalue()
                assert err.getvalue().startswith("usage: ")
                return
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if command == "eval" and code == 0:
            json.loads(out.getvalue().splitlines()[0], parse_constant=reject_constant)

    run()


def _sessions(events):
    """An event log's bytes per session id, in file order."""
    lines = events.splitlines(keepends=True)
    return {rid: b"".join(group) for rid, group in groupby(lines, key=lambda line: json.loads(line)["id"])}


def _event_runs(lines):
    """(id, 0-based first line, decoded records) per run of an event log's
    lines, grouped as README says eval groups them: by id, with a line that
    does not decode, or has no integer id, in the run before it."""
    keyed, rid = [], None
    for line in lines:
        try:
            record = json.loads(line.decode("utf-8"))  # json.loads would let bytes hold surrogates
        except (ValueError, RecursionError):
            record = None
        if type(record) is dict and type(record.get("id")) is int:
            rid = record["id"]
        keyed.append((rid, record))
    runs, first = [], 0
    for rid, group in groupby(keyed, key=itemgetter(0)):
        records = [record for _, record in group]
        runs.append((rid, first, records))
        first += len(records)
    return runs


def _check_eval(lines, k, code, reasons, out):
    """eval on an event log whose line k is mutated rejects at most the run that
    holds line k and the run after it, whose first round is then not 0, and
    reports the other runs; or it stops at run ids that the mutated id leaves
    out of order."""
    runs = _event_runs(lines)
    ids = [rid for rid, _, _ in runs if rid is not None]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        assert (code, out) == (2, b""), reasons
        assert reasons[-1].endswith("run ids must ascend"), reasons
        return
    at = next(i for i, (_, first, records) in enumerate(runs) if first <= k < first + len(records))
    named = [int(reason.split(" ", 2)[1]) - 1 for reason in reasons]  # line N rejected: ...
    firsts = [first for _, first, _ in runs[at:at + 2]]
    assert (code, named) in ((0, []), (1, firsts[:1]), (1, firsts)), reasons
    if len(named) == 2:
        assert reasons[1].endswith(": round is not 0"), reasons
    kept = [records for _, first, records in runs if first not in named]
    report = events_report(run_latency(records, CostModel()) for records in kept)
    assert json.loads(out.splitlines()[0], parse_constant=reject_constant) == report._asdict()


@pytest.mark.parametrize("command, name", [
    ("curate", "src.txt"), ("curate", "tgt.txt"), ("curate", "align.txt"),
    ("augment", "meta.jsonl"), ("format", "meta.jsonl"), ("stats", "meta.jsonl"), ("simulate", "sim_src.txt"),
    ("eval", "events.jsonl"),
], ids=["curate-src", "curate-tgt", "curate-align", "augment", "format", "stats", "simulate", "eval"])
def test_per_record_stage_sets_a_mutated_line_apart(clean, command, name, monkeypatch, no_leftover_children):
    """One mutated line of an input gives its own record (a session, for
    simulate) or one rejection reason, which names that line; the other records
    are the clean run's, in order, at --workers 1 and 2 alike. stats prints the
    table of the records it accepts: the other lines' table when it rejects the
    mutated one. eval's record is a run, named by its first line: see
    `_check_eval`."""
    work, inputs = clean
    monkeypatch.chdir(work)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # a pool of 2 anywhere
    argv, names = COMMANDS[command]
    files = {n: inputs[n] for n in names}
    # Copies, as the other fuzz tests mutate the inputs; argv names them and an output.
    for n, data in files.items():
        (work / f"one_{n}").write_bytes(data)
    serial = command in ("simulate", "stats", "eval")
    worker_counts = ["1"] if serial else ["1", "2"]

    def main_on(out, workers="1"):
        stdout, err = io.StringIO(), io.StringIO()
        extra = [] if serial else ["--workers", workers]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main([{"out.jsonl": out}.get(a, f"one_{a}" if a in files else a) for a in argv] + extra)
        written = stdout.getvalue().encode() if command in ("stats", "eval") else (work / out).read_bytes()
        return code, err.getvalue().splitlines()[1:], written  # reasons: after the config

    code, reasons, clean_out = main_on("clean.jsonl")
    assert (code, reasons) == (0, [])
    lines = files[name].splitlines(keepends=True)
    kinds = LINE_KINDS if name.endswith(".jsonl") else TEXT_KINDS

    @settings(max_examples=8, deadline=None, database=None)
    @given(st.data())
    def run(data):
        k = data.draw(st.integers(0, len(lines) - 1))
        line = data.draw(mutations(lines[k].rstrip(b"\n"), kinds))
        if name.endswith(".jsonl"):
            assume(line and not line.isspace())  # a blank line is skipped, not a record
        if command == "simulate":
            assume(line.decode(errors="replace").split())  # a blank line takes no script
        mutated = [*lines[:k], line + b"\n", *lines[k + 1:]]
        (work / f"one_{name}").write_bytes(b"".join(mutated))
        runs = [main_on(f"w{workers}.jsonl", workers) for workers in worker_counts]
        code, reasons, out = runs[0]
        assert all(r == runs[0] for r in runs), runs
        if command == "eval":
            _check_eval(mutated, k, code, reasons, out)
            return
        assert (code, len(reasons)) in ((0, 0), (1, 1)), reasons
        if code == 1:  # a record, or a session, by its 1-based line
            assert reasons[0].startswith(f"line {k + 1} rejected: "), reasons
        if command == "stats":
            kept = [*lines[:k], *[line] * (1 - code), *lines[k + 1:]]
            table = corpus_stats_table(corpus_stats(from_record(json.loads(x)) for x in kept)) + "\n"
            assert out == table.encode()
            return
        if command == "simulate":
            if code == 1:  # a line with more words may need more rounds than its script has
                rejected = rf"line {k + 1} rejected: (script exhausted at round \d+|'utf-8' codec can't decode .*)"
                assert re.fullmatch(rejected, reasons[0]), reasons
            got, want = _sessions(out), _sessions(clean_out)
            assert (k in got) == (code == 0)
            assert {i: x for i, x in got.items() if i != k} == {i: x for i, x in want.items() if i != k}
            assert list(got) == sorted(got)
            return
        out, want = out.splitlines(keepends=True), clean_out.splitlines(keepends=True)
        assert len(out) == len(want) - code
        assert out[:k] == want[:k]
        assert out[k + 1 - code:] == want[k + 1:]
        records = [json.loads(x, parse_constant=reject_constant) for x in out]
        if code == 0:  # the line's own record
            assert records[k]["id"] == (k if command == "curate" else json.loads(line)["id"])

    run()
