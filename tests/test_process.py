"""The CLI run as a process: the `__main__` block of simultraj.cli, which ends
the process with os._exit once stdout and stderr are flushed.

Every process here runs under `python -I -B`: -I drops PYTHONPATH (src/ is put
on sys.path by hand) and PYTHONUNBUFFERED, so stdout is block-buffered and is
written only by the final flush.
"""

import ast
import errno
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from simultraj import cli
from simultraj.cli import main
from conftest import write_sim_case, write_toy_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs simultraj.cli's __main__ block as `python -m` does, on the arguments
# after src/, from a `python -I -B` process.
MAIN_BLOCK = (
    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "runpy.run_module('simultraj.cli', run_name='__main__')"
)

# Where stdout or stderr goes in a forked run: the run's own file (FILE), a
# device named by its path, no descriptor at all (None), or, for stderr only,
# UNSET: descriptor 2 closed at start, for which Python sets sys.stderr to None.
FILE, UNSET = "file", "unset"

# Runs each [argv, stdout, stderr] of a JSON list through the __main__ block in
# a process forked from this one, with each stream sent where it says (FILE for
# run i is the file <i>.<descriptor>), then prints the exit codes. The modules
# simultraj.cli imports are loaded once, before the first fork, so the matrix
# pays one interpreter start, not one per run.
FORKED_RUNS = """
import json, os, runpy, sys
sys.path.insert(0, sys.argv[1])
import simultraj.cli
del sys.modules["simultraj.cli"]  # runpy runs it afresh, as -m does
codes = []
for i, (argv, *sinks) in enumerate(json.loads(sys.argv[2])):
    pid = os.fork()
    if pid == 0:
        for fd, sink in enumerate(sinks, 1):
            if sink in (None, "unset"):
                os.close(fd)
            else:
                path = f"{i}.{fd}" if sink == "file" else sink
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
        if sinks[1] == "unset":
            sys.stderr = None
        sys.argv = ["simultraj", *argv]
        runpy.run_module("simultraj.cli", run_name="__main__")
        os._exit(99)  # the __main__ block returned
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(json.dumps(codes))
"""

CURATE = ["curate", "--src", "src.txt", "--tgt", "tgt.txt", "--out", "curated.jsonl", "--align"]
SIMULATE = ["simulate", "--model", "model.json", "--chunk", "3", "--out", "sim.jsonl", "--src"]
# id: (exit code, argv), run from the directory the `inputs` fixture fills.
PROCESS_CASES = {
    "curate-clean": (0, CURATE + ["align.txt"]),
    "curate-rejected": (1, CURATE + ["bad_align.txt"]),
    "curate-hard": (2, CURATE + ["short_align.txt"]),
    # A line that is not UTF-8 is one rejected record.
    "curate-non-utf8": (1, CURATE + ["align.txt", "--src", "non_utf8_src.txt"]),
    "augment-clean": (0, ["augment", "--in", "meta.jsonl", "--out", "aug.jsonl"]),
    "augment-rejected": (1, ["augment", "--in", "bad_meta.jsonl", "--out", "aug.jsonl"]),
    "augment-hard": (2, ["augment", "--in", "meta.jsonl", "--out", "meta.jsonl"]),
    # The input is opened before the output, which keeps its bytes.
    "augment-missing-input": (2, ["augment", "--in", "missing.jsonl", "--out", "keep.jsonl"]),
    # A pool, where one is allowed: it flushes stdout and stderr before it forks.
    "augment-workers": (0, ["augment", "--in", "meta.jsonl", "--out", "aug2.jsonl", "--workers", "2"]),
    "format-clean": (0, ["format", "--in", "meta.jsonl", "--out", "sft.jsonl"]),
    "format-rejected": (1, ["format", "--in", "bad_meta.jsonl", "--out", "sft.jsonl"]),
    "format-hard": (2, ["format", "--in", "meta.jsonl", "--template", "gpt9", "--out", "sft.jsonl"]),
    "stats-clean": (0, ["stats", "--in", "meta.jsonl"]),
    "stats-rejected": (1, ["stats", "--in", "bad_meta.jsonl"]),
    "stats-hard": (2, ["stats", "--in", "missing.jsonl"]),
    "simulate-clean": (0, SIMULATE + ["sim_src.txt"]),
    "simulate-rejected": (1, SIMULATE + ["blank_src.txt"]),
    # A script with no rounds list rejects its session; the other session runs.
    "simulate-rejected-script": (1, SIMULATE + ["sim_src.txt", "--model", "bad_model.json"]),
    # A model file one script short of the source lines.
    "simulate-hard": (2, SIMULATE + ["sim_src.txt", "--model", "short_model.json"]),
    "simulate-non-utf8": (1, SIMULATE + ["non_utf8_sim_src.txt"]),
    "eval-clean": (0, ["eval", "--events", "events.jsonl"]),
    # A line with no id rejects the run before it; the other run is reported.
    "eval-rejected": (1, ["eval", "--events", "bad_events.jsonl"]),
    "eval-hard": (2, ["eval", "--events", "missing.jsonl"]),
}
COMMANDS = ("curate", "augment", "format", "stats", "simulate", "eval")
# Where stderr goes in a boundary run, which runs a command's clean case: a
# device that takes no byte, or no descriptor at all (None).
STDERR_SINKS = {"stderr-full": "/dev/full", "stderr-closed": None}
# argparse's own output, id: (argv, stdout, stderr), each run once with both
# streams writable and once with the one it writes to on /dev/full.
ARGPARSE_CASES = {"help": (["stats", "-h"], "/dev/full", FILE),
                  "usage-error": (["stats", "--in", "meta.jsonl", "--bogus"], FILE, "/dev/full")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of tiny inputs for every case."""
    work = tmp_path_factory.mktemp("process")
    write_toy_corpus(work, n_pairs=3)
    lines = (work / "align.txt").read_text(encoding="utf-8").splitlines()
    (work / "bad_align.txt").write_text("\n".join(lines[:2] + ["0-99"]) + "\n", encoding="utf-8")
    (work / "short_align.txt").write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    src_lines = (work / "src.txt").read_bytes().splitlines(keepends=True)
    (work / "non_utf8_src.txt").write_bytes(b"".join([src_lines[0], b"\xff" + src_lines[1], *src_lines[2:]]))
    meta = work / "meta.jsonl"
    assert main(["curate", "--src", str(work / "src.txt"), "--tgt", str(work / "tgt.txt"),
                 "--align", str(work / "align.txt"), "--out", str(meta)]) == 0
    (work / "keep.jsonl").write_bytes(b"keep")
    (work / "bad_meta.jsonl").write_text(meta.read_text(encoding="utf-8") + "[1, 2]\n", encoding="utf-8")
    sim_src, model, scripts = write_sim_case(work, 2)
    (work / "blank_src.txt").write_text("\n" + sim_src.read_text(encoding="utf-8"), encoding="utf-8")
    (work / "non_utf8_sim_src.txt").write_bytes(b"\xff" + sim_src.read_bytes())
    (work / "bad_model.json").write_text(json.dumps([scripts[0], {"beams": []}]), encoding="utf-8")
    (work / "short_model.json").write_text(json.dumps(scripts[:1]), encoding="utf-8")
    assert main(["simulate", "--src", str(sim_src), "--model", str(model), "--chunk", "3",
                 "--out", str(work / "events.jsonl")]) == 0
    (work / "bad_events.jsonl").write_text((work / "events.jsonl").read_text(encoding="utf-8") + "[1, 2]\n",
                                           encoding="utf-8")
    return work


@pytest.fixture(scope="module")
def process_runs(inputs):
    """(exit code, stdout, stderr) of every run, each from its own process;
    a stream that went to no file of the run's own reads None. The runs:
    each case, under its id, and again without sys.stderr, under (id, UNSET);
    each boundary run, under (command, sink id); each argparse case, under
    its id with writable streams, and under (id, "/dev/full")."""
    if not hasattr(os, "fork"):
        pytest.skip("the cases run in forked processes")
    runs = {case: (argv, FILE, FILE) for case, (_, argv) in PROCESS_CASES.items()}
    runs.update({(case, UNSET): (argv, FILE, UNSET) for case, (_, argv) in PROCESS_CASES.items()})
    for command, sink in product(COMMANDS, STDERR_SINKS):
        path = STDERR_SINKS[sink]
        if path is None or os.path.exists(path):
            runs[command, sink] = (PROCESS_CASES[f"{command}-clean"][1], FILE, path)
    for case, (argv, out, err) in ARGPARSE_CASES.items():
        runs[case] = (argv, FILE, FILE)
        if os.path.exists("/dev/full"):
            runs[case, "/dev/full"] = (argv, out, err)
    result = subprocess.run([sys.executable, "-I", "-B", "-c", FORKED_RUNS, str(SRC), json.dumps([*runs.values()])],
                            cwd=inputs, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and not result.stderr, result.stderr
    return {run: (code, *((inputs / f"{i}.{fd}").read_text(encoding="utf-8") if sink == FILE else None
                          for fd, sink in enumerate(runs[run][1:], 1)))
            for i, (run, code) in enumerate(zip(runs, json.loads(result.stdout)))}


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_process_exit_code_and_output_match_main(inputs, process_runs, case, capsys, monkeypatch):
    expected, argv = PROCESS_CASES[case]
    code, out, err = process_runs[case]
    assert code == expected, err
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    monkeypatch.chdir(inputs)
    capsys.readouterr()
    assert main(argv) == expected
    # eval and stats print their report; every stage prints its config and reasons.
    assert (out, err) == capsys.readouterr()


@pytest.mark.parametrize("case, reason", [
    ("curate-non-utf8", "line 2 rejected: "),
    ("simulate-non-utf8", "line 1 rejected: "),
])
def test_non_utf8_line_is_one_rejection(process_runs, case, reason):
    code, _, err = process_runs[case]
    assert code == 1
    assert err.splitlines()[1:] == [reason + "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]


def test_eval_rejects_the_run_that_a_line_without_id_ends(inputs, process_runs):
    lines = (inputs / "events.jsonl").read_text(encoding="utf-8").splitlines()
    first = [json.loads(line)["id"] for line in lines].index(1) + 1  # run 1's first line
    code, out, err = process_runs["eval-rejected"]
    assert err.splitlines()[1:] == [f"line {first} rejected: event line {len(lines) + 1}: not an object"]
    assert json.loads(out.splitlines()[0])["runs"] == 1


def test_missing_input_leaves_the_output_as_it_was(inputs, process_runs):
    code, out, err = process_runs["augment-missing-input"]
    assert (code, out) == (2, "")
    assert err.splitlines()[1:] == ["error: [Errno 2] No such file or directory: 'missing.jsonl'"]
    assert (inputs / "keep.jsonl").read_bytes() == b"keep"


@pytest.mark.parametrize("sink", STDERR_SINKS)
@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_stderr_is_a_hard_error(process_runs, command, sink):
    """The resolved config cannot be printed, nor then the error: exit 2 with
    nothing on stdout, as for any other hard error."""
    if (command, sink) not in process_runs:
        pytest.skip(f"no {STDERR_SINKS[sink]}")
    code, out, _ = process_runs[command, sink]
    assert (code, out) == (2, "")


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_no_stderr_leaves_stdout_and_exit_code_as_they_are(process_runs, case):
    """Without sys.stderr, print would write the resolved config, the rejection
    reasons and the error line to stdout. They are dropped instead, and the
    exit code still comes from the data."""
    code, out, _ = process_runs[case]
    assert process_runs[case, UNSET][:2] == (code, out)


@pytest.mark.parametrize("case", ARGPARSE_CASES)
def test_unwritable_argparse_output_is_a_hard_error(process_runs, case):
    """argparse writes -h and usage errors itself, then raises SystemExit; the
    failed write shows only when its buffered text is flushed."""
    if (case, "/dev/full") not in process_runs:
        pytest.skip("no /dev/full")
    code, out, err = process_runs[case]
    if case == "help":
        assert (code, err) == (0, "") and out.startswith("usage: simultraj stats")
        full = (2, None, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    else:
        assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --bogus\n")
        full = (2, "", None)  # a traceback could only show on stdout
    assert process_runs[case, "/dev/full"] == full


def test_main_in_process_never_ends_the_process(tmp_path, monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called from main")

    monkeypatch.setattr(os, "_exit", refuse)
    write_toy_corpus(tmp_path, n_pairs=3)
    out = tmp_path / "meta.jsonl"
    argv = ["curate", "--src", str(tmp_path / "src.txt"), "--tgt", str(tmp_path / "tgt.txt"), "--out", str(out)]
    assert main(argv + ["--align", str(tmp_path / "align.txt")]) == 0
    out.write_text("[1, 2]\n", encoding="utf-8")
    assert main(["format", "--in", str(out), "--out", str(tmp_path / "sft.jsonl")]) == 1
    assert main(["stats", "--in", str(tmp_path / "missing.jsonl")]) == 2


class Exited(Exception):
    pass


def test_process_started_without_stdout_exits_clean(inputs, monkeypatch):
    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.chdir(inputs)
    monkeypatch.setattr(sys, "argv", ["simultraj", *PROCESS_CASES["stats-clean"][1]])
    monkeypatch.setattr(sys, "stdout", None)  # as when descriptor 1 is closed at start
    with pytest.raises(Exited) as exited:
        cli.process_main()
    assert exited.value.args == (0,)


def test_console_script_runs_the_main_block_function():
    tomllib = pytest.importorskip("tomllib")
    tree = ast.parse((SRC / "simultraj" / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [statement] = block.body
    call = statement.value
    assert isinstance(call, ast.Call) and not call.args, ast.unparse(statement)
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"simultraj": f"simultraj.cli:{call.func.id}"}


def spawn_main_block(argv, stdout, cwd=None):
    return subprocess.Popen([sys.executable, "-I", "-B", "-c", MAIN_BLOCK, str(SRC), *argv],
                            cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True)


# Where stdout goes, and the errno of the final flush there.
BROKEN_STDOUT = {"closed-pipe": errno.EPIPE, "/dev/full": errno.ENOSPC}


def test_failed_final_flush_is_a_hard_error(inputs):
    """The report of eval and stats is lost at the final flush: exit 2 with one
    error line. The processes run at once; `simulate -h` still exits 0."""
    procs = {}
    for sink in BROKEN_STDOUT:
        if sink == "/dev/full" and not os.path.exists(sink):
            continue
        for command in ("eval", "stats"):
            argv = PROCESS_CASES[f"{command}-clean"][1]
            if sink == "closed-pipe":
                proc = spawn_main_block(argv, subprocess.PIPE, inputs)
                proc.stdout.close()  # before the process writes its report
            else:
                with open(sink, "wb") as stdout:
                    proc = spawn_main_block(argv, stdout, inputs)
            procs[command, sink] = proc
    usage = spawn_main_block(["simulate", "-h"], subprocess.PIPE)
    for (command, sink), proc in procs.items():
        err = proc.communicate(timeout=60)[1]
        config, *rest = err.splitlines()
        code = BROKEN_STDOUT[sink]
        assert config.startswith(f"{command} resolved config: "), (sink, err)
        assert (proc.returncode, rest) == (2, [f"error: [Errno {code}] {os.strerror(code)}"]), (sink, err)
    out, err = usage.communicate(timeout=60)
    assert (usage.returncode, err) == (0, "")
    assert out.startswith("usage: simultraj simulate")
