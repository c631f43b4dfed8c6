import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from simultraj import cli, jsonl
from simultraj.cli import build_parser, main
from simultraj.jsonl import decode_line
from simultraj.metrics import corpus_stats, corpus_stats_table
from simultraj.trajectory import from_record
from conftest import write_sim_case, write_toy_corpus

SRC = Path(__file__).resolve().parent.parent / "src"


def test_pipeline_config_defaults():
    parser = build_parser()
    aug = parser.parse_args(["augment", "--in", "i", "--out", "o"])
    assert (aug.delta_min, aug.delta_max, aug.beta, aug.rho_min) == (2, 10, 0.5, 0.5)
    sim = parser.parse_args(["simulate", "--src", "s", "--model", "m", "--out", "o"])
    assert sim.beam == 5
    assert sim.gamma == 0.6
    assert parser.parse_args(["format", "--in", "i", "--out", "o"]).template == "llama2"
    assert sim.prompt == "conversational"


def curate(tmp_path, out_name="meta.jsonl", n_pairs=2, seed=0):
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs, seed)
    out = tmp_path / out_name
    code = main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(out)])
    return code, out


def test_curate_two_line_corpus(tmp_path):
    code, out = curate(tmp_path)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["id"] for line in lines] == [0, 1]


@pytest.mark.parametrize("name", ["src", "tgt", "align"])
@pytest.mark.parametrize("change", ["short", "short-no-eol", "long", "long-no-eol"])
def test_curate_mismatched_line_counts_is_hard_error(tmp_path, capsys, name, change):
    # One file of three pairs loses its last line or gains a fourth, with or
    # without a newline after its new last line.
    paths = dict(zip(["src", "tgt", "align"], write_toy_corpus(tmp_path, n_pairs=3)))
    lines = paths[name].read_text(encoding="utf-8").splitlines()
    lines = lines[:-1] if change.startswith("short") else lines + ["0-0" if name == "align" else "extra"]
    end = "" if change.endswith("no-eol") else "\n"
    paths[name].write_text("\n".join(lines) + end, encoding="utf-8")
    argv = ["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(tmp_path / "x.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    record = 2 if change.startswith("short") else 3
    assert err.endswith(
        f"error: line count mismatch among {paths['src']}, {paths['tgt']}, {paths['align']} at record {record}\n")
    assert "Traceback" not in err


def test_curate_last_line_without_newline(tmp_path):
    (tmp_path / "s").write_text("a b\nc d", encoding="utf-8")
    (tmp_path / "t").write_text("x\ny", encoding="utf-8")
    (tmp_path / "a").write_text("0-0\n1-0", encoding="utf-8")
    out = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(tmp_path / "s"), "--tgt", str(tmp_path / "t"),
                 "--align", str(tmp_path / "a"), "--out", str(out)]) == 0
    assert [json.loads(line)["chunks"][0]["write"] for line in out.read_text(encoding="utf-8").splitlines()] == [
        ["x"], ["y"]]


def test_curate_empty_alignment_single_chunk(tmp_path):
    (tmp_path / "s").write_text("a b c\n", encoding="utf-8")
    (tmp_path / "t").write_text("x y\n", encoding="utf-8")
    (tmp_path / "a").write_text("\n", encoding="utf-8")
    out = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(tmp_path / "s"), "--tgt", str(tmp_path / "t"),
                 "--align", str(tmp_path / "a"), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert len(record["chunks"]) == 1
    assert record["chunks"][0]["read"] == ["a", "b", "c"]
    assert record["chunks"][0]["write"] == ["x", "y"]


def test_curate_rejects_bad_record_nonzero_exit(tmp_path, capsys):
    (tmp_path / "s").write_text("a b\nc\n", encoding="utf-8")
    (tmp_path / "t").write_text("x\ny\n", encoding="utf-8")
    (tmp_path / "a").write_text("9-9\n0-0\n", encoding="utf-8")
    out = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(tmp_path / "s"), "--tgt", str(tmp_path / "t"),
                 "--align", str(tmp_path / "a"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "record 0 rejected" in err
    # the good record still goes through
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


def test_curate_debug_keeps_indices(tmp_path):
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20)
    out = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                 "--out", str(out), "--debug"]) == 0
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert record["indices"][0]["read"][0] == 1
    augmented = tmp_path / "aug.jsonl"
    assert main(["augment", "--in", str(out), "--out", str(augmented), "--debug"]) == 0
    merged = 0
    for meta_line, line in zip(out.read_text(encoding="utf-8").splitlines(),
                               augmented.read_text(encoding="utf-8").splitlines(), strict=True):
        meta, record = json.loads(meta_line), json.loads(line)
        merged += len(record["chunks"]) < len(meta["chunks"])
        for rec, side in product((meta, record), ("read", "write")):
            # One 1-based position per word of each chunk, running through 1..I and 1..J in order.
            assert [len(c[side]) for c in rec["indices"]] == [len(c[side]) for c in rec["chunks"]]
            positions = [i for c in rec["indices"] for i in c[side]]
            assert positions == list(range(1, len(positions) + 1))
    assert merged > 0


def test_simulate_rejects_malformed_model_file(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    for model, message in (('{"beams": []}', "error: model file must hold a JSON list of scripts"),
                           ('[{"beams": []}]', "rounds"),
                           # A whole first script, then the end of the file where ',' or ']' belongs.
                           ('[{"rounds": [[["A","B"]]]}', "error: model file ends inside its script list")):
        (tmp_path / "model.json").write_text(model, encoding="utf-8")
        (tmp_path / "e.jsonl").write_text("old\n", encoding="utf-8")
        assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                     str(tmp_path / "model.json"), "--chunk", "2",
                     "--out", str(tmp_path / "e.jsonl")]) == 2
        assert message in capsys.readouterr().err
    assert (tmp_path / "e.jsonl").read_bytes() == b""  # no session is written before the list ends


def test_simulate_script_too_short_is_hard_error_naming_session(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\nc d e\n", encoding="utf-8")
    scripts = [{"rounds": [[["A", "B"]]]}, {"rounds": [[["C"]]]}]  # session 1 needs 2 rounds
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(tmp_path / "e.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "error: session 1: script exhausted at round 1" in err
    assert "Traceback" not in err


def test_augment_seed_repeatable(tmp_path):
    _, meta = curate(tmp_path, n_pairs=6, seed=3)
    out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
    for out in (out1, out2):
        assert main(["augment", "--in", str(meta), "--out", str(out), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_augment_prints_resolved_config(tmp_path, capsys):
    _, meta = curate(tmp_path)
    assert main(["augment", "--in", str(meta), "--out", str(tmp_path / "a.jsonl"), "--seed", "5"]) == 0
    err = capsys.readouterr().err
    assert '"delta_min": 2' in err
    assert '"delta_max": 10' in err
    assert '"beta": 0.5' in err
    assert '"rho_min": 0.5' in err
    assert '"seed": 5' in err


def test_format_golden_single_turn(tmp_path):
    (tmp_path / "s").write_text("Hallo\n", encoding="utf-8")
    (tmp_path / "t").write_text("Hello\n", encoding="utf-8")
    (tmp_path / "a").write_text("0-0\n", encoding="utf-8")
    meta = tmp_path / "meta.jsonl"
    sft = tmp_path / "sft.jsonl"
    assert main(["curate", "--src", str(tmp_path / "s"), "--tgt", str(tmp_path / "t"),
                 "--align", str(tmp_path / "a"), "--out", str(meta)]) == 0
    assert main(["format", "--in", str(meta), "--template", "llama2", "--system-msg", "",
                 "--out", str(sft)]) == 0
    record = json.loads(sft.read_text(encoding="utf-8"))
    assert record["text"] == "<s>[INST] Hallo [/INST] Hello</s>"
    start, end = record["loss_mask_spans"][0]
    assert record["text"][start:end] == "Hello"


def test_format_unknown_template_errors(tmp_path, capsys):
    _, meta = curate(tmp_path)
    capsys.readouterr()
    assert main(["format", "--in", str(meta), "--template", "gpt9", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: unknown template id 'gpt9' (known: llama2)"


def test_stats_prints_table(tmp_path, capsys):
    _, meta = curate(tmp_path, n_pairs=4, seed=9)
    assert main(["stats", "--in", str(meta)]) == 0
    out = capsys.readouterr().out
    assert "meta" in out
    assert "#chunk" in out


def test_stats_empty_file_errors(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "--in", str(empty)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == ["error: empty trajectory corpus"]


def test_eval_log_of_blank_lines_has_no_runs(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text("\n \n\t\n", encoding="utf-8")
    assert main(["eval", "--events", str(events)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[1:]) == ("", ["error: no runs in event log"])


def write_sim_inputs(tmp_path):
    (tmp_path / "sim_src.txt").write_text("w1 w2 w3 w4\n", encoding="utf-8")
    script = {"rounds": [[["A", "B"], ["A", "B"], ["A", "C"]],
                         [["D", "E"], ["D", "E"], ["D", "E"]]]}
    (tmp_path / "model.json").write_text(json.dumps([script]), encoding="utf-8")
    return tmp_path / "sim_src.txt", tmp_path / "model.json"


def test_simulate_ralcp_gamma_one_matches_lcp(tmp_path):
    src, model = write_sim_inputs(tmp_path)
    out_ralcp, out_lcp, out_lcp0 = tmp_path / "r.jsonl", tmp_path / "l.jsonl", tmp_path / "l0.jsonl"
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "ralcp", "--gamma", "1.0",
                 "--prompt", "conversational", "--out", str(out_ralcp)]) == 0
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "lcp", "--gamma", "1.0",
                 "--prompt", "conversational", "--out", str(out_lcp)]) == 0
    # lcp takes no gamma, so a gamma that ralcp rejects is accepted and ignored
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "lcp", "--gamma", "0", "--out", str(out_lcp0)]) == 0
    assert out_ralcp.read_bytes() == out_lcp.read_bytes() == out_lcp0.read_bytes()


@pytest.mark.parametrize("select, gamma, used", [("lcp", [], 1.0), ("greedy", ["--gamma", "0.3"], 1.0),
                                                 ("ralcp", ["--gamma", "0.3"], 0.3)])
def test_simulate_config_prints_the_gamma_the_run_uses(tmp_path, capsys, select, gamma, used):
    # LCP and greedy run at gamma 1.0, as the line shows the --workers N used.
    src, model = write_sim_inputs(tmp_path)
    assert main(["simulate", "--src", str(src), "--model", str(model), "--select", select, *gamma,
                 "--out", str(tmp_path / "events.jsonl")]) == 0
    config = capsys.readouterr().err.splitlines()[0]
    assert config.startswith("simulate resolved config: ")
    assert json.loads(config.split(": ", 1)[1])["gamma"] == used


def test_simulate_model_list_matches_source_lines(tmp_path):
    (tmp_path / "src.txt").write_text("a b\nc d e\n", encoding="utf-8")
    scripts = [
        {"rounds": [[["A", "B"]]]},
        {"rounds": [[["C"]], [["D", "E"]]]},
    ]
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in records] == [0, 1, 1]
    assert records[0]["committed_words"] == ["A", "B"]


def test_simulate_blank_line_rejected_and_ids_stay_line_numbers(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\n\nc d\n", encoding="utf-8")
    scripts = [{"rounds": [[["A", "B"]]]}, {"rounds": [[["C", "D"]]]}]  # one per non-blank line
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["id"], r["committed_words"]) for r in records] == [(0, ["A", "B"]), (2, ["C", "D"])]
    assert "session 1 rejected: blank source line" in capsys.readouterr().err


@pytest.mark.parametrize("script, reason", [
    ({"rounds": [5]}, "'int' object is not iterable"),
    ({"rounds": [[5]]}, "a candidate is a int, not a list of words"),
    ({"rounds": [[["A", 1]]]}, "sequence item 1: expected str instance, int found"),
    ({"beams": []}, "scripted model needs a 'rounds' list of beam candidate lists"),
    # a candidate given as a string, not a list of words
    ({"rounds": [["AB"]]}, "a candidate is a str, not a list of words"),
    # a bad word in a candidate never committed
    ({"rounds": [[["C", "D"], ["X", 2]]]}, "sequence item 1: expected str instance, int found"),
    # a word that the UTF-8 event log cannot hold
    ({"rounds": [[["C", "\ud800"]]]}, "'utf-8' codec can't encode character '\\ud800' in position 2: "
                                       "surrogates not allowed"),
], ids=[f"script{i}" for i in range(7)])
def test_simulate_malformed_script_is_hard_error_naming_session(tmp_path, capsys, script, reason):
    (tmp_path / "src.txt").write_text("a b\nc d\n", encoding="utf-8")
    scripts = [{"rounds": [[["A", "B"]]]}, script]
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(tmp_path / "e.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"\nerror: session 1: malformed model script: {reason}\n" in err
    assert "Traceback" not in err


def test_simulate_model_list_length_mismatch_errors(tmp_path):
    (tmp_path / "src.txt").write_text("a b\nc d\n", encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps([{"rounds": [[["A"]]]}]), encoding="utf-8")
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2",
                 "--out", str(tmp_path / "e.jsonl")]) == 2


def test_eval_csv_output(tmp_path, capsys):
    src, model = write_sim_inputs(tmp_path)
    events = tmp_path / "events.jsonl"
    csv_path = tmp_path / "report.csv"
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "greedy", "--out", str(events)]) == 0
    assert main(["eval", "--events", str(events), "--cost-recompute", "1.0",
                 "--cost-word", "1.0", "--csv", str(csv_path)]) == 0
    header, values = csv_path.read_text(encoding="utf-8").splitlines()
    assert header.split(",")[0] == "runs"
    assert values.split(",")[0] == "1"


def test_simulate_then_eval(tmp_path, capsys):
    src, model = write_sim_inputs(tmp_path)
    events = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "greedy", "--out", str(events)]) == 0
    assert main(["eval", "--events", str(events), "--cost-recompute", "1.0",
                 "--cost-word", "0.5"]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.splitlines()[0])
    assert line["runs"] == 1
    assert line["recompute_total_conversational"] <= line["recompute_total_offline"]
    assert "WWT (simulated" in out


def test_eval_one_word_session_lags_one_word(tmp_path, capsys):
    # I = 1: tau is the first target word, so AL is 1 for any number of target words.
    (tmp_path / "src.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps([{"rounds": [[["X", "Y", "Z"]]]}]), encoding="utf-8")
    events = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model", str(tmp_path / "model.json"),
                 "--chunk", "1", "--beam", "1", "--select", "greedy", "--out", str(events)]) == 0
    assert main(["eval", "--events", str(events)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["al_mean"] == 1.0


def test_simulate_unknown_select_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--src", "s", "--model", "m", "--out", "o", "--select", "beam"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "simultraj simulate: error: argument --select: invalid choice: 'beam' "
        "(choose from 'lcp', 'ralcp', 'greedy')\n")


def two_usable_cpus(monkeypatch):
    """Cap --workers at 2 on any host, so --workers 2 and above run a pool of two processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_workers_do_not_change_output(tmp_path, capsys, monkeypatch, no_leftover_children):
    two_usable_cpus(monkeypatch)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    outs = []
    for workers, name, used in [(1, "w1", 1), (4, "w4", 2)]:
        meta = tmp_path / f"meta_{name}.jsonl"
        aug = tmp_path / f"aug_{name}.jsonl"
        assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                     "--out", str(meta), "--workers", str(workers)]) == 0
        assert main(["augment", "--in", str(meta), "--out", str(aug), "--seed", "11",
                     "--workers", str(workers)]) == 0
        assert capsys.readouterr().err.count(f'"workers": {used}') == 2
        outs.append((meta.read_bytes(), aug.read_bytes()))
    assert outs[0] == outs[1]


def _with_bad_lines(path, at):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in sorted(at, reverse=True):
        lines.insert(i, "[1, 2]")
    bad = path.with_name("bad_" + path.name)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def test_workers_match_serial_across_batches(tmp_path, capsys, monkeypatch, no_leftover_children):
    monkeypatch.setattr(cli, "PMAP_BATCH", 3)
    two_usable_cpus(monkeypatch)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    lines = align.read_text(encoding="utf-8").splitlines()
    for i in (1, 8, 14):  # out-of-range links: rejected records in three batches
        lines[i] = "99-99"
    align.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(workers):
        meta, aug, sft = (tmp_path / f"{name}{workers}.jsonl" for name in ("meta", "aug", "sft"))
        codes = [main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                       "--out", str(meta), "--workers", workers])]
        codes.append(main(["augment", "--in", str(_with_bad_lines(meta, (2, 10))), "--out", str(aug),
                           "--seed", "11", "--workers", workers]))
        codes.append(main(["format", "--in", str(_with_bad_lines(aug, (4, 13))), "--out", str(sft),
                           "--workers", workers]))
        err = capsys.readouterr().err.splitlines()
        assert sum(f'"workers": {workers}' in line for line in err) == 3
        return codes, [p.read_bytes() for p in (meta, aug, sft)], [line for line in err if "rejected" in line]

    serial = run("1")
    assert serial[0] == [1, 1, 1]
    assert [line.split(":")[0] for line in serial[2][:3]] == [
        "record 1 rejected", "record 8 rejected", "record 14 rejected"]
    assert len(serial[2]) == 7
    assert run("2") == serial


def test_pmap_reads_a_bounded_window_ahead(monkeypatch, no_leftover_children):
    monkeypatch.setattr(cli, "PMAP_BATCH", 3)
    pulled = 0

    def numbers():
        nonlocal pulled
        for i in range(100):
            pulled += 1
            yield -i

    results = cli._pmap(abs, numbers(), 2)
    assert next(results) == 0
    assert pulled <= (2 + 1) * 3  # a batch for each worker, and the next one
    assert list(results) == list(range(1, 100))


@pytest.mark.parametrize("kept", [19, 18], ids=["mid-batch", "batch-boundary"])
def test_input_error_writes_same_records_with_workers(tmp_path, capsys, monkeypatch, no_leftover_children, kept):
    monkeypatch.setattr(cli, "PMAP_BATCH", 3)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    lines = align.read_text(encoding="utf-8").splitlines()
    # 18 lines end on a whole batch, so the error comes when no item is pending.
    align.write_text("\n".join(lines[:kept]) + "\n", encoding="utf-8")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"meta{workers}.jsonl"
        assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                     "--out", str(out), "--workers", workers]) == 2
        assert "line count mismatch" in capsys.readouterr().err
        outs.append(out.read_bytes())
    assert len(outs[0].splitlines()) == kept
    assert outs[1] == outs[0]


AT_LEAST_1 = "must be at least 1, got "
FINITE = "must be finite and at least 0, got "


@pytest.mark.parametrize(
    "argv, message",
    [(["curate", "--src", "s", "--tgt", "t", "--align", "a", "--out", "o", "--workers", "0"], AT_LEAST_1 + "0"),
     (["augment", "--in", "i", "--out", "o", "--workers", "-1"], AT_LEAST_1 + "-1"),
     (["format", "--in", "i", "--out", "o", "--workers", "0"], AT_LEAST_1 + "0"),
     (["simulate", "--src", "s", "--model", "m", "--out", "o", "--chunk", "0"], AT_LEAST_1 + "0"),
     (["simulate", "--src", "s", "--model", "m", "--out", "o", "--beam", "-1"], AT_LEAST_1 + "-1"),
     (["eval", "--events", "e", "--cost-recompute", "nan"], FINITE + "nan"),
     (["eval", "--events", "e", "--cost-recompute", "-5"], FINITE + "-5"),
     (["eval", "--events", "e", "--cost-word", "inf"], FINITE + "inf"),
     (["simulate", "--src", "s", "--model", "m", "--out", "o", "--gamma", "-1"], FINITE + "-1"),
     (["simulate", "--src", "s", "--model", "m", "--out", "o", "--gamma", "NaN"], FINITE + "NaN"),
     (["augment", "--in", "i", "--out", "o", "--beta", "inf"], FINITE + "inf"),
     (["augment", "--in", "i", "--out", "o", "--rho-min", "-1"], FINITE + "-1")],
    ids=["curate-0", "augment-negative", "format-0", "simulate-chunk-0", "simulate-beam-negative",
         "eval-cost-recompute-nan", "eval-cost-recompute-negative", "eval-cost-word-inf",
         "simulate-gamma-negative", "simulate-gamma-nan", "augment-beta-inf",
         "augment-rho-min-negative"],
)
def test_workers_must_be_positive(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: {message}\n" in err
    assert "resolved config" not in err


def _fails_on_record_7(monkeypatch, fail):
    """Make curate call fail() on record 7, in batch 2 of three records each."""
    monkeypatch.setattr(cli, "PMAP_BATCH", 3)
    curate_record = cli._curate_record

    def curate_or_fail(item, debug):
        if item[0] == 7:
            fail()
        return curate_record(item, debug)

    monkeypatch.setattr(cli, "_curate_record", curate_or_fail)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_worker_exception_leaves_main_as_in_serial(tmp_path, monkeypatch, workers, no_leftover_children):
    two_usable_cpus(monkeypatch)

    def fail():
        raise KeyError("record 7")

    _fails_on_record_7(monkeypatch, fail)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    with pytest.raises(KeyError, match="record 7"):
        main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
              "--out", str(tmp_path / "meta.jsonl"), "--workers", workers])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="record 7 would end the test process itself")
def test_dead_worker_is_a_hard_error(tmp_path, capsys, monkeypatch, no_leftover_children):
    two_usable_cpus(monkeypatch)
    _fails_on_record_7(monkeypatch, lambda: os._exit(3))
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    out = tmp_path / "meta.jsonl"

    def hung(signum, frame):
        pytest.fail("the stage waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                     "--out", str(out), "--workers", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "exited without sending its results" in capsys.readouterr().err
    assert len(out.read_text(encoding="utf-8").splitlines()) == 6  # batches 0 and 1


def test_workers_import_no_pool_modules(tmp_path):
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    script = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); os.sched_getaffinity = lambda pid: {0, 1}; "
        "from simultraj.cli import main; code = main(sys.argv[2:]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", script, str(SRC), "curate", "--src", str(src), "--tgt", str(tgt),
         "--align", str(align), "--out", str(tmp_path / "meta.jsonl"), "--workers", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert '"workers": 2' in result.stderr
    assert result.stdout == "0 []\n"


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_workers_are_capped_at_usable_cpus(tmp_path, capsys, monkeypatch, affinity, no_leftover_children):
    forks = []  # processes forked by each run
    fork = os.fork

    def counting_fork():
        forks[-1] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=5, seed=4)
    outs = []
    for workers in ("1", "2", "64"):
        forks.append(0)
        out = tmp_path / f"meta{workers}.jsonl"
        assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                     "--out", str(out), "--workers", workers]) == 0
        outs.append(out.read_bytes())
        assert f'"workers": {min(int(workers), 3)}' in capsys.readouterr().err
    assert forks == [0, 2, 3]
    assert outs[1] == outs[2] == outs[0]


def test_workers_run_serially_without_fork(tmp_path, capsys, monkeypatch):
    two_usable_cpus(monkeypatch)
    monkeypatch.delattr(os, "fork")
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=5, seed=4)
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                 "--out", str(tmp_path / "meta.jsonl"), "--workers", "2"]) == 0
    assert '"workers": 1' in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_eval_without_commits_prints_strict_json(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps([{"rounds": [[[]]]}]), encoding="utf-8")
    events = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(events)]) == 0
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--events", str(events), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.splitlines()[0], parse_constant=_reject_constant)
    assert line["al_mean"] is None
    assert line["wwt_simulated_mean_conversational"] is None
    assert line["wwt_simulated_mean_offline"] is None
    assert line["runs"] == 1
    assert "n/a" in out
    assert "nan" not in out.lower()
    assert csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")[1:4] == ["", "", ""]


GOOD_META = {"id": 7, "provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]}


def stats_table(*records):
    """What stats prints for records: the table of their trajectories."""
    return corpus_stats_table(corpus_stats(map(from_record, records))) + "\n"


def _chunks(*chunks):
    return {"id": 0, "provenance": "meta", "chunks": list(chunks)}


@pytest.mark.parametrize(
    "bad, reason",
    [
        ([1, 2], "record is not a JSON object"),
        ("meta", "record is not a JSON object"),
        ({"id": 0, "provenance": "meta", "chunks": 5}, "record 0: chunks is not a list"),
        (_chunks(5), "record 0: chunk 0 is not an object"),
        (_chunks({"read": [1], "write": ["x"], "shifted": 0}), "record 0: chunk 0 read is not a list of strings"),
        (_chunks({"read": ["a"], "write": "x", "shifted": 0}), "record 0: chunk 0 write is not a list of strings"),
        (_chunks({"read": ["a"], "write": ["x"], "shifted": "0"}), "record 0: chunk 0 shifted '0' is not an integer"),
        (_chunks({"read": ["a"], "write": ["x"], "shifted": True}), "record 0: chunk 0 shifted True is not an integer"),
        (_chunks({"read": ["a"], "write": ["x"], "shifted": 0}, {"read": ["b"], "write": ["y", 3], "shifted": 0}),
         "record 0: chunk 1 write is not a list of strings"),
        (_chunks({"read": ["a", "b c"], "write": ["x"], "shifted": 0}),
         "record 0: bad source word 'b c' (empty or contains whitespace)"),
        (_chunks({"read": ["a"], "write": ["x"], "shifted": 0}, {"read": ["b"], "write": [""], "shifted": 0}),
         "record 0: bad target word '' (empty or contains whitespace)"),
        ({"id": "0", "provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
         "record id '0' is not an integer"),
        ({"provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
         "record id None is not an integer"),
        ({"id": 0, "provenance": "raw", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
         "record 0: unknown provenance 'raw'"),
        (_chunks({"write": ["x"], "shifted": 0}), "record 0: chunk 0 read is not a list of strings"),
        # Every chunk is checked before any word's text: chunk 1's fault is named first.
        (_chunks({"read": ["b c"], "write": ["x"], "shifted": 0}, 5), "record 0: chunk 1 is not an object"),
        (_chunks({"read": [1], "write": ["x"], "shifted": 0}, 5), "record 0: chunk 0 read is not a list of strings"),
        # A chunk with no shifted key is accepted (shifted 0): chunk 1's fault is named.
        (_chunks({"read": ["a"], "write": ["x"]}, {"read": ["b"], "write": ["y", 3], "shifted": 0}),
         "record 0: chunk 1 write is not a list of strings"),
    ],
    ids=["list", "string", "chunks-int", "chunk-int", "read-int", "write-string", "shifted-string",
         "shifted-bool", "write-int-chunk-1", "word-with-space", "word-empty", "id-string", "no-id",
         "unknown-provenance", "no-read", "word-with-space-then-chunk-int", "read-int-then-chunk-int",
         "no-shifted-then-write-int"],
)
def test_malformed_record_rejected_and_run_goes_on(tmp_path, capsys, bad, reason):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    for command in ("augment", "format", "stats"):
        out = tmp_path / f"{command}.jsonl"
        argv = [command, "--in", str(src)] + ([] if command == "stats" else ["--out", str(out)])
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert f"\nrecord rejected: {reason}\n" in err
        assert "Traceback" not in err
        if command == "stats":
            assert stdout == stats_table(GOOD_META)
            continue
        (line,) = out.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["id"] == 7


def assert_format_rejects(tmp_path, capsys, bad, reason):
    """format rejects bad with reason (exit 1) and still writes GOOD_META."""
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    out = tmp_path / "sft.jsonl"
    assert main(["format", "--in", str(src), "--out", str(out)]) == 1
    assert f"record 0 rejected: {reason}" in capsys.readouterr().err
    (line,) = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["id"] == 7


def assert_augment_rejects(tmp_path, capsys, monkeypatch, bad, reason):
    """augment rejects bad with reason (exit 1) and writes GOOD_META's record,
    with the same bytes and lines at --workers 1 and 2."""
    two_usable_cpus(monkeypatch)
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"aug{workers}.jsonl"
        assert main(["augment", "--in", str(src), "--out", str(out), "--workers", workers]) == 1
        err = capsys.readouterr().err.splitlines()
        assert f'"workers": {workers}' in err[0]
        runs.append((out.read_bytes(), err[1:]))
    assert runs[0][1] == [f"record 0 rejected: {reason}"]
    assert [json.loads(line)["id"] for line in runs[0][0].splitlines()] == [7]
    assert runs[1] == runs[0]


def test_augment_rejects_a_record_that_is_not_meta(tmp_path, capsys, monkeypatch, no_leftover_children):
    bad = {"id": 0, "provenance": "merged+shifted", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]}
    assert_augment_rejects(tmp_path, capsys, monkeypatch, bad, "provenance 'merged+shifted' is not meta")


def test_augment_names_verify_problems_before_provenance(tmp_path, capsys, monkeypatch, no_leftover_children):
    # Every stage reads a record through one reader, which verifies it: a record
    # that is not meta and is unsound is rejected for its verify problems.
    bad = {"id": 0, "provenance": "merged", "chunks": [{"read": ["a"], "write": [], "shifted": 0},
                                                       {"read": ["b"], "write": ["c"], "shifted": 0}]}
    assert_augment_rejects(tmp_path, capsys, monkeypatch, bad, "empty write @chunk 0")


def test_augment_rejects_a_meta_record_that_fails_verify(tmp_path, capsys, monkeypatch, no_leftover_children):
    # Merging would hide the empty write: the input is verified before it.
    bad = _chunks({"read": ["a"], "write": [], "shifted": 0}, {"read": ["b"], "write": ["c"], "shifted": 0})
    assert_augment_rejects(tmp_path, capsys, monkeypatch, bad, "empty write @chunk 0")


def _drops_last_chunk_of_record_1(fn):
    """fn, except that record 1's trajectory loses its last chunk and so covers
    neither side: a fault of the code, which no input makes."""
    def unsound(*args):
        traj = fn(*args)
        return traj._replace(chunks=traj.chunks[:-1]) if traj.pair_id == 1 else traj
    return unsound


@pytest.mark.parametrize("stage, name", [("curate", "build_meta"), ("augment", "augment_pipeline")])
def test_unsound_result_is_rejected_and_other_records_written(tmp_path, capsys, monkeypatch,
                                                              no_leftover_children, stage, name):
    two_usable_cpus(monkeypatch)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=5, seed=4)
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(meta)]) == 0
    inputs = ["--src", str(src), "--tgt", str(tgt), "--align", str(align)] if stage == "curate" else ["--in", str(meta)]
    clean = tmp_path / "clean.jsonl"
    assert main([stage, *inputs, "--out", str(clean)]) == 0
    lines = clean.read_bytes().splitlines(keepends=True)
    capsys.readouterr()
    monkeypatch.setattr(cli, name, _drops_last_chunk_of_record_1(getattr(cli, name)))
    for workers in ("1", "2"):
        out = tmp_path / f"{stage}{workers}.jsonl"
        assert main([stage, *inputs, "--out", str(out), "--workers", workers]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == ["record 1 rejected: source coverage violated; target coverage violated"]
        assert out.read_bytes() == b"".join(lines[:1] + lines[2:])


def assert_every_reader_rejects(tmp_path, capsys, bad, reason):
    """augment, format and stats each reject bad with the one reason line
    (exit 1) and go on with GOOD_META, the line after it."""
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    for command in ("augment", "format", "stats"):
        out = tmp_path / f"{command}.jsonl"
        argv = [command, "--in", str(src)] + ([] if command == "stats" else ["--out", str(out)])
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert err.splitlines()[1:] == [f"record 0 rejected: {reason}"]
        if command == "stats":
            assert stdout == stats_table(GOOD_META)
        else:
            assert [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()] == [7]


def test_stats_rejects_a_record_that_fails_verify(tmp_path, capsys):
    # stats used to count this record, an empty write averaged in, and exit 0.
    bad = _chunks({"read": ["a"], "write": [], "shifted": 0}, {"read": ["b"], "write": ["c"], "shifted": 0})
    assert_every_reader_rejects(tmp_path, capsys, bad, "empty write @chunk 0")


@pytest.mark.parametrize("bad", [
    # The loss mask of format's record skipped x, which no chunk before carried in.
    _chunks({"read": ["a"], "write": ["x", "y"], "shifted": 1}, {"read": ["b"], "write": ["z"], "shifted": 0}),
    # format wrote this record with "loss_mask_spans": [].
    {"id": 0, "provenance": "merged", "chunks": [{"read": ["a"], "write": ["x", "y"], "shifted": 2}]},
    {"id": 0, "provenance": "merged+shifted", "chunks": [{"read": ["a"], "write": ["x", "y"], "shifted": 1},
                                                         {"read": ["b"], "write": ["z"], "shifted": 1}]},
], ids=["meta", "merged", "merged+shifted-first-chunk"])
def test_shifted_prefix_only_where_shift_can_carry_one(tmp_path, capsys, bad):
    """Only shift carries words into a chunk, and never into the first one."""
    assert_every_reader_rejects(tmp_path, capsys, bad, "shifted prefix violated @chunk 0")


def test_merged_shifted_record_may_carry_a_prefix_after_its_first_chunk(tmp_path, capsys):
    good = {"id": 7, "provenance": "merged+shifted", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0},
                                                                {"read": ["b"], "write": ["y", "z"], "shifted": 1}]}
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert main(["format", "--in", str(src), "--out", str(tmp_path / "sft.jsonl")]) == 0
    assert main(["stats", "--in", str(src)]) == 0
    assert capsys.readouterr().out == stats_table(good)


def test_stats_of_only_rejected_records_is_an_empty_corpus(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    bad = _chunks({"read": ["a"], "write": [], "shifted": 0}, {"read": ["b"], "write": ["c"], "shifted": 0})
    src.write_text(json.dumps(bad) + "\n[1, 2]\n", encoding="utf-8")
    assert main(["stats", "--in", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[1:] == ["record 0 rejected: empty write @chunk 0",
                                    "record rejected: record is not a JSON object",
                                    "error: empty trajectory corpus"]


@pytest.mark.parametrize("shifted", [-3, 5])
def test_format_rejects_shifted_outside_write(tmp_path, capsys, shifted):
    bad = {"id": 0, "provenance": "merged+shifted",
           "chunks": [{"read": ["a"], "write": ["x", "y"], "shifted": shifted}]}
    assert_format_rejects(tmp_path, capsys, bad, "shifted prefix violated @chunk 0")


@pytest.mark.parametrize(
    "chunks, chunk",
    [
        ([{"read": [], "write": ["x"], "shifted": 0}, {"read": ["a", "b"], "write": ["y"], "shifted": 0}], 0),
        ([{"read": ["a"], "write": ["x"], "shifted": 0}, {"read": [], "write": ["y"], "shifted": 0},
          {"read": ["b", "c"], "write": ["z"], "shifted": 0}], 1),
    ],
    ids=["first", "middle"],
)
def test_format_rejects_chunk_that_reads_nothing(tmp_path, capsys, chunks, chunk):
    bad = {"id": 0, "provenance": "meta", "chunks": chunks}
    assert_format_rejects(tmp_path, capsys, bad, f"empty read @chunk {chunk}")


def test_eval_run_id_reappearing_is_hard_error(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\nc d e\n", encoding="utf-8")
    scripts = [{"rounds": [[["A", "B"]]]}, {"rounds": [[["C"]], [["D", "E"]]]}]
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    events = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(events)]) == 0
    lines = events.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == [0, 1, 1]
    events.write_text("\n".join([lines[1], lines[0], lines[2]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--events", str(events)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"\nerror: run id 0 follows run id 1 in {events}: run ids must ascend\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("ids, error", [
    ([-5, -3, 2**64], None),
    ([0, 2, 1], "run id 1 follows run id 2"),
    ([0, 1, 0], "run id 0 follows run id 1"),
])
def test_eval_run_ids_must_ascend(tmp_path, capsys, ids, error):
    """simulate writes its runs in ascending id order; eval holds no set of the
    ids it has seen, only the last one."""
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps({**GOOD_EVENT, "id": i}) + "\n" for i in ids), encoding="utf-8")
    code = main(["eval", "--events", str(events)])
    out, err = capsys.readouterr()
    if error is None:
        assert code == 0
        assert json.loads(out.splitlines()[0])["runs"] == 3
    else:
        assert code == 2
        assert err.endswith(f"\nerror: {error} in {events}: run ids must ascend\n")


@pytest.mark.parametrize("event, flags, error", [
    # Two finite WWTs whose sum is past the float range.
    ({}, ["--cost-word", "1.5e308"], "integer division result too large for a float"),
    # One infinite WWT.
    ({}, ["--cost-word", "1e308", "--cost-recompute", "1e308"], "run id 0: cannot convert Infinity to integer ratio"),
], ids=["sum-overflow", "infinite-wwt"])
def test_eval_float_overflow_is_hard_error_naming_the_run(tmp_path, capsys, event, flags, error):
    events = tmp_path / "events.jsonl"
    records = [{**GOOD_EVENT, **event}, {**GOOD_EVENT, **event, "id": 1}]
    events.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["eval", "--events", str(events), *flags]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[1:]) == ("", [f"error: {error}"])


@pytest.mark.parametrize("value", [2**53, 2**53 + 1, 10**400], ids=["2**53", "2**53+1", "10**400"])
@pytest.mark.parametrize("field", ["recompute_tokens_conversational", "recompute_tokens_offline",
                                   "cumulative_source_read"])
def test_eval_event_integers_are_at_most_2_53(tmp_path, capsys, field, value):
    """eval turns these counts into floats: up to 2**53 every integer converts
    exactly. Above it, the field is named, as by the other field checks, and
    not the float error it would cause."""
    events = tmp_path / "events.jsonl"
    records = [GOOD_EVENT, {**GOOD_EVENT, field: value, "id": 1}]
    events.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = main(["eval", "--events", str(events)])
    out, err = capsys.readouterr()
    if value == 2**53:
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["runs"] == 2
    else:
        assert (code, out, err.splitlines()[1:]) == (2, "", [f"error: event line 2: {field} is above 2**53"])


def test_eval_prompt_flag_is_a_usage_error(tmp_path, capsys):
    """eval reports both prompt modes, so it takes no --prompt."""
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps(GOOD_EVENT) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--events", str(events), "--prompt", "offline"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: simultraj ")
    assert err.endswith("simultraj: error: unrecognized arguments: --prompt offline\n")


GOOD_EVENT = {"id": 0, "round": 0, "read_words": ["a"], "candidates": [["A"]], "committed_words": ["A"],
              "recompute_tokens_conversational": 1, "recompute_tokens_offline": 1,
              "cumulative_source_read": 1}


@pytest.mark.parametrize(
    "bad, field",
    [
        ([1, 2], "not an object"),
        ("event", "not an object"),
        ({**GOOD_EVENT, "committed_words": "ab"}, "committed_words"),
        ({**GOOD_EVENT, "committed_words": ["A", 1]}, "committed_words"),
        ({**GOOD_EVENT, "id": "0"}, "id"),
        ({**GOOD_EVENT, "id": True}, "id"),
        ({k: v for k, v in GOOD_EVENT.items() if k != "cumulative_source_read"}, "cumulative_source_read"),
        ({**GOOD_EVENT, "recompute_tokens_offline": 1.5}, "recompute_tokens_offline"),
        ({**GOOD_EVENT, "recompute_tokens_conversational": None}, "recompute_tokens_conversational"),
        ({**GOOD_EVENT, "recompute_tokens_conversational": -5}, "recompute_tokens_conversational is below 0"),
        ({**GOOD_EVENT, "recompute_tokens_offline": -1}, "recompute_tokens_offline is below 0"),
        ({**GOOD_EVENT, "cumulative_source_read": 0}, "cumulative_source_read is below 1"),
        # Two bad fields: the first in field order is named.
        ({**GOOD_EVENT, "id": True, "cumulative_source_read": 0}, "id is not an integer"),
        # A bool is not an integer here, as for id.
        ({**GOOD_EVENT, "recompute_tokens_offline": False}, "recompute_tokens_offline is not an integer"),
        ({**GOOD_EVENT, "recompute_tokens_conversational": True}, "recompute_tokens_conversational is not an integer"),
        # A valid line that commits nothing is accepted.
        ({**GOOD_EVENT, "round": 1, "committed_words": []}, None),
        # So is each field at its least value, any greater integer id, and a key eval does not read.
        ({**GOOD_EVENT, "id": 2**64, "recompute_tokens_conversational": 0, "recompute_tokens_offline": 0,
          "cumulative_source_read": 1, "note": "x"}, None),
    ],
    ids=["list", "string", "words-string", "words-int", "id-string", "id-bool", "no-cumulative",
         "offline-float", "conversational-null", "conversational-negative", "offline-negative",
         "cumulative-zero", "id-bool-and-cumulative-zero", "offline-bool", "conversational-bool",
         "no-words-accepted", "least-values-accepted"],
)
def test_eval_rejects_malformed_event(tmp_path, capsys, bad, field):
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps(GOOD_EVENT) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
    code = main(["eval", "--events", str(events)])
    out, err = capsys.readouterr()
    if field is None:
        assert code == 0
        assert json.loads(out.splitlines()[0])["rounds_total"] == 2
    else:
        assert code == 2
        assert f"error: event line 3: {field}" in err
    assert "Traceback" not in err


GOOD_LINE = json.dumps(GOOD_EVENT).encode("utf-8")
# Lines built around one good JSON line. The readers read bytes, cut lines at
# b"\n" only, and decode each line before json reads it.
LINE_SHAPES = {
    "cut-short": lambda good: good[:-3] + b"\n",
    "extra-data": lambda good: good + b" x\n",
    "form-feed": lambda good: good + b"\x0c\n",  # whitespace that JSON does not allow
    "byte-order-mark": lambda good: b"\xef\xbb\xbf" + good + b"\n",
    "json-whitespace": lambda good: b"\t " + good + b" \r\n",
    "no-newline": lambda good: good,  # the last line
    "non-utf-8": lambda good: good[:5] + b"\xff" + good[5:] + b"\n",
    "lone-carriage-return": lambda good: good + b"\r" + good + b"\n",  # one line, not two
    "ideographic-space": lambda good: "\u3000\n".encode("utf-8"),  # not a blank line
}
# eval's error for the second line of an event file, per shape (None: no error).
EVENT_LINE_ERRORS = {
    "cut-short": "event line 2: Expecting value: char 187",
    "extra-data": "event line 2: Extra data: char 190",
    "form-feed": "event line 2: Extra data: char 189",
    "byte-order-mark": "event line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): char 0",
    "json-whitespace": None,
    "no-newline": None,
    "non-utf-8": "event line 2: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte",
    "lone-carriage-return": "event line 2: Extra data: char 190",
    "ideographic-space": "event line 2: Expecting value: char 0",
}


def _json_loads_error(line):
    """What json.loads makes of the decoded line: None, or its error."""
    try:
        json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        return exc
    return None


@pytest.mark.parametrize("shape", LINE_SHAPES)
def test_eval_reads_each_event_line_as_json_loads_does(tmp_path, capsys, shape):
    line, error = LINE_SHAPES[shape](GOOD_LINE), EVENT_LINE_ERRORS[shape]
    events = tmp_path / "events.jsonl"
    events.write_bytes(GOOD_LINE + b"\n" + line)
    code = main(["eval", "--events", str(events)])
    err = capsys.readouterr().err
    exc = _json_loads_error(line)
    if exc is None:
        assert (error, code) == (None, 0)
    else:
        reason = f"{exc.msg}: char {exc.pos}" if isinstance(exc, json.JSONDecodeError) else str(exc)
        assert error == f"event line 2: {reason}"
        assert code == 2
        assert err.endswith(f"\nerror: {error}\n")
    assert "Traceback" not in err


RECORD_LINE = json.dumps({**GOOD_META, "id": 8}).encode("utf-8")


@pytest.mark.parametrize("shape", LINE_SHAPES)
def test_record_readers_read_each_line_as_json_loads_does(tmp_path, capsys, shape):
    line = LINE_SHAPES[shape](RECORD_LINE)
    src = tmp_path / "in.jsonl"
    src.write_bytes(json.dumps(GOOD_META).encode("utf-8") + b"\n" + line)
    exc = _json_loads_error(line)
    error = None if exc is None else str(exc)
    for command in ("augment", "format", "stats"):
        out = tmp_path / f"{command}.jsonl"
        argv = [command, "--in", str(src)] + ([] if command == "stats" else ["--out", str(out)])
        code = main(argv)
        stdout, err = capsys.readouterr()
        if command == "stats":
            records = [GOOD_META] if error else [GOOD_META, json.loads(RECORD_LINE)]
            ids = [r["id"] for r in records]
            assert stdout == stats_table(*records)
        else:
            ids = [json.loads(x)["id"] for x in out.read_text(encoding="utf-8").splitlines()]
        if error is None:
            assert (code, ids) == (0, [7, 8])
        else:
            assert (code, ids) == (1, [7])
            assert err.endswith(f"\nrecord rejected: {error}\n")
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["augment", "format"])
def test_non_utf8_record_is_rejected_and_run_goes_on(tmp_path, capsys, monkeypatch, no_leftover_children, command):
    # A text stream decodes a block of lines at once, so one bad byte used to
    # lose the good records around it too, and the run stopped with exit 2.
    two_usable_cpus(monkeypatch)
    _, meta = curate(tmp_path, n_pairs=40)
    lines = meta.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines[:20]) + b'{"id": 999, "x": "\xff"}\n' + b"".join(lines[20:]))
    clean = tmp_path / "clean.jsonl"
    assert main([command, "--in", str(meta), "--out", str(clean)]) == 0
    capsys.readouterr()
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.jsonl"
        assert main([command, "--in", str(bad), "--out", str(out), "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.endswith("\nrecord rejected: 'utf-8' codec can't decode byte 0xff in position 18: "
                            "invalid start byte\n")
        assert out.read_bytes() == clean.read_bytes()
    assert len(clean.read_bytes().splitlines()) == 40


@pytest.mark.parametrize("command", ["augment", "format"])
def test_record_with_lone_surrogate_is_rejected_naming_its_id(tmp_path, capsys, monkeypatch,
                                                              no_leftover_children, command):
    # "\ud800" is valid JSON, but no UTF-8 output line can hold it.
    two_usable_cpus(monkeypatch)
    _, meta = curate(tmp_path, n_pairs=7)
    lines = meta.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines[:3]) + lines[3].replace(b'"read": ["', b'"read": ["\\ud800', 1)
                    + b"".join(lines[4:]))
    clean = tmp_path / "clean.jsonl"
    assert main([command, "--in", str(meta), "--out", str(clean)]) == 0
    capsys.readouterr()
    expected = clean.read_bytes().splitlines(keepends=True)
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.jsonl"
        assert main([command, "--in", str(bad), "--out", str(out), "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[1].startswith("record rejected: record 3: 'utf-8' codec can't encode "
                                              "character '\\ud800' in position ")
        assert len(err.splitlines()) == 2
        assert out.read_bytes() == b"".join(expected[:3] + expected[4:])


def test_format_system_message_with_lone_surrogate_is_hard_error(tmp_path):
    # A non-UTF-8 byte in argv reaches Python as a lone surrogate. Every record
    # would hold it, so format stops before it opens --out. The config line is
    # printed first: stderr takes any str here, as a backslashreplace stream does.
    _, meta = curate(tmp_path, n_pairs=2)
    out = tmp_path / "sft.jsonl"
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["format", "--in", str(meta), "--out", str(out), "--system-msg", "be \udcff"]) == 2
    err = stderr.getvalue()
    assert err.endswith("\nerror: 'utf-8' codec can't encode character '\\udcff' in position 3: "
                        "surrogates not allowed\n")
    assert not out.exists()


# ------------------------------------------- plain-text inputs read as bytes

@pytest.mark.parametrize("name", ["src", "tgt", "align"])
def test_curate_non_utf8_line_is_rejected_and_run_goes_on(tmp_path, capsys, monkeypatch,
                                                          no_leftover_children, name):
    two_usable_cpus(monkeypatch)
    paths = dict(zip(["src", "tgt", "align"], write_toy_corpus(tmp_path, n_pairs=50)))
    clean = tmp_path / "clean.jsonl"
    assert main(["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(clean)]) == 0
    lines = paths[name].read_bytes().splitlines(keepends=True)
    lines[20] = b"\xff" + lines[20]
    paths[name].write_bytes(b"".join(lines))
    capsys.readouterr()
    expected = clean.read_bytes().splitlines(keepends=True)
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}.jsonl"
        argv = ["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(out), "--workers", workers]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith("\nrecord 20 rejected: 'utf-8' codec can't decode byte 0xff in position 0: "
                            "invalid start byte\n")
        assert out.read_bytes() == b"".join(expected[:20] + expected[21:])


def test_simulate_non_utf8_source_line_takes_its_script(tmp_path, capsys):
    (tmp_path / "src.txt").write_bytes(b"a b c\nd \xff e\nf g\n")
    scripts = [{"rounds": [[["A", "B", "C"]]]}, {"rounds": [[["D"]]]}, {"rounds": [[["F", "G"]]]}]
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert simulate(tmp_path / "src.txt", tmp_path / "model.json", out) == 1
    err = capsys.readouterr().err
    assert err.endswith("\nsession 1 rejected: 'utf-8' codec can't decode byte 0xff in position 2: "
                        "invalid start byte\n")
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["id"], r["committed_words"]) for r in records] == [(0, ["A", "B", "C"]), (2, ["F", "G"])]


def test_lone_carriage_return_is_whitespace_inside_a_line(tmp_path, capsys):
    """A line ends at a newline only, in every input: a lone CR neither starts
    a session nor moves curate's line count."""
    (tmp_path / "src.txt").write_bytes(b"a b\rc d\ne f\n")
    scripts = [{"rounds": [[["A", "B", "C"]], [["D"]]]}, {"rounds": [[["E", "F"]]]}]
    (tmp_path / "model.json").write_text(json.dumps(scripts), encoding="utf-8")
    out = tmp_path / "events.jsonl"
    assert simulate(tmp_path / "src.txt", tmp_path / "model.json", out) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(r["id"], r["read_words"]) for r in records] == [(0, ["a", "b", "c"]), (0, ["d"]), (1, ["e", "f"])]
    paths = dict(zip(["src", "tgt", "align"], write_toy_corpus(tmp_path, n_pairs=3)))
    clean = tmp_path / "clean.jsonl"
    assert main(["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(clean)]) == 0
    for path in paths.values():
        path.write_bytes(path.read_bytes().replace(b" ", b"\r"))
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(meta)]) == 0
    assert meta.read_bytes() == clean.read_bytes()


def test_crlf_inputs_read_as_lf(tmp_path, capsys):
    src, model, _ = write_sim_case(tmp_path, 5)
    paths = dict(zip(["src", "tgt", "align"], write_toy_corpus(tmp_path, n_pairs=5)))
    assert simulate(src, model, tmp_path / "lf_events.jsonl") == 0
    assert main(["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(tmp_path / "lf.jsonl")]) == 0
    for path in [src, *paths.values()]:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert simulate(src, model, tmp_path / "crlf_events.jsonl") == 0
    assert main(["curate", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(tmp_path / "crlf.jsonl")]) == 0
    assert (tmp_path / "crlf_events.jsonl").read_bytes() == (tmp_path / "lf_events.jsonl").read_bytes()
    assert (tmp_path / "crlf.jsonl").read_bytes() == (tmp_path / "lf.jsonl").read_bytes()


def test_eval_names_the_run_whose_reads_go_backwards(tmp_path, capsys):
    first = {**GOOD_EVENT, "id": 3, "cumulative_source_read": 2}
    second = {**GOOD_EVENT, "id": 3, "round": 1, "cumulative_source_read": 1}
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps(GOOD_EVENT) + "\n" + json.dumps(first) + "\n" + json.dumps(second) + "\n",
                      encoding="utf-8")
    assert main(["eval", "--events", str(events)]) == 2
    err = capsys.readouterr().err
    assert "error: run id 3: read count 2 outside [1, 1]" in err
    assert "Traceback" not in err
    # Every count inside [1, I], each round committing a word, and the second read below the first.
    rounds = [{**GOOD_EVENT, "round": r, "cumulative_source_read": c} for r, c in enumerate([2, 1, 3])]
    events.write_text("".join(json.dumps(e) + "\n" for e in rounds), encoding="utf-8")
    assert main(["eval", "--events", str(events)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == ["error: run id 0: read schedule must be nondecreasing"]


DEEP = "[" * 100_000  # deeper than any JSON decoder recursion limit


def _decoded(decode, line):
    try:
        return repr(decode(line))  # repr: NaN equals itself
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


DECODE_CASES = {
    **{f"{shape}-{kind}": LINE_SHAPES[shape](good)
       for shape in LINE_SHAPES for kind, good in (("event", GOOD_LINE), ("record", RECORD_LINE))},
    "nan": b"NaN\n",
    "infinities": b'{"a": [NaN, -Infinity]}\n',
    "two-newlines": b"[1, 2]\n\n",
    "newline-only": b"\n",
    "empty": b"",
    "deeply-nested": DEEP.encode("utf-8") + b"\n",
}


@pytest.mark.parametrize("line", DECODE_CASES.values(), ids=DECODE_CASES.keys())
def test_decode_line_is_json_loads(line):
    assert _decoded(decode_line, line) == _decoded(lambda b: json.loads(b.decode("utf-8")), line)


@pytest.mark.parametrize("command", ["augment", "format"])
def test_deeply_nested_record_rejected_and_run_goes_on(tmp_path, capsys, command):
    _, meta = curate(tmp_path, n_pairs=3)
    lines = meta.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], DEEP, *lines[1:]]) + "\n", encoding="utf-8")
    good_out, bad_out = tmp_path / "good.jsonl", tmp_path / "out.jsonl"
    assert main([command, "--in", str(meta), "--out", str(good_out)]) == 0
    capsys.readouterr()
    assert main([command, "--in", str(bad), "--out", str(bad_out)]) == 1
    err = capsys.readouterr().err
    assert "record rejected: maximum recursion depth exceeded" in err
    assert "Traceback" not in err
    assert bad_out.read_bytes() == good_out.read_bytes()


@pytest.mark.parametrize("command", ["stats", "eval", "simulate"])
def test_deeply_nested_json_is_hard_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP + "\n", encoding="utf-8")
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    argv = {
        "stats": ["stats", "--in", str(deep)],
        "eval": ["eval", "--events", str(deep)],
        "simulate": ["simulate", "--src", str(tmp_path / "src.txt"), "--model", str(deep),
                     "--out", str(tmp_path / "e.jsonl")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if command == "stats":  # its one record is rejected, which leaves no corpus
        _, reason, error = err.splitlines()
        assert reason.startswith("record rejected: maximum recursion depth exceeded")
        assert error == "error: empty trajectory corpus"
    else:
        assert "error: maximum recursion depth exceeded" in err
    assert "Traceback" not in err


# ------------------------------------------------- streaming the model file

def simulate(src, model, out, *extra):
    return main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "3",
                 "--beam", "5", "--out", str(out), *extra])


@pytest.fixture
def sim_case(tmp_path, capsys):
    """Twelve sessions and their events from the compact model file."""
    src, model, scripts = write_sim_case(tmp_path, 12, seed=4)
    assert simulate(src, model, tmp_path / "compact.jsonl") == 0
    capsys.readouterr()
    return src, scripts, (tmp_path / "compact.jsonl").read_bytes()


@pytest.mark.parametrize("layout, block", [
    ("indent", None),  # pretty-printed: newlines inside and between scripts
    ("indent", 7),  # every script runs past a read
    ("compact", 1),
    ("blank-around", 3),  # whitespace before '[' and after ']' longer than a read
])
def test_simulate_streamed_model_layouts_give_compact_events(tmp_path, sim_case, monkeypatch, layout, block):
    src, scripts, events = sim_case
    text = {
        "indent": json.dumps(scripts, indent=2),
        "compact": json.dumps(scripts),
        "blank-around": "\n" * 10 + json.dumps(scripts) + " \n" * 10,
    }[layout]
    (tmp_path / "m.json").write_text(text, encoding="utf-8")
    if block:
        monkeypatch.setattr(jsonl, "MODEL_BLOCK", block)
    assert simulate(src, tmp_path / "m.json", tmp_path / "e.jsonl") == 0
    assert (tmp_path / "e.jsonl").read_bytes() == events


@pytest.mark.parametrize("cut, message", [
    (3, "model file has 9 scripts for 12 non-blank source lines"),
    (-3, "model file has 15 scripts for 12 non-blank source lines"),
])
def test_simulate_script_count_mismatch_writes_earlier_sessions(tmp_path, sim_case, capsys, cut, message):
    src, scripts, events = sim_case
    model = tmp_path / "m.json"
    model.write_text(json.dumps(scripts[:-cut] if cut > 0 else scripts + scripts[:-cut]), encoding="utf-8")
    assert simulate(src, model, tmp_path / "e.jsonl") == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err
    kept = events.decode("utf-8").splitlines(keepends=True)
    n = min(len(scripts), len(scripts) - cut)
    assert (tmp_path / "e.jsonl").read_text(encoding="utf-8") == "".join(
        line for line in kept if json.loads(line)["id"] < n)


def test_simulate_data_after_script_list_is_hard_error(tmp_path, sim_case, capsys):
    src, scripts, events = sim_case
    model = tmp_path / "m.json"
    model.write_text(json.dumps(scripts) + "\n{}\n", encoding="utf-8")
    assert simulate(src, model, tmp_path / "e.jsonl") == 2
    err = capsys.readouterr().err
    assert "error: model file has data after its script list" in err
    assert "Traceback" not in err
    assert (tmp_path / "e.jsonl").read_bytes() == events


@pytest.mark.parametrize("src_text, code, err", [
    ("", 0, ""),
    ("\n", 1, "session 0 rejected: blank source line"),
    ("a b\n", 2, "error: model file has 0 scripts for 1 non-blank source lines"),
])
def test_simulate_empty_script_list(tmp_path, capsys, src_text, code, err):
    (tmp_path / "src.txt").write_text(src_text, encoding="utf-8")
    (tmp_path / "m.json").write_text("[ ]\n", encoding="utf-8")
    assert simulate(tmp_path / "src.txt", tmp_path / "m.json", tmp_path / "e.jsonl") == code
    assert err in capsys.readouterr().err
    assert (tmp_path / "e.jsonl").read_bytes() == b""


def test_simulate_refuses_a_single_object_model(tmp_path, sim_case, capsys, monkeypatch):
    src, scripts, _ = sim_case
    monkeypatch.setattr(jsonl, "MODEL_BLOCK", 5)  # the head is read past whitespace
    # One script object, as older versions took for every line; then other
    # heads that are not a JSON list (form feed is not JSON whitespace).
    for text in (json.dumps(scripts[0], indent=1), "\n \n{}", "", "\x0c[]"):
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        assert simulate(src, tmp_path / "m.json", tmp_path / "e.jsonl") == 2
        err = capsys.readouterr().err
        assert err.endswith("\nerror: model file must hold a JSON list of scripts\n"), text
        assert "Traceback" not in err
        assert not (tmp_path / "e.jsonl").exists()  # refused before --out is opened


@pytest.mark.parametrize("block", [7, 64, None])
def test_simulate_model_syntax_error_names_its_char(tmp_path, capsys, monkeypatch, block):
    src, model, _ = write_sim_case(tmp_path, 200)
    text = model.read_text(encoding="utf-8")
    at = text.index("}, {") + 3  # the start of the second script
    model.write_text(text[:at] + "[[[x" + text[at:], encoding="utf-8")
    if block:
        monkeypatch.setattr(jsonl, "MODEL_BLOCK", block)
    assert simulate(src, model, tmp_path / "e.jsonl") == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: model file: Expecting value: char {at + 3}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["[1.5]", "[2e3]", "[7E+2]", "[1.5e-3, {}]"])
def test_simulate_number_cut_by_a_read_is_reported_as_with_whole_reads(tmp_path, capsys, monkeypatch, model):
    # The first 3-character read ends just before each number's '.', 'e' or
    # 'E'. The element is a number, not a script, whatever the read size.
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "m.json").write_text(model, encoding="utf-8")
    results = []
    for block in (None, 3):
        if block:
            monkeypatch.setattr(jsonl, "MODEL_BLOCK", block)
        code = simulate(tmp_path / "src.txt", tmp_path / "m.json", tmp_path / "e.jsonl")
        results.append((code, capsys.readouterr().err.splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0][0] == 2
    assert results[0][1].startswith("error: session 0: malformed model script: ")


def test_model_syntax_error_is_raised_without_reading_on(tmp_path, monkeypatch):
    _, model, _ = write_sim_case(tmp_path, 200)
    text = model.read_text(encoding="utf-8")
    at = text.index("}, {") + 3
    text = text[:at] + "[[[x" + text[at:]
    monkeypatch.setattr(jsonl, "MODEL_BLOCK", 64)
    f = io.StringIO(text)
    items = jsonl._list_items(f, f.read(jsonl.MODEL_BLOCK))
    next(items)
    with pytest.raises(ValueError, match=f"^model file: Expecting value: char {at + 3}$"):
        next(items)
    # The file is ~100 times longer than what was read.
    assert f.tell() < 1000 < len(text) // 20, (f.tell(), len(text))


def refill_free_lists():
    """Put objects back on CPython's free lists of tuples, lists, dicts and floats.

    A full gc.collect() empties them. A traced run would then allocate anew
    what the free lists held, and an object it frees goes back onto a free
    list, where it still counts as traced. A longer run refills more of them,
    so its peak reads higher while the program's own memory stays flat.
    """
    junk = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
    junk += [[0] for _ in range(100)] + [{"a": 0} for _ in range(100)] + [i + 0.5 for i in range(100)]
    del junk


def traced_peak(args) -> int:
    """The peak of the memory that tracemalloc traces while args.func(args)
    runs and returns 0, its stdout and stderr discarded."""
    # Free what earlier tests left in cycles, so that the peak is this run's,
    # then refill the free lists that the collection emptied.
    gc.collect()
    refill_free_lists()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert args.func(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_sessions(tmp_path, monkeypatch):
    # Small reads, so that both model files span many of them.
    monkeypatch.setattr(jsonl, "MODEL_BLOCK", 8192)
    peaks = []
    for sessions in (250, 2500):
        work = tmp_path / str(sessions)
        work.mkdir()
        src, model, _ = write_sim_case(work, sessions)
        # Parsed before tracing: building the parser peaks ~60 kB above the
        # ~95 kB a run holds, which would hide a leak of ~50 B per session.
        args = build_parser().parse_args(["simulate", "--src", str(src), "--model", str(model),
                                          "--chunk", "3", "--beam", "5", "--out", str(work / "e.jsonl")])
        peaks.append(traced_peak(args))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_eval_memory_does_not_grow_with_runs(tmp_path):
    """eval holds one run's records and running sums: no list of per-run values
    and no set of the ids seen."""
    peaks = []
    for runs in (250, 2500):
        events = tmp_path / f"{runs}.jsonl"
        with events.open("w", encoding="utf-8") as f:
            for rid in range(runs):
                words = ["w"] * (1 + rid % 3)
                f.write(json.dumps({**GOOD_EVENT, "id": rid, "committed_words": words,
                                    "cumulative_source_read": 1 + rid % 5}) + "\n")
        args = build_parser().parse_args(["eval", "--events", str(events)])
        peaks.append(traced_peak(args))
    assert peaks[1] < 1.5 * peaks[0], peaks


def corpora(tmp_path_factory, sizes):
    """Per record count: the toy corpus's three files and its meta JSONL."""
    made = {}
    for pairs in sizes:
        work = tmp_path_factory.mktemp(f"corpus{pairs}")
        src, tgt, align = map(str, write_toy_corpus(work, n_pairs=pairs))
        meta = str(work / "meta.jsonl")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["curate", "--src", src, "--tgt", tgt, "--align", align, "--out", meta]) == 0
        made[pairs] = {"--src": src, "--tgt": tgt, "--align": align, "--in": meta}
    return made


@pytest.fixture(scope="module")
def corpus_by_size(tmp_path_factory):
    return corpora(tmp_path_factory, (250, 2500))


@pytest.mark.parametrize("stage", ["curate", "augment", "format", "stats"])
def test_corpus_stage_memory_does_not_grow_with_records(tmp_path, corpus_by_size, stage):
    """At --workers 1 a corpus stage holds one record at a time: each stage
    peaks at ~10-70 kB, so a leak of ~100 B per record would more than double
    the peak at 2,500 records."""
    flags = ("--src", "--tgt", "--align") if stage == "curate" else ("--in",)
    peaks = []
    for pairs, paths in corpus_by_size.items():
        argv = [stage, *(a for f in flags for a in (f, paths[f]))]
        if stage != "stats":
            argv += ["--out", str(tmp_path / f"{pairs}.jsonl")]
        args = build_parser().parse_args(argv)
        peaks.append(traced_peak(args))
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.fixture(scope="module")
def corpus_by_batches(tmp_path_factory):
    return corpora(tmp_path_factory, (4 * cli.PMAP_BATCH, 16 * cli.PMAP_BATCH))


@pytest.mark.parametrize("stage", ["curate", "augment", "format"])
def test_parent_memory_does_not_grow_with_records_at_two_workers(tmp_path, corpus_by_batches, monkeypatch,
                                                                 no_leftover_children, stage):
    """At --workers 2 the parent holds one batch of items and one of results
    at a time, whatever the input's size: it peaks at ~0.25-0.3 MB at 1,024
    and 4,096 records alike, so a leak of ~100 B per record would take the
    ratio of the two peaks to ~1.8."""
    serve = cli._serve

    def untraced_serve(*args):
        tracemalloc.stop()  # a forked worker inherits the tracing; only the parent is measured
        serve(*args)

    monkeypatch.setattr(cli, "_serve", untraced_serve)
    flags = ("--src", "--tgt", "--align") if stage == "curate" else ("--in",)
    peaks = []
    for pairs, paths in corpus_by_batches.items():
        argv = [stage, *(a for f in flags for a in (f, paths[f])), "--out", str(tmp_path / f"{pairs}.jsonl")]
        args = build_parser().parse_args([*argv, "--workers", "2"])
        peaks.append(traced_peak(args))
    assert peaks[1] < 1.5 * peaks[0], peaks


# ---------------------------------------------------- --out naming an input

def out_is_input_cases(tmp_path):
    """(argv, the input the output names, flag) per stage that writes a file."""
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=3)
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(meta)]) == 0
    sim_src, model, _ = write_sim_case(tmp_path, 2)
    events = tmp_path / "events.jsonl"
    assert simulate(sim_src, model, events) == 0
    curate = ["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out"]
    simulate_argv = ["simulate", "--src", str(sim_src), "--model", str(model), "--chunk", "3", "--out"]
    return {
        "curate-src": (curate + [str(src)], src, "--out"),
        "curate-align": (curate + [str(tmp_path / "." / "align.txt")], align, "--out"),
        "augment": (["augment", "--in", str(meta), "--out", str(meta)], meta, "--out"),
        "format": (["format", "--in", str(meta), "--out", str(meta)], meta, "--out"),
        "simulate-src": (simulate_argv + [str(sim_src)], sim_src, "--out"),
        "simulate-model": (simulate_argv + [str(model)], model, "--out"),
        "eval": (["eval", "--events", str(events), "--csv", str(events)], events, "--csv"),
    }


@pytest.mark.parametrize("case", ["curate-src", "curate-align", "augment", "format", "simulate-src",
                                  "simulate-model", "eval"])
def test_output_naming_an_input_is_hard_error(tmp_path, capsys, case):
    argv, victim, flag = out_is_input_cases(tmp_path)[case]
    before = victim.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} {argv[-1]} is also an input\n" in err
    assert victim.read_bytes() == before


# ------------------------------------------- inputs opened before --out

# Per stage: the flags of its inputs, and the flag of the file it writes.
INPUT_FLAGS = {"curate": (("--src", "--tgt", "--align"), "--out"), "augment": (("--in",), "--out"),
               "format": (("--in",), "--out"), "simulate": (("--src", "--model"), "--out"),
               "eval": (("--events",), "--csv")}
MISSING_INPUT_CASES = [(stage, flag, workers) for stage, (flags, _) in INPUT_FLAGS.items() for flag in flags
                       for workers in (("1", "2") if stage in ("curate", "augment", "format") else (None,))]


@pytest.mark.parametrize("existing", [True, False], ids=["existing-output", "no-output"])
@pytest.mark.parametrize("stage, flag, workers", MISSING_INPUT_CASES,
                         ids=[f"{s}{f}" + (f"-w{w}" if w else "") for s, f, w in MISSING_INPUT_CASES])
def test_missing_input_leaves_the_output_as_it_was(tmp_path, capsys, monkeypatch, stage, flag, workers, existing):
    """Every input is opened before the output, which opening empties: a
    missing one stops the stage with the output's bytes kept, or with no
    output created."""
    two_usable_cpus(monkeypatch)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=3)
    sim_src, model, _ = write_sim_case(tmp_path, 2)
    paths = {("curate", "--src"): src, ("curate", "--tgt"): tgt, ("curate", "--align"): align,
             ("simulate", "--src"): sim_src, ("simulate", "--model"): model}
    missing, out = tmp_path / "missing.jsonl", tmp_path / "out.jsonl"
    flags, out_flag = INPUT_FLAGS[stage]
    argv = [stage, *(a for f in flags for a in (f, str(missing if f == flag else paths[stage, f]))),
            out_flag, str(out), *(["--workers", workers] if workers else [])]
    if existing:
        out.write_bytes(b"keep")
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [f"error: [Errno 2] No such file or directory: '{missing}'"]
    assert out.read_bytes() == b"keep" if existing else not out.exists()


@pytest.mark.parametrize("stage", INPUT_FLAGS)
def test_unwritable_output_is_hard_error_with_empty_stdout(tmp_path, capsys, stage):
    """Every writing stage opens its output before it reads its inputs: an
    output under a missing directory is exit 2 with nothing on stdout, eval's
    report included."""
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=3)
    sim_src, model, _ = write_sim_case(tmp_path, 2)
    meta, events = tmp_path / "meta.jsonl", tmp_path / "events.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(meta)]) == 0
    assert simulate(sim_src, model, events) == 0
    inputs = {"curate": (src, tgt, align), "augment": (meta,), "format": (meta,), "simulate": (sim_src, model),
              "eval": (events,)}
    flags, out_flag = INPUT_FLAGS[stage]
    out = tmp_path / "no-such-dir" / "out"
    argv = [stage, *(a for f, path in zip(flags, inputs[stage]) for a in (f, str(path))), out_flag, str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [f"error: [Errno 2] No such file or directory: '{out}'"]
