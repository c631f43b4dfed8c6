import json

import pytest

from simultraj.cli import DEFAULT_CHUNK_SIZES, build_parser, main
from conftest import write_toy_corpus


def test_pipeline_config_defaults():
    parser = build_parser()
    aug = parser.parse_args(["augment", "--in", "i", "--out", "o"])
    assert (aug.delta_min, aug.delta_max, aug.beta, aug.rho_min) == (2, 10, 0.5, 0.5)
    assert DEFAULT_CHUNK_SIZES == (3, 5, 7, 9, 11, 13)
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


def test_curate_mismatched_line_counts_is_hard_error(tmp_path, capsys):
    src, tgt, align = write_toy_corpus(tmp_path)
    align.write_text("0-0\n", encoding="utf-8")  # one line short
    code = main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


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
    src, tgt, align = write_toy_corpus(tmp_path)
    out = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                 "--out", str(out), "--debug"]) == 0
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert record["indices"][0]["read"][0] == 1


def test_simulate_rejects_malformed_model_file(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "model.json").write_text('{"beams": []}', encoding="utf-8")
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2",
                 "--out", str(tmp_path / "e.jsonl")]) == 2
    assert "rounds" in capsys.readouterr().err


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


def test_format_unknown_template_errors(tmp_path):
    _, meta = curate(tmp_path)
    assert main(["format", "--in", str(meta), "--template", "gpt9", "--out", str(tmp_path / "x")]) == 2


def test_stats_prints_table(tmp_path, capsys):
    _, meta = curate(tmp_path, n_pairs=4, seed=9)
    assert main(["stats", "--in", str(meta)]) == 0
    out = capsys.readouterr().out
    assert "meta" in out
    assert "#chunk" in out


def test_stats_empty_file_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "--in", str(empty)]) == 2


def write_sim_inputs(tmp_path):
    (tmp_path / "sim_src.txt").write_text("w1 w2 w3 w4\n", encoding="utf-8")
    script = {"rounds": [[["A", "B"], ["A", "B"], ["A", "C"]],
                         [["D", "E"], ["D", "E"], ["D", "E"]]]}
    (tmp_path / "model.json").write_text(json.dumps(script), encoding="utf-8")
    return tmp_path / "sim_src.txt", tmp_path / "model.json"


def test_simulate_ralcp_gamma_one_matches_lcp(tmp_path):
    src, model = write_sim_inputs(tmp_path)
    out_ralcp, out_lcp = tmp_path / "r.jsonl", tmp_path / "l.jsonl"
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "ralcp", "--gamma", "1.0",
                 "--prompt", "conversational", "--out", str(out_ralcp)]) == 0
    assert main(["simulate", "--src", str(src), "--model", str(model), "--chunk", "2",
                 "--beam", "3", "--select", "lcp", "--gamma", "1.0",
                 "--prompt", "conversational", "--out", str(out_lcp)]) == 0
    assert out_ralcp.read_bytes() == out_lcp.read_bytes()


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


def test_workers_do_not_change_output(tmp_path):
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=20, seed=4)
    outs = []
    for workers, name in [(1, "w1"), (4, "w4")]:
        meta = tmp_path / f"meta_{name}.jsonl"
        aug = tmp_path / f"aug_{name}.jsonl"
        assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                     "--out", str(meta), "--workers", str(workers)]) == 0
        assert main(["augment", "--in", str(meta), "--out", str(aug), "--seed", "11",
                     "--workers", str(workers)]) == 0
        outs.append((meta.read_bytes(), aug.read_bytes()))
    assert outs[0] == outs[1]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_eval_without_commits_prints_strict_json(tmp_path, capsys):
    (tmp_path / "src.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps({"rounds": [[[]]]}), encoding="utf-8")
    events = tmp_path / "events.jsonl"
    assert main(["simulate", "--src", str(tmp_path / "src.txt"), "--model",
                 str(tmp_path / "model.json"), "--chunk", "2", "--beam", "1",
                 "--select", "greedy", "--out", str(events)]) == 0
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--events", str(events), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.splitlines()[0], parse_constant=_reject_constant)
    assert line["al_mean"] is None
    assert line["wwt_simulated_mean"] is None
    assert line["runs"] == 1
    assert "n/a" in out
    assert "nan" not in out.lower()
    assert csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")[1:3] == ["", ""]


GOOD_META = {"id": 7, "provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]}


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2],
        "meta",
        {"id": 0, "provenance": "meta", "chunks": 5},
        {"id": 0, "provenance": "meta", "chunks": [5]},
        {"id": 0, "provenance": "meta", "chunks": [{"read": [1], "write": ["x"], "shifted": 0}]},
        {"id": 0, "provenance": "meta", "chunks": [{"read": ["a"], "write": "x", "shifted": 0}]},
        {"id": 0, "provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": "0"}]},
        {"id": "0", "provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
        {"provenance": "meta", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
        {"id": 0, "provenance": "raw", "chunks": [{"read": ["a"], "write": ["x"], "shifted": 0}]},
    ],
    ids=["list", "string", "chunks-int", "chunk-int", "read-int", "write-string",
         "shifted-string", "id-string", "no-id", "unknown-provenance"],
)
def test_malformed_record_rejected_and_run_goes_on(tmp_path, capsys, bad):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    for command in ("augment", "format"):
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--in", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "record rejected" in err
        assert "Traceback" not in err
        (line,) = out.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["id"] == 7
    assert main(["stats", "--in", str(src)]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("shifted", [-3, 5])
def test_format_rejects_shifted_outside_write(tmp_path, capsys, shifted):
    bad = {"id": 0, "provenance": "merged+shifted",
           "chunks": [{"read": ["a"], "write": ["x", "y"], "shifted": shifted}]}
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(bad) + "\n" + json.dumps(GOOD_META) + "\n", encoding="utf-8")
    out = tmp_path / "sft.jsonl"
    assert main(["format", "--in", str(src), "--out", str(out)]) == 1
    assert "record 0 rejected: shifted prefix violated @chunk 0" in capsys.readouterr().err
    (line,) = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["id"] == 7


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
    assert "error: run id 1 reappears" in err
    assert "Traceback" not in err
