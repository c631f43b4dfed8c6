"""Tests of the benchmark's checks, input generation and tracer.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 3
PAIRS = 40
TINY = {
    "corpus": run.Workload("corpus", size=PAIRS),
    "long": run.Workload("sim", lengths=(8, 16, 32), chunk=1),
    "short": run.Workload("sim", size=30, chunk=3),
}


def failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def corpus_pass(tmp_path: Path):
    w = TINY["corpus"]
    inp = run.make_inputs(w, tmp_path / "in", SEED)
    out = tmp_path / "out"
    procs = run.run_pass(run.stage_argv(w, inp, out, SEED, 1), out, run.program_env())
    assert [p.code for p in procs.values()] == [0, 0, 0, 0]
    return inp, out


def test_flipped_byte_in_any_corpus_output_is_detected(tmp_path):
    inp, out = corpus_pass(tmp_path)
    assert failed(checks.check_corpus(inp, out, PAIRS, SEED)) == []
    rng = random.Random(SEED)
    for name in ("meta.jsonl", "aug.jsonl", "sft.jsonl", "stats.stdout"):
        bad = tmp_path / f"bad-{name}"
        shutil.copytree(out, bad)
        data = bytearray((bad / name).read_bytes())
        data[rng.randrange(len(data))] ^= 0x01
        (bad / name).write_bytes(bytes(data))
        assert failed(checks.check_corpus(inp, bad, PAIRS, SEED)), name


def test_fixed_input_matches_recorded_digests(tmp_path):
    assert failed(checks.check_golden_corpus(tmp_path / "corpus")) == []
    assert failed(checks.check_golden_events(tmp_path / "sim", run.BEAM, run.GAMMA, run.DISAGREE)) == []


def sim_runs_and_eval(tmp_path: Path):
    w = TINY["short"]
    inp = run.make_inputs(w, tmp_path / "in", SEED)
    out = tmp_path / "out"
    procs = run.run_pass(run.stage_argv(w, inp, out, SEED, 1), out, run.program_env())
    assert [p.code for p in procs.values()] == [0, 0]
    sources = [line.split() for line in inp["sim_src"].read_text(encoding="utf-8").splitlines()]
    scripts = json.loads(inp["model"].read_text(encoding="utf-8"))
    runs = checks.simulate_in_process(sources, scripts, w.chunk, run.BEAM, run.GAMMA)
    return runs, out


def test_flipped_byte_in_event_log_is_detected(tmp_path):
    runs, out = sim_runs_and_eval(tmp_path)
    assert failed(checks.check_events(out / "events.jsonl", runs)) == []
    data = bytearray((out / "events.jsonl").read_bytes())
    data[len(data) // 2] ^= 0x01
    (out / "events.jsonl").write_bytes(bytes(data))
    assert failed(checks.check_events(out / "events.jsonl", runs))


def test_eval_line_with_nan_counts_as_failed(tmp_path):
    runs, out = sim_runs_and_eval(tmp_path)
    stdout = (out / "eval.stdout").read_text(encoding="utf-8")
    assert failed(checks.check_eval(stdout, runs)) == []
    report = json.loads(stdout.split("\n", 1)[0])
    report["al_mean"] = float("nan")
    stub = json.dumps(report) + "\n"
    assert "NaN" in stub
    ledger = run.Ledger()
    for result in checks.check_eval(stub, runs):
        ledger.check(*result)
    assert ledger.failed == 1 and ledger.attempted == 1


def test_equal_seeds_give_equal_input_hashes(tmp_path):
    for key, w in TINY.items():
        hashes = []
        for seed, tag in ((SEED, "a"), (SEED, "b"), (SEED + 1, "c")):
            made = run.make_inputs(w, tmp_path / f"{key}-{tag}", seed)
            hashes.append({name: inputs.sha256_file(path) for name, path in made.items()})
        assert hashes[0] == hashes[1], key
        assert hashes[0] != hashes[2], key


def test_tracing_wrappers_are_gone_after_traced_run(tmp_path):
    names = tracer.TRACED + tracer.STAGE_SPANS
    before = [vars(owner)[attr] for owner, attr in (tracer._owner(m, a) for _, m, a, *_ in names)]
    w = TINY["long"]
    inp = run.make_inputs(w, tmp_path / "in", SEED)
    t = tracer.Tracer()
    t.install()
    try:
        assert not tracer.originals_restored()
        _, codes = run.run_in_process(run.stage_argv(w, inp, tmp_path / "out", SEED, 1))
    finally:
        t.uninstall()
    assert codes == [0, 0]
    assert tracer.originals_restored()
    after = [vars(owner)[attr] for owner, attr in (tracer._owner(m, a) for _, m, a, *_ in names)]
    assert all(a is b for a, b in zip(before, after))
    metrics = t.metrics()
    assert metrics["simulator.run.calls"] == 3
    assert metrics["cli.simulate.self_ms"] > 0
    assert set(metrics) <= {name for name, _, _ in run.per_layer_spec()}


def test_traced_benchmark_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "corpus-serial", TINY["corpus"])
    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "results").mkdir()
    ledger, metrics, info = run.benchmark("corpus-serial", SEED, 0, True, tmp_path / "work")
    assert ledger.failed == 0
    assert list(metrics) == [name for name, _, _ in run.per_layer_spec()]
    assert metrics["alignment.parse_pharaoh.calls"] == PAIRS
    assert info["passes"] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
