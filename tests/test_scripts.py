import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import write_toy_corpus

from simultraj.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Recorded from scripts/sweep_chunk_sizes.py before it reduced runs through
# metrics.events_report: per-run AL, WWT and recompute totals from SimRun objects.
SWEEP_TABLE = [
    "chunk_size    al_mean       wwt_conversational  wwt_offline   recompute_conversational  recompute_offline",
    "1             1.0           3.1473              6.0343        165                       410              ",
    "3             2.1077        2.5786              4.2926        115                       216              ",
    "5             2.7639        2.4738              4.0268        101                       178              ",
]


def test_sweep_chunk_sizes_output_unchanged(tmp_path):
    src, _, _ = write_toy_corpus(tmp_path, n_pairs=12, seed=5)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_chunk_sizes.py"), "--src", str(src),
         "--chunk-sizes", "1", "3", "5", "--cost-recompute", "0.7", "--cost-word", "1.3"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "\n".join(SWEEP_TABLE + [""])

    # The table is the one output: --csv, which wrote its rows again, is a usage error.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_chunk_sizes.py"), "--src", str(src),
         "--csv", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2
    assert "unrecognized arguments: --csv" in result.stderr
    assert not (tmp_path / "sweep.csv").exists()

    # The costs follow the CLI's float-flag rule: finite and at least 0.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_chunk_sizes.py"), "--src", str(src),
         "--cost-recompute", "nan"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2
    assert "argument --cost-recompute: must be finite and at least 0, got nan" in result.stderr


def test_sweep_chunk_sizes_default_sizes():
    script = runpy.run_path(str(ROOT / "scripts" / "sweep_chunk_sizes.py"))
    assert script["DEFAULT_CHUNK_SIZES"] == (3, 5, 7, 9, 11, 13)


# What `scripts/output_digests.py --pairs 40 --seed 3` prints, pinned so that a
# change to any output byte or rejection line fails here. Python 3.10 to 3.13
# print the same lines.
DIGESTS_40_3 = """\
meta.jsonl c12061f735dd32b9a062c0efd489ebc4041b43f7ea4946abda463da90bad6efd
meta_w2.jsonl c12061f735dd32b9a062c0efd489ebc4041b43f7ea4946abda463da90bad6efd
aug.jsonl 88a28c5ae06d227bbfebe7e89f222b2ade5c1cf7f0fbd45322ac649842bb5165
sft.jsonl 2c4d2fdaf7444eb93ff1f69086f0c5ca32fb063b9275cd5e076ad72a6b9ef217
aug_w2.jsonl 88a28c5ae06d227bbfebe7e89f222b2ade5c1cf7f0fbd45322ac649842bb5165
sft_w2.jsonl 2c4d2fdaf7444eb93ff1f69086f0c5ca32fb063b9275cd5e076ad72a6b9ef217
sft_sys.jsonl 8921dfb700c40e8006cf9ac866a306560cb8ab7ffbd59fb162510ef7af9b8350
stats_meta.stdout c6c6afa1218d2006a2cf41c1bab8357358e93e59901b63e74f9db48209af082d
stats_aug.stdout 6129955a87a23a346fb9781c0cfa430d79be79947fccf5fd47ce92f250237657
events_ralcp_conversational.jsonl acf2ab4affd891733fa57cc030ada5eace0f1f307a3c01f5ba0e7fc61bd0bb81
events_ralcp_offline.jsonl acf2ab4affd891733fa57cc030ada5eace0f1f307a3c01f5ba0e7fc61bd0bb81
events_lcp_conversational.jsonl 852f3a75c11ed404ad1307fb3818d4b493aeefa782e6dead51e84b2712ad8e4c
events_lcp_offline.jsonl 852f3a75c11ed404ad1307fb3818d4b493aeefa782e6dead51e84b2712ad8e4c
events_greedy_conversational.jsonl b682d5dc6dda7221851ccd54c2fd4391176dc513a7258297163a17a17ef5abfe
events_greedy_offline.jsonl b682d5dc6dda7221851ccd54c2fd4391176dc513a7258297163a17a17ef5abfe
events_indent.jsonl acf2ab4affd891733fa57cc030ada5eace0f1f307a3c01f5ba0e7fc61bd0bb81
events_one.jsonl d3fd71932d3dc8a622ca0809df7d1e45f4c8234f7f24f3f328063d4c941d3eff
eval_1.0_1.0.stdout 679234ae817f9c7c1bdb29e462e3208c6af8b7ee57cc91a4cf2b1cd53d378411
eval_0.7_1.3.stdout 9fb4b58e7bf2157b97e96c37acb36ecd1af7200f3d67770c66279508a1f013b1
curate_rejected.stderr 26ce130dc97ef8165a5d01f6cdb890e2d10a3be315d6bf226853950651cdd9c8
augment_rejected.stderr 514a40cb2bcaa24ad967093a24484b0dd85dcba09a42f8862bb6e091f8314cb8
format_rejected.stderr 514a40cb2bcaa24ad967093a24484b0dd85dcba09a42f8862bb6e091f8314cb8
stats_rejected.stderr 514a40cb2bcaa24ad967093a24484b0dd85dcba09a42f8862bb6e091f8314cb8
simulate_rejected.stderr 558bc454f370c04226b4775cd23ad611954e5fe339d9bbeb2dd5a8e711ce05c4
eval_rejected.stderr 05f9bc92023b32599ed72c0ff702452060990adb6bfc50ab7402dc24731add10
"""


def test_output_digests_repeat_one_line_per_output():
    argv = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--pairs", "40", "--seed", "3"]
    # Both runs at once: each writes under its own temporary directory.
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        (first, first_err), (second, second_err) = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a run that has exited
            proc.wait()
    assert [proc.returncode for proc in procs] == [0, 0], first_err + second_err
    assert first == second == DIGESTS_40_3
    digests = dict(line.split(" ") for line in first.splitlines())
    assert len(digests) == len(first.splitlines()) == 25
    assert all(len(digest) == 64 for digest in digests.values())
    for name in ("meta", "aug", "sft"):  # --workers 2 writes the serial bytes
        assert digests[f"{name}_w2.jsonl"] == digests[f"{name}.jsonl"]
    assert digests["sft_sys.jsonl"] != digests["sft.jsonl"]  # the system message is rendered
    # A pretty-printed model file gives the compact file's events.
    assert digests["events_indent.jsonl"] == digests["events_ralcp_conversational.jsonl"]
    # Both recompute counts are logged in either mode, and the scripted model
    # ignores its context, so simulate --prompt leaves the event log as it is.
    for select in ("ralcp", "lcp", "greedy"):
        assert digests[f"events_{select}_conversational.jsonl"] == digests[f"events_{select}_offline.jsonl"]
    # augment, format and stats read each record through one reader, so they
    # reject the same lines of the damaged meta.jsonl with the same reasons.
    assert digests["augment_rejected.stderr"] == digests["format_rejected.stderr"] == digests["stats_rejected.stderr"]


# eval's JSON line on the `--pairs 40 --seed 3` digest inputs, per cost pair.
# Recorded when eval reported one prompt mode per run, chosen by its --prompt
# flag: the AL and the counts were the same in both modes, and each WWT mean
# here is the wwt_simulated_mean that its mode printed.
EVAL_40_3 = {
    f"eval_{c1}_{c2}.stdout": {
        "runs": 40, "al_mean": 2.5032804695304693, "wwt_simulated_mean_conversational": conversational,
        "wwt_simulated_mean_offline": offline, "rounds_total": 132,
        "recompute_total_conversational": 722, "recompute_total_offline": 1300,
    }
    for c1, c2, conversational, offline in [
        ("1.0", "1.0", 3.249280719280719, 5.120350552225552),
        ("0.7", "1.3", 2.8744965034965033, 4.184245386557886),
    ]
}


def test_eval_reports_both_prompt_modes_as_each_mode_did_alone(tmp_path, capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))
    corpus, sim = script["write_inputs"](tmp_path, 40, 3)
    reports = {}
    for argv, outputs in script["runs"](tmp_path, corpus, sim, 3):
        if outputs[0] == "events_ralcp_conversational.jsonl":
            assert main(argv) == 0
        elif argv[0] == "eval":
            assert main(argv) == 0
            reports[outputs[0]] = json.loads(capsys.readouterr().out.splitlines()[0])
    assert reports == EVAL_40_3


def walkthrough_lines():
    """The commands of README's CLI walkthrough, one per line, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_walkthrough_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each simultraj line runs in-process through main, the toy-corpus script
    through runpy, and any other line (printf) through bash; each exits 0."""
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in walkthrough_lines():
        argv = shlex.split(line)
        if argv[0] == "simultraj":
            assert main(argv[1:]) == 0, line
            commands.append(argv[1])
        elif argv[0] == "python":
            monkeypatch.setattr(sys, "argv", argv[1:])
            runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
        else:
            assert subprocess.run(["bash", "-c", line]).returncode == 0, line
    assert commands == ["curate", "augment", "format", "stats", "simulate", "eval"]
