import os
import runpy
import subprocess
import sys
from pathlib import Path

from conftest import write_toy_corpus

ROOT = Path(__file__).resolve().parent.parent

# Recorded from scripts/sweep_chunk_sizes.py before it reduced runs through
# metrics.events_report: per-run AL, WWT and recompute totals from SimRun objects.
SWEEP_TABLE = [
    "chunk_size    al_mean       wwt_conversational  wwt_offline   recompute_conversational  recompute_offline",
    "1             1.0           3.1473              6.0343        165                       410              ",
    "3             2.1077        2.5786              4.2926        115                       216              ",
    "5             2.7639        2.4738              4.0268        101                       178              ",
]
SWEEP_CSV = (
    "chunk_size,al_mean,wwt_conversational,wwt_offline,recompute_conversational,recompute_offline\r\n"
    "1,1.0,3.1473,6.0343,165,410\r\n"
    "3,2.1077,2.5786,4.2926,115,216\r\n"
    "5,2.7639,2.4738,4.0268,101,178\r\n"
)


def test_sweep_chunk_sizes_output_unchanged(tmp_path):
    src, _, _ = write_toy_corpus(tmp_path, n_pairs=12, seed=5)
    csv_path = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_chunk_sizes.py"), "--src", str(src),
         "--chunk-sizes", "1", "3", "5", "--cost-recompute", "0.7", "--cost-word", "1.3",
         "--csv", str(csv_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "\n".join(SWEEP_TABLE + ["", f"wrote {csv_path}", ""])
    assert csv_path.read_bytes().decode("utf-8") == SWEEP_CSV

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


def test_output_digests_repeat_one_line_per_output():
    argv = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--pairs", "40", "--seed", "3"]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in range(2))
    assert first == second
    digests = dict(line.split(" ") for line in first.splitlines())
    assert len(digests) == len(first.splitlines()) == 26
    assert all(len(digest) == 64 for digest in digests.values())
    for name in ("meta", "aug", "sft"):  # --workers 2 writes the serial bytes
        assert digests[f"{name}_w2.jsonl"] == digests[f"{name}.jsonl"]
    assert digests["sft_sys.jsonl"] != digests["sft.jsonl"]  # the system message is rendered
    # A pretty-printed model file gives the compact file's events.
    assert digests["events_indent.jsonl"] == digests["events_ralcp_conversational.jsonl"]
    # Both recompute counts are logged in either mode, and the scripted model
    # ignores its context, so --prompt leaves the event log as it is.
    for select in ("ralcp", "lcp", "greedy"):
        assert digests[f"events_{select}_conversational.jsonl"] == digests[f"events_{select}_offline.jsonl"]
