#!/usr/bin/env python3
"""Print the sha256 of every subcommand's output on a seeded toy corpus.

Each subcommand runs as ``python -m simultraj.cli`` with the ``src/`` next to
this script on PYTHONPATH, and one ``<output> <sha256>`` line is printed per
output file or stdout. Two checkouts that print the same lines wrote the same
bytes, so a refactor is byte-identical when this script prints the same lines
before and after it (copy the script into the other checkout to run it there).

Inputs: ``scripts/make_toy_corpus.py --pairs N --seed S``, and for simulate and
eval the first 5,000 of its source lines with a scripted beam model from
``bench/inputs.write_sim_inputs`` (chunk 3, beam 5, disagreement 0.25, seed S).
simulate also reads the same scripts pretty-printed (``indent=1``), which must
give the bytes of the compact file, and a one-script list for a file of just
the first source line. eval runs once per cost pair (1.0/1.0 and 0.7/1.3) on
the RALCP events; its stdout, one JSON line reporting both prompt modes, is
its only output.

Then each per-record stage runs once more on a damaged copy of its input, and
one ``<stage>_rejected.stderr <sha256>`` line is printed for its rejection
lines (stderr after the resolved-config line). The copies are seeded by S, and
each damage is on a different line below 40: curate reads a bad alignment
token and a source line that is not UTF-8, and augment, format and stats read
``meta.jsonl`` with one line cut short (not JSON) and one record whose last
chunk writes nothing (unsound). simulate reads the sim source with one line
made blank and another made not UTF-8, and the model file without the blank
line's script, with another line's script malformed (``{"rounds": [5]}``) and
a third line's script one round short. eval reads the RALCP conversational
event log with one line cut short and another line's round changed.

Usage:
  python scripts/output_digests.py --pairs 50000 --seed 42
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402  the benchmark's seeded input writers, used read-only

SIM_LINES = 5_000
CHUNK, BEAM, DISAGREE = 3, 5, 0.25


def runs(work: Path, corpus: dict, sim: dict, seed: int):
    """(argv, outputs) per CLI run, in order. Outputs are file names under
    work; the one ending in .stdout receives the run's standard output."""
    curate = ["curate", "--src", str(corpus["src"]), "--tgt", str(corpus["tgt"]), "--align", str(corpus["align"])]
    yield [*curate, "--out", str(work / "meta.jsonl")], ("meta.jsonl",)
    yield [*curate, "--workers", "2", "--out", str(work / "meta_w2.jsonl")], ("meta_w2.jsonl",)
    for suffix, workers in (("", "1"), ("_w2", "2")):
        yield (["augment", "--in", str(work / "meta.jsonl"), "--seed", str(seed), "--workers", workers,
                "--out", str(work / f"aug{suffix}.jsonl")], (f"aug{suffix}.jsonl",))
        yield (["format", "--in", str(work / "aug.jsonl"), "--workers", workers,
                "--out", str(work / f"sft{suffix}.jsonl")], (f"sft{suffix}.jsonl",))
    yield (["format", "--in", str(work / "aug.jsonl"), "--system-msg", "Translate incrementally.",
            "--out", str(work / "sft_sys.jsonl")], ("sft_sys.jsonl",))
    for name in ("meta", "aug"):
        yield ["stats", "--in", str(work / f"{name}.jsonl")], (f"stats_{name}.stdout",)
    for select in ("ralcp", "lcp", "greedy"):
        for prompt in ("conversational", "offline"):
            out = f"events_{select}_{prompt}.jsonl"
            yield (["simulate", "--src", str(sim["sim_src"]), "--model", str(sim["model"]),
                    "--chunk", str(CHUNK), "--beam", str(BEAM), "--select", select, "--prompt", prompt,
                    "--out", str(work / out)], (out,))
    for src, model, out in ((sim["sim_src"], sim["model_indent"], "events_indent.jsonl"),
                            (sim["sim_src_one"], sim["model_one"], "events_one.jsonl")):
        yield (["simulate", "--src", str(src), "--model", str(model), "--chunk", str(CHUNK),
                "--beam", str(BEAM), "--out", str(work / out)], (out,))
    for c1, c2 in (("1.0", "1.0"), ("0.7", "1.3")):
        name = f"eval_{c1}_{c2}"
        yield (["eval", "--events", str(work / "events_ralcp_conversational.jsonl"),
                "--cost-recompute", c1, "--cost-word", c2], (f"{name}.stdout",))


def write_inputs(work: Path, pairs: int, seed: int) -> tuple[dict, dict]:
    """The corpus and simulation inputs that ``runs`` reads, written under work."""
    corpus = inputs.make_corpus(work, pairs, seed)
    lines = corpus["src"].read_text(encoding="utf-8").splitlines()[:SIM_LINES]
    sim = inputs.write_sim_inputs(work, [line.split() for line in lines], CHUNK, BEAM, DISAGREE, seed)
    scripts = json.loads(sim["model"].read_text(encoding="utf-8"))
    sim["model_indent"], sim["sim_src_one"], sim["model_one"] = (
        work / name for name in ("model_indent.json", "sim_src_one.txt", "model_one.json"))
    sim["model_indent"].write_text(json.dumps(scripts, ensure_ascii=False, indent=1), encoding="utf-8")
    sim["sim_src_one"].write_text(lines[0] + "\n", encoding="utf-8")
    sim["model_one"].write_text(json.dumps([scripts[0]], ensure_ascii=False), encoding="utf-8")
    return corpus, sim


def write_damaged(work: Path, corpus: dict, sim: dict, seed: int) -> dict:
    """Damaged copies of curate's inputs, of simulate's inputs, and of
    meta.jsonl and the RALCP conversational event log, which must exist."""
    pairs = len(corpus["src"].read_bytes().splitlines())
    sessions = len(sim["sim_src"].read_bytes().splitlines())
    rng = random.Random(seed)
    token, utf8, cut, unsound = rng.sample(range(min(40, pairs)), 4)
    blank, garbled = rng.sample(range(min(40, sessions)), 2)
    events = work / "events_ralcp_conversational.jsonl"
    halved, renumbered = rng.sample(range(min(40, len(events.read_bytes().splitlines()))), 2)
    malformed, short = rng.sample([i for i in range(min(40, sessions)) if i not in (blank, garbled)], 2)

    def empty_last_write(line: bytes) -> bytes:
        record = json.loads(line)
        record["chunks"][-1]["write"] = []
        return (json.dumps(record, ensure_ascii=False) + "\n").encode()

    def next_round(line: bytes) -> bytes:
        record = json.loads(line)
        record["round"] += 1
        return (json.dumps(record, ensure_ascii=False) + "\n").encode()

    damaged = {}
    for key, path, at, damage in (
        ("src", corpus["src"], utf8, lambda line: b"\xff" + line),
        ("align", corpus["align"], token, lambda line: line.rstrip(b"\n") + b" 1x\n"),
        ("meta", work / "meta.jsonl", cut, lambda line: line[:len(line) // 2] + b"\n"),
        ("meta", work / "meta.jsonl", unsound, empty_last_write),
        ("sim_src", sim["sim_src"], blank, lambda line: b"\n"),
        ("sim_src", sim["sim_src"], garbled, lambda line: b"\xff" + line),
        ("events", events, halved, lambda line: line[:len(line) // 2] + b"\n"),
        ("events", events, renumbered, next_round),
    ):
        lines = damaged.get(key, path).read_bytes().splitlines(keepends=True)
        lines[at] = damage(lines[at])
        damaged[key] = work / f"{key}_damaged{path.suffix}"
        damaged[key].write_bytes(b"".join(lines))
    scripts = json.loads(sim["model"].read_text(encoding="utf-8"))
    scripts[malformed] = {"rounds": [5]}
    scripts[short]["rounds"].pop()
    del scripts[blank]  # a blank line takes no script; the garbled one keeps its own
    damaged["model"] = work / "model_damaged.json"
    damaged["model"].write_text(json.dumps(scripts, ensure_ascii=False), encoding="utf-8")
    return damaged


def rejection_runs(work: Path, corpus: dict, damaged: dict):
    """(argv, outputs) of each per-record stage on the damaged inputs; each
    output ends in .stderr and receives its rejection lines."""
    yield (["curate", "--src", str(damaged["src"]), "--tgt", str(corpus["tgt"]), "--align", str(damaged["align"]),
            "--out", str(work / "meta_rejected.jsonl")], ("curate_rejected.stderr",))
    for stage in ("augment", "format"):
        yield ([stage, "--in", str(damaged["meta"]), "--out", str(work / f"{stage}_rejected.jsonl")],
               (f"{stage}_rejected.stderr",))
    yield ["stats", "--in", str(damaged["meta"])], ("stats_rejected.stderr",)
    yield (["simulate", "--src", str(damaged["sim_src"]), "--model", str(damaged["model"]), "--chunk", str(CHUNK),
            "--beam", str(BEAM), "--out", str(work / "events_rejected.jsonl")], ("simulate_rejected.stderr",))
    yield ["eval", "--events", str(damaged["events"])], ("eval_rejected.stderr",)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def run(work: Path, argv: list, outputs: tuple) -> None:
        """Run one stage, then print the digest of each of its outputs. A run
        with a .stderr output must reject records (exit 1), any other exit 0."""
        stdout = next((work / o for o in outputs if o.endswith(".stdout")), None)
        stderr = next((work / o for o in outputs if o.endswith(".stderr")), None)
        with open(stdout or os.devnull, "w", encoding="utf-8") as out:
            proc = subprocess.run([sys.executable, "-m", "simultraj.cli", *argv], stdout=out,
                                  stderr=subprocess.PIPE, text=True, env=env)
        if proc.returncode != (1 if stderr else 0):
            sys.exit(f"{argv[0]} exited {proc.returncode}: {proc.stderr}")
        if stderr:  # the lines after the resolved config, which names the run's paths
            stderr.write_text(proc.stderr.split("\n", 1)[1], encoding="utf-8")
        for name in outputs:
            print(name, inputs.sha256_file(work / name), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus, sim = write_inputs(work, args.pairs, args.seed)
        for argv, outputs in runs(work, corpus, sim, args.seed):
            run(work, argv, outputs)
        for argv, outputs in rejection_runs(work, corpus, write_damaged(work, corpus, sim, args.seed)):
            run(work, argv, outputs)


if __name__ == "__main__":
    main()
