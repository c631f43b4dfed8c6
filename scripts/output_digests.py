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
the RALCP events; each run reports both prompt modes.

Usage:
  python scripts/output_digests.py --pairs 50000 --seed 42
"""

import argparse
import json
import os
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
    yield [*curate, "--debug", "--out", str(work / "meta_debug.jsonl")], ("meta_debug.jsonl",)
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
                "--cost-recompute", c1, "--cost-word", c2, "--csv", str(work / f"{name}.csv")],
               (f"{name}.stdout", f"{name}.csv"))


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus, sim = write_inputs(work, args.pairs, args.seed)
        for argv, outputs in runs(work, corpus, sim, args.seed):
            stdout = next((work / o for o in outputs if o.endswith(".stdout")), None)
            with open(stdout or os.devnull, "w", encoding="utf-8") as out:
                proc = subprocess.run([sys.executable, "-m", "simultraj.cli", *argv], stdout=out,
                                      stderr=subprocess.PIPE, text=True, env=env)
            if proc.returncode != 0:
                sys.exit(f"{argv[0]} exited {proc.returncode}: {proc.stderr}")
            for name in outputs:
                print(name, inputs.sha256_file(work / name), flush=True)


if __name__ == "__main__":
    main()
