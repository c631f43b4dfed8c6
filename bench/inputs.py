"""Seeded inputs for the benchmark workloads.

The corpus comes from ``scripts/make_toy_corpus.py``, run as a subprocess with
the benchmark seed. The decoding simulator gets source streams cut from such a
corpus and a scripted beam model whose candidates partly disagree, so RALCP
voting has work to do. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_CORPUS_SCRIPT = ROOT / "scripts" / "make_toy_corpus.py"


def make_corpus(out_dir: Path, pairs: int, seed: int) -> dict[str, Path]:
    """Write src/tgt/align.txt with the repository's toy-corpus generator."""
    subprocess.run(
        [sys.executable, str(TOY_CORPUS_SCRIPT), "--out-dir", str(out_dir),
         "--pairs", str(pairs), "--seed", str(seed)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return {name: out_dir / f"{name}.txt" for name in ("src", "tgt", "align")}


def scripted_model(
    source: list[str], chunk: int, beam: int, disagree: float, rng: random.Random
) -> dict:
    """Script for one session in the simulator's model-file format.

    Each round's candidates echo the chunk just read, upper-cased. Every word
    of every candidate is swapped for one of two variants with probability
    ``disagree``, and with the same probability a candidate also runs one word
    ahead into the next chunk, so the beam varies in both words and length.
    """
    rounds = []
    for start in range(0, len(source), chunk):
        ref = [w.upper() for w in source[start : start + chunk]]
        ahead = source[start + chunk : start + chunk + 1]
        beam_words = []
        for _ in range(beam):
            cand = [w if rng.random() >= disagree else f"{w}~{rng.randrange(2)}" for w in ref]
            if ahead and rng.random() < disagree:
                cand.append(ahead[0].upper())
            beam_words.append(cand)
        rounds.append(beam_words)
    return {"rounds": rounds}


def write_sim_inputs(
    out_dir: Path, sources: list[list[str]], chunk: int, beam: int, disagree: float, seed: int
) -> dict[str, Path]:
    """Write one source line per session and the matching list of scripts."""
    rng = random.Random(seed)
    src = out_dir / "sim_src.txt"
    model = out_dir / "model.json"
    src.write_text("".join(" ".join(s) + "\n" for s in sources), encoding="utf-8")
    scripts = [scripted_model(s, chunk, beam, disagree, rng) for s in sources]
    model.write_text(json.dumps(scripts, ensure_ascii=False), encoding="utf-8")
    return {"sim_src": src, "model": model}


def long_streams(corpus_src: Path, lengths: tuple[int, ...]) -> list[list[str]]:
    """Cut consecutive streams of the given word lengths from a corpus source side."""
    words = corpus_src.read_text(encoding="utf-8").split()
    if len(words) < sum(lengths):
        raise ValueError(f"corpus has {len(words)} words, streams need {sum(lengths)}")
    streams, pos = [], 0
    for n in lengths:
        streams.append(words[pos : pos + n])
        pos += n
    return streams


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
