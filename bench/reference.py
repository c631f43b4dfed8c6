"""A fixed Python job that measures how fast the host runs at a given moment.

The benchmark's host drifts: the same CPU-bound loop takes up to ±20% longer
or shorter from one half-minute to the next, and the stages' wall and CPU
times drift with it. The benchmark runs this job before every stage, so each
pass is timed against the host's speed at that moment. The job does the kind
of work the stages do (JSON, string and dict operations per record, and a
prompt re-rendered as it grows) and imports nothing from the program, so no
change to the program moves it.
"""

from __future__ import annotations

import json
import random
import time
from statistics import median

REPEATS = 3  # jobs per sample; the sample is their median

_rng = random.Random(0)
LINES = tuple(" ".join(f"w{_rng.randrange(2000)}" for _ in range(_rng.randrange(3, 15))) for _ in range(1000))
STREAM = tuple(" ".join(LINES).split()[:800])


def job() -> int:
    counts: dict[str, int] = {}
    out = []
    for i, line in enumerate(LINES):
        words = line.split()
        rec = json.loads(json.dumps({"id": i, "src": words, "tgt": [w.upper() for w in words]}))
        for word in rec["src"]:
            counts[word] = counts.get(word, 0) + 1
        out.append(" ".join(rec["tgt"][: len(words) // 2]))
    history: list[str] = []
    rendered = 0
    for word in STREAM:
        history.append(word)
        rendered += len(f"Source: {' '.join(history)}\nTarget:".split())
    return len(counts) + len("\n".join(out)) + rendered


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one job, each the median of REPEATS runs."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        job()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return median(walls), median(cpus)
