"""Output checks for the benchmark workloads.

Each check yields ``(name, ok, detail)``. Every output line is compared as
bytes with a line re-derived in this process through simultraj's public
functions, so a single flipped byte in any checked file fails a check, and
malformed output fails a check rather than raising. The caller puts ``src/``
on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from statistics import fmean
from typing import Iterator

import inputs
from simultraj.alignment import SentencePair, parse_pharaoh, sufficient_sets
from simultraj.augment import AugmentConfig, augment_pipeline
from simultraj.metrics import corpus_stats, corpus_stats_table, run_average_lagging
from simultraj.monotonic import monotonicize
from simultraj.sftformat import dialogue_prompt, get_template, record_to_dict, render_conversational
from simultraj.simulator import ScriptedModel, SelectStrategy, SimRun, dump_events_jsonl, run
from simultraj.trajectory import build_meta, from_record, to_record, verify

Check = tuple[str, bool, str]

CORPUS_OUTPUTS = ("meta.jsonl", "aug.jsonl", "sft.jsonl")
TEMPLATE = "llama2"

# The other checks compare the CLI with the library it runs on, which cannot
# catch a change inside the library. The output bytes are a fixed contract, so
# they are also compared with digests recorded with simultraj 0.1.0 on a fixed
# input: toy corpus --pairs 300 --seed 0, augment --seed 0, and its source
# sentences simulated at chunk 3, beam 5, RALCP 0.6 with a seed-0 script.
GOLDEN_PAIRS = 300
GOLDEN_SEED = 0
GOLDEN_SHA256 = {
    "meta.jsonl": "b60e1fe4af14b899e1ae7a250f3584d7a51bec1db0f7dc46dca62879be3011f1",
    "aug.jsonl": "e58a802a89f166f5eb31b24d598d691309922ad305cfedc41c5e1746f3cdaac5",
    "sft.jsonl": "6218ba849a7233412c10434626572ada4e68f970f713faf8ede5856b9310b913",
    "events.jsonl": "2f1a798d11914936c83e4a515caacc932fb64cafaded3c431c41b3b4dc139578",
}


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str | bytes):
    """json.loads that fails on NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _dumps(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


# ------------------------------------------------------------------ corpus

def derive_corpus_lines(src: str, tgt: str, align: str, idx: int, seed: int) -> tuple[bytes, bytes, bytes]:
    """curate, augment and format lines for one pair, built in-process."""
    pair = SentencePair.from_text(src, tgt, idx)
    links = parse_pharaoh(align, pair.source_len, pair.target_len, idx)
    plan = monotonicize(sufficient_sets(pair, links), pair.source_len)
    meta = build_meta(plan, pair)
    aug = augment_pipeline(meta, AugmentConfig(seed=seed))
    sft = render_conversational(aug, "", TEMPLATE)
    return _dumps(to_record(meta)), _dumps(to_record(aug)), _dumps(record_to_dict(sft))


def check_corpus(inp: dict[str, Path], out: Path, pairs: int, seed: int) -> Iterator[Check]:
    """Line counts, every line re-derived, verify on every augmented record, stats table."""
    lines = {name: (out / name).read_bytes().split(b"\n")[:-1] for name in CORPUS_OUTPUTS}
    for name, got in lines.items():
        yield f"{name} has one line per pair", len(got) == pairs, f"{len(got)} lines for {pairs} pairs"
    if any(len(got) != pairs for got in lines.values()):
        return

    raw = [inp[k].read_text(encoding="utf-8").split("\n") for k in ("src", "tgt", "align")]
    mismatches = {name: [] for name in CORPUS_OUTPUTS}
    for idx in range(pairs):
        derived = derive_corpus_lines(raw[0][idx], raw[1][idx], raw[2][idx], idx, seed)
        for name, line in zip(CORPUS_OUTPUTS, derived):
            if lines[name][idx] != line:
                mismatches[name].append(idx)
    for name, bad in mismatches.items():
        yield f"{name} equals in-process lines", not bad, f"records {bad[:5]} differ"

    try:
        trajs = [from_record(strict_loads(line)) for line in lines["aug.jsonl"]]
    except (ValueError, KeyError, TypeError) as exc:
        yield "aug.jsonl parses", False, str(exc)
        return
    unsound = [t.pair_id for t in trajs if verify(t)]
    yield "every augmented record passes verify", not unsound, f"records {unsound[:5]} fail"
    table = corpus_stats_table(corpus_stats(trajs)) + "\n"
    stats_out = (out / "stats.stdout").read_bytes()
    yield "stats output equals in-process table", stats_out == table.encode("utf-8"), ""


def check_golden_corpus(work: Path) -> Iterator[Check]:
    """In-process curate/augment/format bytes of the fixed input equal the recorded digests."""
    inp = inputs.make_corpus(work, GOLDEN_PAIRS, GOLDEN_SEED)
    raw = [inp[k].read_text(encoding="utf-8").split("\n") for k in ("src", "tgt", "align")]
    digests = {name: hashlib.sha256() for name in CORPUS_OUTPUTS}
    for idx in range(GOLDEN_PAIRS):
        derived = derive_corpus_lines(raw[0][idx], raw[1][idx], raw[2][idx], idx, GOLDEN_SEED)
        for name, line in zip(CORPUS_OUTPUTS, derived):
            digests[name].update(line + b"\n")
    for name, digest in digests.items():
        yield f"{name} of the fixed input equals recorded digest", digest.hexdigest() == GOLDEN_SHA256[name], ""


# --------------------------------------------------------------- simulator

def simulate_in_process(sources: list[list[str]], scripts: list[dict], chunk: int, beam: int, gamma: float) -> list[SimRun]:
    strategy = SelectStrategy("ralcp", gamma)
    return [
        run(src, ScriptedModel.from_obj(script), chunk, strategy, beam=beam, pair_id=idx)
        for idx, (src, script) in enumerate(zip(sources, scripts))
    ]


def final_conversational_prompt(events: list[dict]) -> str:
    """The last round's conversational prompt, rebuilt from a session's event records."""
    closed: list[tuple[list[str], list[str]]] = []
    open_source: list[str] = []
    for event in events[:-1]:
        open_source.extend(event["read_words"])
        if event["committed_words"]:
            closed.append((open_source, event["committed_words"]))
            open_source = []
    open_source.extend(events[-1]["read_words"])
    return dialogue_prompt(closed, open_source, get_template(TEMPLATE))


def check_golden_events(work: Path, beam: int, gamma: float, disagree: float) -> Iterator[Check]:
    """In-process event log of the fixed input equals the recorded digest."""
    chunk = 3
    corpus = inputs.make_corpus(work, GOLDEN_PAIRS, GOLDEN_SEED)
    sources = [line.split() for line in corpus["src"].read_text(encoding="utf-8").splitlines()]
    model = inputs.write_sim_inputs(work, sources, chunk, beam, disagree, GOLDEN_SEED)["model"]
    runs = simulate_in_process(sources, json.loads(model.read_text(encoding="utf-8")), chunk, beam, gamma)
    buf = io.StringIO()
    dump_events_jsonl(runs, buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    yield "events.jsonl of the fixed input equals recorded digest", digest == GOLDEN_SHA256["events.jsonl"], ""


def check_events(events_path: Path, runs: list[SimRun]) -> Iterator[Check]:
    """Event log equals the in-process runs; recompute totals telescope per session."""
    data = events_path.read_bytes()
    buf = io.StringIO()
    dump_events_jsonl(runs, buf)
    yield "event log equals in-process runs", data == buf.getvalue().encode("utf-8"), ""

    sessions: dict[int, list[dict]] = {}
    bad_total, bad_order = [], []
    try:
        for line in data.split(b"\n"):
            if line:
                record = strict_loads(line)
                sessions.setdefault(record["id"], []).append(record)
        for sid, events in sessions.items():
            conv = sum(e["recompute_tokens_conversational"] for e in events)
            off = sum(e["recompute_tokens_offline"] for e in events)
            if conv != len(final_conversational_prompt(events).split()):
                bad_total.append(sid)
            if conv > off:
                bad_order.append(sid)
    except (ValueError, KeyError, TypeError) as exc:
        yield "event log parses", False, repr(exc)
        return
    yield "conversational recompute equals final prompt words", not bad_total, f"sessions {bad_total[:5]}"
    yield "conversational recompute <= offline", not bad_order, f"sessions {bad_order[:5]}"


def check_eval(stdout: str, runs: list[SimRun]) -> Iterator[Check]:
    """eval's JSON line is strict and agrees with the in-process runs."""
    first = stdout.split("\n", 1)[0]
    try:
        report = strict_loads(first)
    except ValueError as exc:
        yield "eval JSON is strict", False, str(exc)
        return
    yield "eval JSON is strict", True, ""
    expected = {
        "runs": len(runs),
        "rounds_total": sum(r.rounds for r in runs),
        "recompute_total_conversational": sum(e.recompute_tokens_conversational for r in runs for e in r.events),
        "recompute_total_offline": sum(e.recompute_tokens_offline for r in runs for e in r.events),
        "al_mean": fmean(run_average_lagging(r) for r in runs),
    }
    for key, value in expected.items():
        got = report.get(key) if isinstance(report, dict) else None
        yield f"eval {key} matches in-process runs", got == value, f"{got!r} != {value!r}"
