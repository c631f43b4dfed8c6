"""Acceptance gates for the whole package.

Each test covers one release criterion at its stated tolerance and prints a
one-line verdict (run with `pytest -s tests/test_acceptance.py` to see them
for passing gates too).
"""

import itertools
import json
import os
import random
import time

import pytest

from conftest import (
    ScriptRecorder,
    brute_min_read_counts,
    make_pair,
    meta_of,
    positions,
    random_case,
    read_counts_before_write,
    realised_trajectory,
    replay_prompts,
    write_toy_corpus,
)
from simultraj.alignment import sufficient_sets
from simultraj.augment import AugmentConfig, derive_rng, merge, shift
from simultraj.cli import main
from simultraj.metrics import CostModel, average_lagging, corpus_stats, events_report, run_latency
from simultraj.monotonic import MonotonicPlan, monotonicize
from simultraj.sftformat import DEFAULT_TEMPLATE, get_template, render_conversational
from simultraj.simulator import (
    GREEDY,
    ScriptedModel,
    SelectStrategy,
    run,
    select_prefix,
)
from simultraj.trajectory import build_meta, from_record, verify


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_01_monotonicization_fixture():
    pair = make_pair(2, 2)
    s = sufficient_sets(pair, frozenset({(1, 1), (2, 1), (1, 2)}))
    monotonicize(s, 2)  # warm-up
    t0 = time.perf_counter()
    plan = monotonicize(s, 2)
    elapsed = time.perf_counter() - t0
    assert plan.added_edges == ((2, 2),)
    assert plan.prefix_req == (2, 2)
    assert elapsed < 1e-3
    report(f"criterion 1 PASS: reorder fixture repaired exactly in {elapsed * 1e6:.0f} us")


def test_criterion_02_trajectory_soundness_10k():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    for case in range(10_000):
        pair, alignment = random_case(rng, max_len=12, pair_id=case)
        plan, meta = meta_of(pair, alignment)
        cfg = AugmentConfig(seed=rng.randrange(2**63))
        pair_rng = derive_rng(cfg.seed, pair.id)
        merged = merge(meta, cfg, pair_rng)
        shifted = shift(merged, cfg, pair_rng)
        for stage in (meta, merged, shifted):
            assert verify(stage, plan) == []
            spans = positions(stage)
            assert [i for reads, _ in spans for i in reads] == list(range(1, pair.source_len + 1))
            assert [j for _, writes in spans for j in writes] == list(range(1, pair.target_len + 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"criterion 2 PASS: 10,000 pairs sound at all three stages in {elapsed:.2f} s")


def test_criterion_03_minimum_latency_oracle():
    t0 = time.perf_counter()
    profiles = 0
    # every reachable requirement profile at I,J <= 5
    for source_len in range(1, 6):
        for target_len in range(1, 6):
            pair = make_pair(source_len, target_len)
            for m in itertools.combinations_with_replacement(
                range(1, source_len + 1), target_len
            ):
                plan = MonotonicPlan(tuple(m), (), source_len)
                traj = build_meta(plan, pair)
                assert read_counts_before_write(traj, plan) == brute_min_read_counts(plan)
                profiles += 1
    # and every raw alignment at I,J <= 4 through the full pipeline
    alignments = 0
    for source_len in range(1, 5):
        for target_len in range(1, 5):
            pair = make_pair(source_len, target_len)
            cells = [
                (i, j)
                for i in range(1, source_len + 1)
                for j in range(1, target_len + 1)
            ]
            for bits in range(2 ** len(cells)):
                links = frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
                plan, traj = meta_of(pair, links)
                assert read_counts_before_write(traj, plan) == brute_min_read_counts(plan)
                alignments += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        f"criterion 3 PASS: meta trajectories hit the enumerated minimum on "
        f"{profiles} requirement profiles (I,J<=5) + {alignments} exhaustive alignments "
        f"(I,J<=4) in {elapsed:.2f} s"
    )


def brute_lcp(candidates):
    prefix = []
    for p in range(min(len(c) for c in candidates)):
        word = candidates[0][p]
        if all(c[p] == word for c in candidates):
            prefix.append(word)
        else:
            break
    return prefix


def test_criterion_04_ralcp_lcp_equivalence_10k():
    rng = random.Random(99)
    vocab = ["aa", "bb", "cc", "dd"]
    for _ in range(10_000):
        beam = rng.randint(1, 6)
        candidates = [
            [rng.choice(vocab) for _ in range(rng.randint(0, 8))] for _ in range(beam)
        ]
        assert select_prefix(candidates, SelectStrategy("ralcp", 1.0)) == brute_lcp(candidates)
    report("criterion 4 PASS: RALCP(gamma=1.0) == brute-force LCP on 10,000 beams")


def test_criterion_05_hyperparameter_defaults(tmp_path, capsys):
    cfg = AugmentConfig()
    assert (cfg.delta_min, cfg.delta_max, cfg.beta, cfg.rho_min) == (2, 10, 0.5, 0.5)

    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=3, seed=5)
    meta = tmp_path / "meta.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                 "--out", str(meta)]) == 0
    assert main(["augment", "--in", str(meta), "--out", str(tmp_path / "aug.jsonl"),
                 "--seed", "42"]) == 0
    err = capsys.readouterr().err
    for needle in ('"delta_min": 2', '"delta_max": 10', '"beta": 0.5', '"rho_min": 0.5',
                   '"seed": 42'):
        assert needle in err

    rng = random.Random(55)
    for seed in range(1_000):
        pair, alignment = random_case(rng, max_len=12, pair_id=seed)
        _, meta_traj = meta_of(pair, alignment)
        merged = merge(meta_traj, AugmentConfig(seed=seed), derive_rng(seed, pair.id))
        assert len(merged.chunks) <= len(meta_traj.chunks) // 2 + 1
    report("criterion 5 PASS: documented defaults in config + printout; merge bound on 1,000 seeds")


def test_criterion_06_average_lagging_oracle():
    for k in range(1, 9):
        g = [min(k + t - 1, 10) for t in range(1, 11)]
        assert abs(average_lagging(g, 10, 10) - k) < 1e-9
    for source_len, target_len in [(2, 2), (10, 10), (6, 9)]:
        assert average_lagging([source_len] * target_len, source_len, target_len) == source_len
    report("criterion 6 PASS: wait-k AL == k (1e-9) and full-read AL == I exactly")


def random_scripted_runs(n_runs: int, seed: int):
    """Runs over random sources with scripts that mix agreement and stalls."""
    rng = random.Random(seed)
    vocab = ["ta", "tb", "tc", "td", "te"]
    for case in range(n_runs):
        source = [f"s{i}" for i in range(1, rng.randint(2, 12) + 1)]
        chunk = rng.randint(1, 4)
        beam = rng.randint(1, 4)
        rounds = []
        n_rounds = -(-len(source) // chunk)
        for _ in range(n_rounds):
            if rng.random() < 0.7:  # agreeing beam: a commit will happen
                words = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
                rounds.append((words,) * beam)
            else:  # total disagreement: stall
                rounds.append(tuple((f"d{b}", rng.choice(vocab)) for b in range(beam)))
        strategy = rng.choice([GREEDY, SelectStrategy("ralcp", 0.6), SelectStrategy("ralcp", 1.0)])
        yield run(
            source,
            ScriptedModel(tuple(rounds)),
            chunk_size=chunk,
            strategy=strategy,
            beam=beam,
            pair_id=case,
        )


def test_criterion_07_cache_reuse_inequality_1000_runs():
    strict_checked = 0
    for sim in random_scripted_runs(1_000, seed=777):
        records = [event._asdict() for event in sim.events]
        totals = events_report([run_latency(records, CostModel())])
        final_prompt_words = len(replay_prompts(sim)[-1].prompt_conversational.split())
        assert totals.recompute_total_conversational == final_prompt_words
        assert totals.recompute_total_conversational <= totals.recompute_total_offline
        history_before_last = any(e.committed_words for e in sim.events[:-1])
        if sim.rounds >= 2 and history_before_last:
            assert totals.recompute_total_conversational < totals.recompute_total_offline
            strict_checked += 1
    assert strict_checked > 200
    report(
        f"criterion 7 PASS: telescoping + conversational<offline on 1,000 runs "
        f"({strict_checked} with >=2 rounds and history)"
    )


def test_criterion_08_append_only_prompts_1000_runs():
    for sim in random_scripted_runs(1_000, seed=778):
        prompts = replay_prompts(sim)
        for prev, cur in zip(prompts, prompts[1:]):
            assert cur.prompt_conversational.startswith(prev.prompt_plus_commit)
    report("criterion 8 PASS: every round prompt extends previous prompt+commit on 1,000 runs")


def run_pipeline(tmp_path, tag: str, workers: int, src, tgt, align) -> tuple[bytes, bytes, bytes]:
    meta = tmp_path / f"meta_{tag}.jsonl"
    aug = tmp_path / f"aug_{tag}.jsonl"
    sft = tmp_path / f"sft_{tag}.jsonl"
    assert main(["curate", "--src", str(src), "--tgt", str(tgt), "--align", str(align),
                 "--out", str(meta), "--workers", str(workers)]) == 0
    assert main(["augment", "--in", str(meta), "--out", str(aug), "--seed", "42",
                 "--workers", str(workers)]) == 0
    assert main(["format", "--in", str(aug), "--template", "llama2", "--system-msg",
                 "translate", "--out", str(sft), "--workers", str(workers)]) == 0
    return meta.read_bytes(), aug.read_bytes(), sft.read_bytes()


def test_criterion_09_pipeline_determinism_100_pairs(tmp_path, capsys, monkeypatch, no_leftover_children):
    # Two usable CPUs on any host, so "8 workers" runs a pool of two processes.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    src, tgt, align = write_toy_corpus(tmp_path, n_pairs=100, seed=42)
    first = run_pipeline(tmp_path, "a", 1, src, tgt, align)
    second = run_pipeline(tmp_path, "b", 1, src, tgt, align)
    capsys.readouterr()
    eight = run_pipeline(tmp_path, "c", 8, src, tgt, align)
    assert capsys.readouterr().err.count('"workers": 2') == 3
    assert first == second == eight
    report("criterion 9 PASS: byte-identical JSONL across reruns and 1 vs 8 workers (a pool of 2)")


def test_criterion_10_sft_golden():
    from simultraj.alignment import SentencePair
    from simultraj.trajectory import META, Chunk, Trajectory

    pair = SentencePair(("Hallo",), ("Hello",), 0)
    traj = Trajectory((Chunk(1, 1),), pair, META)
    record = render_conversational(traj, system_msg="", template_id="llama2")
    assert record.text == "<s>[INST] Hallo [/INST] Hello</s>"
    assert len(record.loss_mask_spans) == 1
    start, end = record.loss_mask_spans[0]
    assert record.text[start:end] == "Hello"
    assert record.text[: start].rstrip().endswith("[/INST]")
    report("criterion 10 PASS: golden dialogue byte-exact, loss on 'Hello' only")


REAL_DATA_VARS = ("SIMULTRAJ_DEEN_SRC", "SIMULTRAJ_DEEN_TGT", "SIMULTRAJ_DEEN_ALIGN")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in REAL_DATA_VARS),
    reason="directional sanity needs real De-En bitext+alignments "
    "(set SIMULTRAJ_DEEN_SRC/TGT/ALIGN); not a desk-scale gate",
)
def test_criterion_11_directional_stats_on_real_data(tmp_path):
    src, tgt, align = (os.environ[v] for v in REAL_DATA_VARS)
    meta = tmp_path / "meta.jsonl"
    aug = tmp_path / "aug.jsonl"
    assert main(["curate", "--src", src, "--tgt", tgt, "--align", align, "--out", str(meta)]) in (0, 1)
    assert main(["augment", "--in", str(meta), "--out", str(aug), "--seed", "42"]) == 0

    def mean_chunks(path):
        with open(path, encoding="utf-8") as f:
            trajs = [from_record(json.loads(line)) for line in f if line.strip()]
        stats = corpus_stats(trajs)
        (only,) = stats.values()
        return only.chunks_per_trajectory.mean

    meta_mean = mean_chunks(meta)
    aug_mean = mean_chunks(aug)
    assert 8.0 <= meta_mean <= 13.0
    assert aug_mean * 3 <= meta_mean
    report(
        f"criterion 11 PASS: meta #chunk mean {meta_mean:.2f} in [8,13]; "
        f"augmented mean {aug_mean:.2f} at least 3x smaller"
    )


def test_criterion_12_train_inference_parity_5000_sessions():
    # SFT data and conversational decoding share one dialogue format: the
    # contexts a session's model sees, joined and closed with the flush, are the
    # SFT text of the trajectory the session realised.
    tpl = get_template(DEFAULT_TEMPLATE)
    rng = random.Random(1212)
    vocab = ["ta", "tb", "tc", "td", "te"]
    strategies = [SelectStrategy("lcp"), SelectStrategy("ralcp", 0.6), GREEDY]
    equal = empty_flush = 0
    for case in range(5_000):
        source = [f"s{i}" for i in range(1, rng.randint(1, 12) + 1)]
        chunk = rng.randint(1, 4)
        beam = rng.randint(1, 4)
        rounds = []
        for _ in range(-(-len(source) // chunk)):
            draw = rng.random()
            if draw < 0.5:  # agreeing beam: a commit will happen
                words = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
                rounds.append((words,) * beam)
            elif draw < 0.75:  # disagreeing beam: LCP and RALCP stall at beam > 1
                rounds.append(tuple((f"d{b}", rng.choice(vocab)) for b in range(beam)))
            else:  # empty candidates: stall, or a flush that commits nothing
                rounds.append(((),) * beam)
        model = ScriptRecorder(tuple(rounds))
        sim = run(source, model, chunk_size=chunk, strategy=rng.choice(strategies), beam=beam, pair_id=case)
        # Each round hands the model only what it appends, each prompt word once.
        assert [len(c.split()) for c in model.contexts] == [e.recompute_tokens_conversational for e in sim.events]
        flush = sim.events[-1].committed_words
        if not flush:
            empty_flush += 1
            continue
        text = render_conversational(realised_trajectory(sim)).text
        assert "".join(model.contexts) + tpl.turn_sep + " ".join(flush) + tpl.turn_close == text
        equal += 1
    assert equal > 3_000 and empty_flush > 0
    report(
        f"criterion 12 PASS: joined contexts + flush == SFT text of the realised trajectory in "
        f"{equal:,}/{equal:,} sessions; {empty_flush:,} sessions flushed nothing and were not compared"
    )
