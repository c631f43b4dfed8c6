import math
import random

import pytest

from conftest import make_pair, meta_of, random_case
from simultraj.augment import AugmentConfig, derive_rng, merge
from simultraj.metrics import (
    CostModel,
    average_lagging,
    corpus_stats,
    corpus_stats_table,
    events_report,
    run_average_lagging,
    schedule_from_run,
    simulated_wwt,
    trajectory_average_lagging,
)
from simultraj.simulator import GREEDY, event_to_record, run, scripted_echo
from simultraj.trajectory import META, Chunk, Trajectory, from_record, to_record


def al_by_direct_sum(g, source_len, target_len):
    """Transcription of the definition, summed term by term."""
    tau = next((t for t in range(1, target_len + 1) if g[t - 1] == source_len), target_len)
    rate = target_len / source_len
    return sum(g[t - 1] - (t - 1) / rate for t in range(1, tau + 1)) / tau


def wait_k_schedule(k, source_len, target_len):
    return [min(k + t - 1, source_len) for t in range(1, target_len + 1)]


def test_write_after_full_read_lags_by_source_length():
    for source_len, target_len in [(2, 2), (5, 9), (7, 3)]:
        g = [source_len] * target_len
        assert average_lagging(g, source_len, target_len) == source_len


def test_wait_k_oracle():
    for k in range(1, 9):
        g = wait_k_schedule(k, 10, 10)
        expected = al_by_direct_sum(g, 10, 10)
        assert abs(expected - k) < 1e-9
        assert abs(average_lagging(g, 10, 10) - k) < 1e-9


def test_flat_two_by_two_schedule():
    assert average_lagging([2, 2], 2, 2) == 2.0


def test_wait_k_invariant_under_uniform_scaling():
    k = 3
    for scale in (1, 2, 4):
        source_len = target_len = 10 * scale
        g = wait_k_schedule(k, source_len, target_len)
        assert abs(average_lagging(g, source_len, target_len) - k) < 1e-9


def test_average_lagging_validates_inputs():
    with pytest.raises(ValueError):
        average_lagging([], 3, 0)
    with pytest.raises(ValueError):
        average_lagging([0, 1], 3, 2)
    with pytest.raises(ValueError):
        average_lagging([2, 1], 3, 2)
    with pytest.raises(ValueError):
        average_lagging([1, 4], 3, 2)


def test_run_and_trajectory_schedules_agree():
    # The same READ/WRITE schedule expressed as a sim run and as a trajectory
    # must produce one AL value through both code paths.
    source = [f"w{i}" for i in range(1, 7)]
    sim = run(source, scripted_echo(source, 2, beam=1), chunk_size=2, strategy=GREEDY, beam=1)
    chunks = [Chunk(len(e.read_words), len(e.committed_words)) for e in sim.events]
    pair = make_pair(sum(c.n_read for c in chunks), sum(c.n_write for c in chunks))
    traj = Trajectory(tuple(chunks), pair, META)
    assert run_average_lagging(sim) == trajectory_average_lagging(traj)


def test_batched_commits_share_read_count():
    source = ["a", "b", "c", "d"]
    sim = run(source, scripted_echo(source, 4, beam=1), chunk_size=4, strategy=GREEDY, beam=1)
    assert schedule_from_run(sim) == [4, 4, 4, 4]


def test_wwt_pure_generation_cost():
    sim = run(["a", "b"], scripted_echo(["a", "b"], 1, beam=1), chunk_size=1, strategy=GREEDY, beam=1)
    assert simulated_wwt(sim, CostModel(0.0, 2.5)) == 2.5


def test_wwt_conversational_not_slower_than_offline():
    source = [f"w{i}" for i in range(1, 9)]
    sim = run(source, scripted_echo(source, 2, beam=1), chunk_size=2, strategy=GREEDY, beam=1)
    cost = CostModel(1.0, 0.0)
    assert simulated_wwt(sim, cost, "conversational") <= simulated_wwt(sim, cost, "offline")


def test_wwt_single_round_bounded_by_offline():
    source = ["a", "b", "c"]
    sim = run(source, scripted_echo(source, 5, beam=1), chunk_size=5, strategy=GREEDY, beam=1)
    assert sim.rounds == 1
    cost = CostModel(1.0, 1.0)
    assert simulated_wwt(sim, cost, "conversational") <= simulated_wwt(sim, cost, "offline")


def test_wwt_needs_committed_words():
    class Silent:
        def generate(self, context, beam):
            from simultraj.simulator import Candidate

            return [Candidate(())]

    sim = run(["a"], Silent(), chunk_size=1, strategy=GREEDY, beam=1)
    with pytest.raises(ValueError):
        simulated_wwt(sim, CostModel())


def test_corpus_stats_single_trajectory():
    pair = make_pair(6, 6)
    traj = Trajectory((Chunk(3, 3), Chunk(3, 3)), pair, META)
    stats = corpus_stats([traj]).by_provenance[META]
    assert stats.trajectories == 1
    assert (stats.chunks_per_trajectory.mean, stats.chunks_per_trajectory.std) == (2.0, 0.0)
    assert (stats.source_words_per_chunk.mean, stats.source_words_per_chunk.std) == (3.0, 0.0)
    assert (stats.target_words_per_chunk.mean, stats.target_words_per_chunk.std) == (3.0, 0.0)


def test_corpus_stats_merge_reduces_mean_chunk_count():
    rng = random.Random(19)
    metas, merged = [], []
    for case in range(100):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        metas.append(meta)
        merged.append(merge(meta, AugmentConfig(), derive_rng(5, case)))
    stats = corpus_stats(metas + merged).by_provenance
    assert (
        stats["merged"].chunks_per_trajectory.mean
        <= stats["meta"].chunks_per_trajectory.mean
    )


def test_corpus_stats_self_concatenation_invariant():
    rng = random.Random(20)
    trajs = []
    for case in range(50):
        pair, a = random_case(rng, max_len=8, pair_id=case)
        trajs.append(meta_of(pair, a)[1])
    once = corpus_stats(trajs).by_provenance[META]
    twice = corpus_stats(trajs + trajs).by_provenance[META]
    assert math.isclose(once.chunks_per_trajectory.mean, twice.chunks_per_trajectory.mean)
    assert math.isclose(once.chunks_per_trajectory.std, twice.chunks_per_trajectory.std)
    assert math.isclose(once.source_words_per_chunk.std, twice.source_words_per_chunk.std)


def test_corpus_stats_population_std():
    pair_a = make_pair(1, 1, 0)
    pair_b = make_pair(3, 3, 1)
    trajs = [
        Trajectory((Chunk(1, 1),), pair_a, META),
        Trajectory((Chunk(1, 1), Chunk(1, 1), Chunk(1, 1)), pair_b, META),
    ]
    stats = corpus_stats(trajs).by_provenance[META]
    # counts 1 and 3: population std is 1.0 (sample std would be sqrt(2))
    assert math.isclose(stats.chunks_per_trajectory.std, 1.0)


def test_corpus_stats_rejects_empty():
    with pytest.raises(ValueError):
        corpus_stats([])


def test_stats_round_trip_through_records():
    rng = random.Random(21)
    trajs = [meta_of(*random_case(rng, max_len=8, pair_id=i))[1] for i in range(40)]
    direct = corpus_stats(trajs)
    reparsed = corpus_stats(from_record(to_record(t)) for t in trajs)
    assert corpus_stats_table(direct) == corpus_stats_table(reparsed)


def test_events_report_aggregates():
    source = [f"w{i}" for i in range(1, 5)]
    sim = run(source, scripted_echo(source, 2, beam=1), chunk_size=2, strategy=GREEDY, beam=1)
    events = [[event_to_record(sim, e) for e in sim.events]]
    report = events_report(events, CostModel(1.0, 0.0), "conversational")
    assert report.runs == 1
    assert report.rounds_total == 2
    assert report.al_mean == run_average_lagging(sim)
    assert report.recompute_total_conversational < report.recompute_total_offline
    assert "AL" in report.table()
