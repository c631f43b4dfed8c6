import math
import random
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    committed,
    make_pair,
    meta_of,
    random_case,
    ref_cache_savings,
    ref_schedule_from_run,
    ref_simulated_wwt,
    trajectory_average_lagging,
)
from simultraj.augment import AugmentConfig, augment_pipeline, derive_rng, merge
from simultraj.metrics import (
    CostModel,
    _ULP_BITS,
    _exact,
    average_lagging,
    corpus_stats,
    corpus_stats_table,
    events_report,
    run_average_lagging,
    run_latency,
)
from simultraj.simulator import (
    GREEDY,
    PROMPT_MODES,
    ScriptedModel,
    SelectStrategy,
    dump_events_jsonl,
    load_events_jsonl,
    run,
    scripted_echo,
)
from simultraj.trajectory import MERGED, MERGED_SHIFTED, META, Chunk, Trajectory, from_record, to_record


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


@pytest.mark.parametrize(
    "g, source_len, expected",
    [([1, 1, 1], 1, 1.0), ([1, 1], 1, 1.0), ([1, 2, 2, 2], 2, 1.25), ([1, 3, 3], 3, 1.5)],
    ids=["one-by-three", "one-by-two", "tau-2-of-4", "tau-2-of-3"],
)
def test_tau_is_first_word_written_after_full_read(g, source_len, expected):
    assert average_lagging(g, source_len, len(g)) == expected
    assert al_by_direct_sum(g, source_len, len(g)) == expected


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


def records_of(sim):
    return [event._asdict() for event in sim.events]


def wwt(sim, cost, prompt_mode):
    return getattr(run_latency(records_of(sim), cost), f"wwt_{prompt_mode}")


def test_batched_commits_share_read_count():
    source = ["a", "b", "c", "d"]
    sim = run(source, scripted_echo(source, 4, beam=1), chunk_size=4, strategy=GREEDY, beam=1)
    al = run_latency(records_of(sim), CostModel()).al
    assert al == average_lagging([4, 4, 4, 4], 4, 4)


def test_wwt_pure_generation_cost():
    sim = run(["a", "b"], scripted_echo(["a", "b"], 1, beam=1), chunk_size=1, strategy=GREEDY, beam=1)
    assert wwt(sim, CostModel(0.0, 2.5), "conversational") == wwt(sim, CostModel(0.0, 2.5), "offline") == 2.5


def test_wwt_conversational_not_slower_than_offline():
    source = [f"w{i}" for i in range(1, 9)]
    sim = run(source, scripted_echo(source, 2, beam=1), chunk_size=2, strategy=GREEDY, beam=1)
    cost = CostModel(1.0, 0.0)
    assert wwt(sim, cost, "conversational") <= wwt(sim, cost, "offline")


def test_wwt_single_round_bounded_by_offline():
    source = ["a", "b", "c"]
    sim = run(source, scripted_echo(source, 5, beam=1), chunk_size=5, strategy=GREEDY, beam=1)
    assert sim.rounds == 1
    cost = CostModel(1.0, 1.0)
    assert wwt(sim, cost, "conversational") <= wwt(sim, cost, "offline")


def test_wwt_needs_committed_words():
    class Silent:
        def generate(self, context, beam):
            return [()]

    sim = run(["a"], Silent(), chunk_size=1, strategy=GREEDY, beam=1)
    assert run_latency(records_of(sim), CostModel())[:3] == (None, None, None)
    with pytest.raises(ValueError):
        run_average_lagging(sim)


def random_runs(rng, n_runs):
    """Runs over random sources whose scripts mix agreement, stalls and empty
    beams, so a run's last commit may come before its last read; about one in
    five runs is silent, its every candidate empty, and commits nothing."""
    vocab = ["ta", "tb", "tc", "td", "te"]
    for case in range(n_runs):
        source = [f"s{i}" for i in range(1, rng.randint(1, 12) + 1)]
        chunk = rng.randint(1, 4)
        beam = rng.randint(1, 4)
        silent = rng.random() < 0.2
        rounds = []
        for _ in range(-(-len(source) // chunk)):
            if silent or rng.random() < 0.15:
                rounds.append(((),) * beam)
            elif rng.random() < 0.7:
                words = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
                rounds.append((words,) * beam)
            else:
                rounds.append(tuple((f"d{b}", rng.choice(vocab)) for b in range(beam)))
        strategy = rng.choice([GREEDY, SelectStrategy("ralcp", 0.6), SelectStrategy("ralcp", 1.0)])
        yield run(source, ScriptedModel(tuple(rounds)), chunk_size=chunk, strategy=strategy,
                  beam=beam, prompt_mode=rng.choice(PROMPT_MODES), pair_id=case)


def test_events_report_matches_reference_per_run_values(tmp_path):
    # events_report over a dumped and reloaded log equals the SimRun-level
    # references averaged with fmean, exactly, in both prompt modes at once.
    rng = random.Random(31)
    path = str(tmp_path / "events.jsonl")
    silent_logs = 0
    for _ in range(300):
        sims = list(random_runs(rng, rng.randint(1, 6)))
        with open(path, "w", encoding="utf-8") as out:
            dump_events_jsonl(sims, out)
        cost = CostModel(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        speaking = [sim for sim in sims if committed(sim)]
        silent_logs += not speaking
        report = events_report(run_latency(r, cost) for _, r in load_events_jsonl(path))
        assert report.runs == len(sims)
        assert report.rounds_total == sum(sim.rounds for sim in sims)
        totals = [ref_cache_savings(sim) for sim in sims]
        assert report.recompute_total_conversational == sum(t["total_conversational"] for t in totals)
        assert report.recompute_total_offline == sum(t["total_offline"] for t in totals)
        wwt_means = {mode: getattr(report, f"wwt_simulated_mean_{mode}") for mode in PROMPT_MODES}
        if not speaking:
            assert report.al_mean is None and wwt_means == dict.fromkeys(PROMPT_MODES)
            continue
        al = []
        for sim in speaking:
            g = ref_schedule_from_run(sim)
            al.append(average_lagging(g, len(sim.source), len(g)))
        assert report.al_mean == fmean(al)
        for mode in PROMPT_MODES:
            assert wwt_means[mode] == fmean(ref_simulated_wwt(sim, cost, mode) for sim in speaking)
    assert silent_logs > 0


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
def test_exact_sum_rounds_as_fsum(values):
    """events_report sums its per-run values as exact ints, one at a time; one
    division rounds the sum to the float that fsum gives."""
    try:
        expected = repr(math.fsum(values))
    except OverflowError:  # fsum went past the float range part-way
        return
    assert repr(sum(map(_exact, values)) / (1 << _ULP_BITS)) == expected


def test_corpus_stats_single_trajectory():
    pair = make_pair(6, 6)
    traj = Trajectory((Chunk(3, 3), Chunk(3, 3)), pair, META)
    stats = corpus_stats([traj])[META]
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
    stats = corpus_stats(metas + merged)
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
    once = corpus_stats(trajs)[META]
    twice = corpus_stats(trajs + trajs)[META]
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
    stats = corpus_stats(trajs)[META]
    # counts 1 and 3: population std is 1.0 (sample std would be sqrt(2))
    assert math.isclose(stats.chunks_per_trajectory.std, 1.0)


def _mean_std(values):
    mean = sum(values) / len(values)
    return mean, max(sum(x * x for x in values) / len(values) - mean * mean, 0.0) ** 0.5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32), st.sampled_from([META, MERGED, MERGED_SHIFTED])),
                min_size=1, max_size=30))
def test_corpus_stats_equals_mean_and_std_of_plain_lists(picks):
    trajs = []
    for case, (seed, provenance) in enumerate(picks):
        traj = meta_of(*random_case(random.Random(seed), max_len=12, pair_id=case))[1]
        if provenance == MERGED:
            traj = merge(traj, AugmentConfig(seed=seed), derive_rng(seed, case))
        elif provenance == MERGED_SHIFTED:
            traj = augment_pipeline(traj, AugmentConfig(seed=seed))
        trajs.append(traj)
    expected = {}
    for provenance in {traj.provenance for traj in trajs}:
        group = [traj for traj in trajs if traj.provenance == provenance]
        chunks = [chunk for traj in group for chunk in traj.chunks]
        expected[provenance] = (
            len(group),
            _mean_std([len(traj.chunks) for traj in group]),
            _mean_std([chunk.n_read for chunk in chunks]),
            _mean_std([chunk.n_write for chunk in chunks]),
        )
    assert corpus_stats(trajs) == expected


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
    events = [[e._asdict() for e in sim.events]]
    report = events_report(run_latency(r, CostModel(1.0, 0.0)) for r in events)
    assert report.runs == 1
    assert report.rounds_total == 2
    assert report.al_mean == run_average_lagging(sim)
    assert report.recompute_total_conversational < report.recompute_total_offline
