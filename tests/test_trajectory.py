import random

from conftest import brute_min_read_counts, make_pair, meta_of, random_case
from simultraj.alignment import AlignmentSet, sufficient_sets
from simultraj.monotonic import MonotonicPlan, monotonicize
from simultraj.trajectory import (
    META,
    Chunk,
    Trajectory,
    build_meta,
    dump_jsonl,
    from_record,
    load_jsonl,
    read_counts_before_write,
    to_record,
    verify,
    write_read_counts,
)


def test_single_chunk_for_flat_requirement():
    pair = make_pair(2, 2)
    traj = build_meta(MonotonicPlan((2, 2), ((2, 2),), 2), pair)
    assert [(c.n_read, c.n_write) for c in traj.chunks] == [(2, 2)]


def test_identity_diagonal_one_token_chunks():
    pair = make_pair(3, 3)
    traj = build_meta(MonotonicPlan((1, 2, 3), (), 3), pair)
    assert [(c.n_read, c.n_write) for c in traj.chunks] == [(1, 1), (1, 1), (1, 1)]


def test_trailing_source_flushed_into_final_read():
    pair = make_pair(4, 2)
    plan = MonotonicPlan((1, 3), (), 4)
    traj = build_meta(plan, pair)
    assert [(c.n_read, c.n_write) for c in traj.chunks] == [(1, 1), (3, 1)]
    assert verify(traj, plan) == []


def test_verify_clean_on_built_trajectories():
    rng = random.Random(11)
    for case in range(300):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        plan, traj = meta_of(pair, a)
        assert verify(traj, plan) == []
        assert len(traj.chunks) <= pair.source_len


def test_verify_flags_source_coverage():
    pair = make_pair(3, 2)
    broken = Trajectory((Chunk(2, 2),), pair, META)
    assert verify(broken) == ["source coverage violated"]


def test_verify_flags_insufficient_read():
    pair = make_pair(3, 2)
    plan = MonotonicPlan((2, 3), (), 3)
    premature = Trajectory((Chunk(1, 1), Chunk(2, 1)), pair, META)
    assert any(v.startswith("write sufficiency") for v in verify(premature, plan))


def test_verify_flags_shifted_prefix_overflow():
    pair = make_pair(1, 1)
    broken = Trajectory((Chunk(1, 1, shifted_prefix_len=5),), pair, META)
    assert verify(broken) == ["shifted prefix violated @chunk 0"]
    negative = Trajectory((Chunk(1, 1, shifted_prefix_len=-3),), pair, META)
    assert verify(negative) == ["shifted prefix violated @chunk 0"]


def test_meta_achieves_brute_force_minimum_latency():
    rng = random.Random(12)
    for case in range(150):
        pair, a = random_case(rng, max_len=5, pair_id=case)
        plan, traj = meta_of(pair, a)
        assert read_counts_before_write(traj, plan) == brute_min_read_counts(plan)


def test_uniform_counts_match_requirements_within_chunks():
    pair = make_pair(4, 3)
    plan = MonotonicPlan((2, 2, 3), (), 4)
    traj = build_meta(plan, pair)
    assert write_read_counts(traj) == [2, 2, 4]
    assert read_counts_before_write(traj, plan) == [2, 2, 3]


def test_pipeline_deterministic_end_to_end():
    pair = make_pair(6, 5, pair_id=3)
    links = frozenset({(3, 1), (1, 2), (5, 4)})
    a = AlignmentSet(links, 6, 5)
    one = build_meta(monotonicize(sufficient_sets(pair, a), 6), pair)
    two = build_meta(monotonicize(sufficient_sets(pair, a), 6), pair)
    assert one == two


def test_record_round_trip():
    rng = random.Random(13)
    for case in range(100):
        pair, a = random_case(rng, max_len=8, pair_id=case)
        _, traj = meta_of(pair, a)
        assert from_record(to_record(traj)) == traj


def test_record_round_trip_with_shifted_prefixes():
    from simultraj.augment import AugmentConfig, augment_pipeline

    rng = random.Random(14)
    seen_shift = False
    for case in range(100):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        traj = augment_pipeline(meta, AugmentConfig(seed=case))
        seen_shift = seen_shift or any(c.shifted_prefix_len for c in traj.chunks)
        assert from_record(to_record(traj)) == traj
    assert seen_shift


def test_jsonl_file_round_trip(tmp_path):
    rng = random.Random(15)
    trajs = [meta_of(*random_case(rng, max_len=8, pair_id=i))[1] for i in range(20)]
    path = tmp_path / "trajs.jsonl"
    assert dump_jsonl(trajs, str(path)) == 20
    assert list(load_jsonl(str(path))) == trajs


def test_record_words_materialized():
    pair = make_pair(2, 1)
    traj = build_meta(MonotonicPlan((1,), (), 2), pair)
    record = to_record(traj)
    assert record["chunks"] == [{"read": ["s1", "s2"], "write": ["t1"], "shifted": 0}]
    debug = to_record(traj, debug_indices=True)
    assert debug["indices"] == [{"read": [1, 2], "write": [1]}]
