import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_min_read_counts,
    count_verify,
    make_pair,
    meta_of,
    random_case,
    read_counts_before_write,
    ref_from_record,
    write_read_counts,
)
from simultraj.alignment import sufficient_sets
from simultraj.monotonic import MonotonicPlan, monotonicize
from simultraj.trajectory import (
    META,
    PROVENANCES,
    Chunk,
    Trajectory,
    build_meta,
    from_record,
    to_record,
    verify,
)
from simultraj.cli import main
from simultraj.metrics import corpus_stats, corpus_stats_table


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-3, 6)] * 3), max_size=6),
    st.integers(1, 12),
    st.integers(1, 12),
    st.none() | st.lists(st.integers(-2, 14), max_size=14),
)
def test_verify_matches_multi_pass_reference(counts, source_len, target_len, prefix_req):
    """The one-pass verify gives the multi-pass reference's messages, in its
    order, on chunk counts that are zero, negative or out of range, on pair
    lengths the chunks do not cover, and on plans whose requirements fall or
    whose length is not the target's."""
    traj = Trajectory(tuple(Chunk(*c) for c in counts), make_pair(source_len, target_len), META)
    plan = None if prefix_req is None else MonotonicPlan(tuple(prefix_req), (), source_len)
    assert verify(traj, plan) == count_verify(traj, plan)


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
    one = build_meta(monotonicize(sufficient_sets(pair, links), 6), pair)
    two = build_meta(monotonicize(sufficient_sets(pair, links), 6), pair)
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


def test_jsonl_file_round_trip(tmp_path, capsys):
    # stats reads a trajectory file through the reader augment and format use.
    rng = random.Random(15)
    trajs = [meta_of(*random_case(rng, max_len=8, pair_id=i))[1] for i in range(20)]
    path = tmp_path / "trajs.jsonl"
    lines = [json.dumps(to_record(traj), ensure_ascii=False) for traj in trajs]
    path.write_text("\n".join(lines[:10] + [""] + lines[10:]) + "\n", encoding="utf-8")
    assert [from_record(json.loads(line)) for line in lines] == trajs
    assert main(["stats", "--in", str(path)]) == 0
    assert capsys.readouterr().out == corpus_stats_table(corpus_stats(trajs)) + "\n"


class _List(list):
    pass


class _Dict(dict):
    pass


# Values that break one part of a record: a container of the wrong type, a
# word that is not a string, is empty or holds whitespace (as str.split sees
# it), and a shifted count that is not an int (bool, float) or is one but huge.
NOT_CONTAINERS = ("ab", 3, None, {})
BAD_WORDS = (1, None, ["a"], "", "a b", " a", "a\t", "\u3000", "a\x1cb")
SHIFTED = (True, False, 1.0, 0.0, 10**30, -1)
# One fault in one chunk: (kind, key, value).
CHUNK_FAULTS = (
    *(("missing", key, None) for key in ("read", "write", "shifted")),
    *(("chunk", None, value) for value in (*NOT_CONTAINERS, _Dict)),
    *(("side", key, value) for key in ("read", "write") for value in (*NOT_CONTAINERS, _List, tuple)),
    *(("word", key, word) for key in ("read", "write") for word in BAD_WORDS),
    *(("shifted", "shifted", value) for value in SHIFTED),
)


def _break_chunk(chunks: list, c: int, fault: tuple, k: int) -> None:
    """Apply one fault to chunk c; a word fault replaces word k (mod its length)."""
    kind, key, value = fault
    if kind == "missing":
        del chunks[c][key]
    elif kind == "chunk":
        chunks[c] = value(chunks[c]) if value is _Dict else value
    elif kind == "word":
        chunks[c][key][k % len(chunks[c][key])] = value
    else:
        chunks[c][key] = value(chunks[c][key]) if value in (_List, tuple) else value


def assert_same_as_reference(record: object) -> None:
    """from_record returns what ref_from_record returns, or raises the same error."""
    try:
        expected = ref_from_record(record)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            from_record(record)
        assert str(got.value) == str(exc)
    else:
        assert repr(from_record(record)) == repr(expected)  # the types too


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=4),
    st.integers(-5, 5),
    st.sampled_from(PROVENANCES),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(CHUNK_FAULTS), st.sampled_from(CHUNK_FAULTS)), max_size=4),
)
def test_from_record_matches_reference_on_broken_records(counts, pair_id, provenance, c, doubles):
    pair = make_pair(sum(n[0] for n in counts), sum(n[1] for n in counts), pair_id)
    traj = Trajectory(tuple(Chunk(r, w, min(s, w)) for r, w, s in counts), pair, provenance)
    text = json.dumps(to_record(traj))  # loaded anew for each fault: lists, as a JSONL reader gets them
    assert from_record(json.loads(text)) == traj
    n = len(counts)
    for fault in CHUNK_FAULTS:  # each fault alone, in chunk c
        record = json.loads(text)
        _break_chunk(record["chunks"], c % n, fault, c)
        assert_same_as_reference(record)
    for offset, first, second in doubles:  # two faults in different chunks
        if n > 1:
            record = json.loads(text)
            _break_chunk(record["chunks"], c % n, first, c)
            _break_chunk(record["chunks"], (c + 1 + offset % (n - 1)) % n, second, offset)
            assert_same_as_reference(record)
    for swap in (*NOT_CONTAINERS, _List, tuple, "empty", _Dict):
        record = json.loads(text)
        if swap is _Dict:
            record = _Dict(record)
        elif swap == "empty":
            record["chunks"] = []
        else:
            record["chunks"] = swap(record["chunks"]) if swap in (_List, tuple) else swap
        assert_same_as_reference(record)


def test_record_words_materialized():
    pair = make_pair(2, 1)
    traj = build_meta(MonotonicPlan((1,), (), 2), pair)
    # Words are tuples in memory and arrays in JSON: compare what a reader gets.
    record = json.loads(json.dumps(to_record(traj)))
    assert record["chunks"] == [{"read": ["s1", "s2"], "write": ["t1"], "shifted": 0}]
    debug = json.loads(json.dumps(to_record(traj, debug_indices=True)))
    assert debug["indices"] == [{"read": [1, 2], "write": [1]}]
