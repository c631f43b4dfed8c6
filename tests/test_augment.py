import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_pair,
    meta_of,
    random_case,
    ref_build_meta,
    ref_merge,
    ref_shift,
    ref_to_record,
    ref_verify,
    write_read_counts,
)
from simultraj.augment import AugmentConfig, augment_pipeline, derive_rng, merge, shift
from simultraj.trajectory import (
    MERGED,
    MERGED_SHIFTED,
    META,
    Chunk,
    Trajectory,
    build_meta,
    to_record,
    verify,
)
from simultraj.monotonic import MonotonicPlan


class ScriptedRng:
    """Feeds predetermined draws to merge/shift, in their documented order."""

    def __init__(self, ints=(), bernoullis=(), uniforms=()):
        self.ints = list(ints)
        self.bernoullis = list(bernoullis)
        self.uniforms = list(uniforms)

    def randint(self, lo, hi):
        return self.ints.pop(0)

    def random(self):
        return self.bernoullis.pop(0)

    def uniform(self, lo, hi):
        return self.uniforms.pop(0)


def diagonal_meta(n, pair_id=0):
    pair = make_pair(n, n, pair_id)
    return build_meta(MonotonicPlan(tuple(range(1, n + 1)), (), n), pair)


def test_config_defaults():
    cfg = AugmentConfig()
    assert (cfg.delta_min, cfg.delta_max, cfg.beta, cfg.rho_min) == (2, 10, 0.5, 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta_min": 0},
        {"delta_min": 5, "delta_max": 4},
        {"beta": 1.5},
        {"rho_min": 0.0},
        {"rho_min": 0.95},
    ],
)
def test_config_rejects_bad_ranges(kwargs):
    with pytest.raises(ValueError):
        AugmentConfig(**kwargs)


def test_merge_groups_scripted_deltas():
    meta = diagonal_meta(3)
    merged = merge(meta, AugmentConfig(), ScriptedRng(ints=[2, 2]))
    assert [c.n_write for c in merged.chunks] == [2, 1]
    assert merged.provenance == MERGED
    assert merged.chunks[0].n_read == 2


def test_merge_delta_one_is_identity():
    meta = diagonal_meta(4)
    merged = merge(meta, AugmentConfig(delta_min=1, delta_max=1), random.Random(0))
    assert merged.chunks == meta.chunks


def test_merge_requires_meta_provenance():
    meta = diagonal_meta(2)
    merged = merge(meta, AugmentConfig(), random.Random(0))
    with pytest.raises(ValueError):
        merge(merged, AugmentConfig(), random.Random(0))


def test_merge_chunk_count_bound():
    meta = diagonal_meta(10)
    cfg = AugmentConfig(delta_min=2, delta_max=10)
    for seed in range(1000):
        merged = merge(meta, cfg, random.Random(seed))
        assert len(merged.chunks) <= 10 // 2 + 1


def test_shift_hand_trace_split():
    pair = make_pair(2, 5, 1)
    merged = Trajectory((Chunk(1, 4), Chunk(1, 1)), pair, MERGED)
    # Bernoulli hits (0.0 < beta), rho=0.5 over 4 writes -> keep 2, move 2.
    shifted = shift(merged, AugmentConfig(), ScriptedRng(bernoullis=[0.0], uniforms=[0.5]))
    writes = [w for _, _, w in shifted.segments()]
    assert writes[0] == ("t1", "t2")
    assert writes[1] == ("t3", "t4", "t5")
    assert shifted.chunks[1].shifted_prefix_len == 2
    assert shifted.provenance == MERGED_SHIFTED


def test_shift_clamps_carried_prefix_when_shifted_again():
    pair = make_pair(3, 6, 1)
    merged = Trajectory((Chunk(1, 4), Chunk(1, 1), Chunk(1, 1)), pair, MERGED)
    # 4 writes at rho=0.5 keep 2 and move 2; the next chunk then holds 3 writes
    # with a carried prefix of 2, keeps 1 at rho=0.5 and moves 2 on.
    rng = ScriptedRng(bernoullis=[0.0, 0.0], uniforms=[0.5, 0.5])
    shifted = shift(merged, AugmentConfig(), rng)
    assert shifted.chunks == (Chunk(1, 2), Chunk(1, 1, 1), Chunk(1, 3, 2))


def test_shift_beta_zero_is_identity():
    pair = make_pair(2, 4, 2)
    merged = Trajectory((Chunk(1, 2), Chunk(1, 2)), pair, MERGED)
    shifted = shift(merged, AugmentConfig(beta=0.0), random.Random(5))
    assert shifted.chunks == merged.chunks


def test_shift_single_chunk_untouched():
    pair = make_pair(1, 3, 3)
    merged = Trajectory((Chunk(1, 3),), pair, MERGED)
    shifted = shift(merged, AugmentConfig(beta=1.0), random.Random(6))
    assert shifted.chunks == merged.chunks


def test_shift_skips_short_writes():
    pair = make_pair(2, 2, 4)
    merged = Trajectory((Chunk(1, 1), Chunk(1, 1)), pair, MERGED)
    shifted = shift(merged, AugmentConfig(beta=1.0), ScriptedRng())
    assert shifted.chunks == merged.chunks  # no draws consumed at all


def test_pipeline_identity_settings_preserve_meta():
    meta = diagonal_meta(5)
    cfg = AugmentConfig(delta_min=1, delta_max=1, beta=0.0, seed=99)
    out = augment_pipeline(meta, cfg)
    assert out.chunks == meta.chunks
    assert out.provenance == MERGED_SHIFTED


def test_pipeline_reproducible_records():
    rng = random.Random(14)
    cfg = AugmentConfig(seed=1234)
    for case in range(100):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        assert to_record(augment_pipeline(meta, cfg)) == to_record(augment_pipeline(meta, cfg))


def test_per_pair_rng_is_stable():
    assert derive_rng(42, 7).random() == derive_rng(42, 7).random()
    assert derive_rng(42, 7).random() != derive_rng(42, 8).random()


def test_augment_preserves_invariants_and_words():
    rng = random.Random(15)
    for case in range(400):
        pair, a = random_case(rng, max_len=12, pair_id=case)
        plan, meta = meta_of(pair, a)
        cfg = AugmentConfig(seed=rng.randrange(2**32))
        pair_rng = derive_rng(cfg.seed, pair.id)
        merged = merge(meta, cfg, pair_rng)
        shifted = shift(merged, cfg, pair_rng)
        for stage in (merged, shifted):
            assert verify(stage, plan) == []
            indices = to_record(stage, debug_indices=True)["indices"]
            reads = [i for c in indices for i in c["read"]]
            writes = [j for c in indices for j in c["write"]]
            assert reads == list(range(1, pair.source_len + 1))
            assert writes == list(range(1, pair.target_len + 1))


@st.composite
def alignment_cases(draw, max_len=10):
    source_len = draw(st.integers(1, max_len))
    target_len = draw(st.integers(1, max_len))
    links = draw(
        st.frozensets(
            st.tuples(st.integers(1, source_len), st.integers(1, target_len)),
            max_size=25,
        )
    )
    seed = draw(st.integers(0, 2**63))
    return source_len, target_len, links, seed


@settings(max_examples=300, deadline=None)
@given(alignment_cases())
def test_pipeline_sound_for_arbitrary_alignments(case):
    source_len, target_len, links, seed = case
    pair = make_pair(source_len, target_len)
    plan, meta = meta_of(pair, links)
    out = augment_pipeline(meta, AugmentConfig(seed=seed))
    assert verify(out, plan) == []
    indices = to_record(out, debug_indices=True)["indices"]
    assert [i for c in indices for i in c["read"]] == list(range(1, source_len + 1))
    assert [j for c in indices for j in c["write"]] == list(range(1, target_len + 1))


def test_augmentation_only_delays_writes():
    rng = random.Random(16)
    for case in range(300):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        cfg = AugmentConfig(seed=case)
        pair_rng = derive_rng(cfg.seed, pair.id)
        merged = merge(meta, cfg, pair_rng)
        shifted = shift(merged, cfg, pair_rng)
        g_meta = write_read_counts(meta)
        g_merged = write_read_counts(merged)
        g_shifted = write_read_counts(shifted)
        assert all(a_ <= b_ for a_, b_ in zip(g_meta, g_merged))
        assert all(a_ <= b_ for a_, b_ in zip(g_merged, g_shifted))


@st.composite
def augment_configs(draw):
    delta_min = draw(st.integers(1, 5))
    return AugmentConfig(
        delta_min=delta_min,
        delta_max=draw(st.integers(delta_min, 10)),
        beta=draw(st.floats(0.0, 1.0)),
        rho_min=draw(st.floats(0.01, 0.89)),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=400, deadline=None)
@given(alignment_cases(max_len=24), augment_configs())
def test_counts_match_position_tuple_reference(case, cfg):
    """Counts give the reference's records, verdicts and RNG draws at every stage."""
    source_len, target_len, links, _ = case
    pair = make_pair(source_len, target_len)
    plan, meta = meta_of(pair, links)
    rng, ref_rng = derive_rng(cfg.seed, pair.id), derive_rng(cfg.seed, pair.id)
    merged = merge(meta, cfg, rng)
    shifted = shift(merged, cfg, rng)
    ref_meta = ref_build_meta(plan, pair)
    ref_merged = ref_merge(ref_meta, cfg, ref_rng)
    ref_shifted = ref_shift(ref_merged, cfg, ref_rng)
    for stage, ref in ((meta, ref_meta), (merged, ref_merged), (shifted, ref_shifted)):
        for debug in (False, True):
            assert json.dumps(to_record(stage, debug)) == json.dumps(ref_to_record(ref, debug))
        assert verify(stage) == ref_verify(ref)
        assert verify(stage, plan) == ref_verify(ref, plan)
    assert rng.random() == ref_rng.random()
