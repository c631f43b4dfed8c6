import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import augmented_sets, is_monotonic, make_pair, random_case
from simultraj.alignment import SentencePair, parse_pharaoh, sufficient_sets
from simultraj.monotonic import monotonicize, plan_links


def reordered_example():
    pair = make_pair(2, 2)
    a = frozenset({(1, 1), (2, 1), (1, 2)})
    return pair, sufficient_sets(pair, a)


def test_reordering_repaired_with_one_edge():
    _, s = reordered_example()
    plan = monotonicize(s, 2)
    assert plan.prefix_req == (2, 2)
    assert plan.added_edges == ((2, 2),)


def test_already_monotonic_untouched():
    pair = make_pair(3, 3)
    a = frozenset({(1, 1), (2, 2), (3, 3)})
    plan = monotonicize(sufficient_sets(pair, a), 3)
    assert plan.prefix_req == (1, 2, 3)
    assert plan.added_edges == ()


def test_unaligned_target_inherits_requirement():
    pair = make_pair(2, 2)
    a = frozenset({(2, 2)})
    s = sufficient_sets(pair, a)
    plan = monotonicize(s, 2)
    assert plan.prefix_req == (1, 2)
    assert plan.added_edges == ((1, 1),)
    assert is_monotonic(augmented_sets(s, plan))


def test_rejects_degenerate_shapes():
    pair = make_pair(1, 1)
    s = sufficient_sets(pair, frozenset())
    with pytest.raises(ValueError):
        monotonicize(s, 0)


def test_augmented_graph_is_monotonic_and_total():
    rng = random.Random(7)
    for case in range(400):
        pair, links = random_case(rng, max_len=9, pair_id=case)
        s = sufficient_sets(pair, links)
        plan = monotonicize(s, pair.source_len)
        aug = augmented_sets(s, plan)
        assert is_monotonic(aug)
        assert all(aug), "every target must end up with an anchor"
        assert not set(plan.added_edges) & links


def test_prefix_requirements_nondecreasing_and_bounded():
    rng = random.Random(8)
    for case in range(400):
        pair, a = random_case(rng, max_len=9, pair_id=case)
        plan = monotonicize(sufficient_sets(pair, a), pair.source_len)
        assert all(1 <= m <= pair.source_len for m in plan.prefix_req)
        assert all(a_ <= b_ for a_, b_ in zip(plan.prefix_req, plan.prefix_req[1:]))


def test_idempotent_on_monotonic_input():
    rng = random.Random(9)
    for case in range(300):
        pair, a = random_case(rng, max_len=9, pair_id=case)
        s = sufficient_sets(pair, a)
        plan = monotonicize(s, pair.source_len)
        aug = augmented_sets(s, plan)
        again = monotonicize(aug, pair.source_len)
        assert again.added_edges == ()
        assert again.prefix_req == tuple(max(x) for x in aug)
        for j, x in enumerate(s):
            if x:
                assert again.prefix_req[j] >= max(x)


def exhaustive_small_alignments(max_side=3):
    for source_len in range(1, max_side + 1):
        for target_len in range(1, max_side + 1):
            cells = [
                (i, j)
                for i in range(1, source_len + 1)
                for j in range(1, target_len + 1)
            ]
            for bits in range(2 ** len(cells)):
                links = frozenset(c for k, c in enumerate(cells) if bits >> k & 1)
                yield source_len, target_len, links


def test_every_added_edge_is_necessary():
    # Dropping any single added edge must either break monotonic order or
    # strip an unaligned target of its only anchor.
    cases = list(exhaustive_small_alignments(2))
    rng = random.Random(10)
    for case in range(300):
        pair, links = random_case(rng, max_len=6, pair_id=case)
        cases.append((pair.source_len, pair.target_len, links))
    for source_len, target_len, links in cases:
        pair = make_pair(source_len, target_len)
        s = sufficient_sets(pair, links)
        plan = monotonicize(s, source_len)
        aug = augmented_sets(s, plan)
        for dropped in plan.added_edges:
            thinned = list(set(x) for x in aug)
            thinned[dropped[1] - 1].discard(dropped[0])
            assert (not is_monotonic(thinned)) or not thinned[dropped[1] - 1]


@st.composite
def pharaoh_cases(draw):
    """(I, J, 0-based links in line order): duplicates and any order allowed,
    so links may go backwards and targets may have none."""
    source_len, target_len = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    link = st.tuples(st.integers(0, source_len - 1), st.integers(0, target_len - 1))
    links = draw(st.lists(link, max_size=3 * target_len))
    links += draw(st.lists(st.sampled_from(links), max_size=4)) if links else []
    return source_len, target_len, draw(st.permutations(links))


@given(pharaoh_cases())
@example((3, 3, [(2, 0), (1, 1), (0, 2)]))  # every link behind the one before
@example((4, 3, [(3, 0), (3, 0), (0, 1), (0, 1)]))  # duplicates; target 3 unlinked
@example((12, 12, []))
@example((1, 1, [(0, 0)]))
def test_plan_links_equals_set_based_plan(case):
    source_len, target_len, links0 = case
    pair = make_pair(source_len, target_len)
    parsed = parse_pharaoh(" ".join(f"{i}-{j}" for i, j in links0), source_len, target_len)
    reference = monotonicize(sufficient_sets(pair, parsed), source_len)
    plan = plan_links(pair, parsed)
    assert plan.prefix_req == reference.prefix_req
    assert plan.added_edges == reference.added_edges
    assert plan == reference
    # Links given as a sequence with repeats give the same plan as the set.
    links = [(i + 1, j + 1) for i, j in links0]
    assert plan_links(pair, links) == reference


def test_plan_links_rejects_degenerate_shapes():
    with pytest.raises(ValueError, match="need at least one target token and one source token"):
        plan_links(SentencePair._make((("a",), (), 0)), frozenset())
    with pytest.raises(ValueError, match="need at least one target token and one source token"):
        plan_links(SentencePair._make(((), ("x",), 0)), frozenset())
