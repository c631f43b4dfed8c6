import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import is_monotonic, make_pair, random_case, to_pharaoh
from simultraj.alignment import (
    SentencePair,
    parse_pharaoh,
    sufficient_sets,
)


def test_parse_identity_diagonal():
    links = parse_pharaoh("0-0 1-1", 2, 2)
    assert type(links) is frozenset
    assert links == {(1, 1), (2, 2)}


def test_parse_fan_in():
    assert parse_pharaoh("0-0 1-0", 2, 1) == {(1, 1), (2, 1)}


def raised(call, *args, **kwargs) -> ValueError:
    """The error `call` raises, which must be a plain ValueError."""
    with pytest.raises(ValueError) as exc:
        call(*args, **kwargs)
    assert type(exc.value) is ValueError
    return exc.value


def test_parse_out_of_range():
    exc = raised(parse_pharaoh, "0-0 5-0", 2, 1)
    assert str(exc) == "record 0: link (5,0) out of range for I=2, J=1"


def test_parse_malformed_token():
    # int() reads underscores, signs and non-ASCII digits; Pharaoh has none of them.
    for token in ("1:1", "ab", "1_0-0", "+1-0", "\u0661-0", "\uff10-\uff10"):
        exc = raised(parse_pharaoh, "0-0 " + token, 20, 20)
        assert str(exc) == f"record 0: malformed alignment token {token!r}"


def test_parse_error_names_record():
    exc = raised(parse_pharaoh, "9-9", 2, 2, record_id=17)
    assert str(exc) == "record 17: link (9,9) out of range for I=2, J=2"


def test_blank_line_is_empty_alignment():
    assert parse_pharaoh("", 3, 2) == frozenset()


def test_duplicates_collapse():
    assert parse_pharaoh("0-0 0-0 0-0", 1, 1) == {(1, 1)}


links_strategy = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30
)


@given(links_strategy)
def test_pharaoh_round_trip(links0):
    source_len = max((i for i, _ in links0), default=0) + 1
    target_len = max((j for _, j in links0), default=0) + 1
    links = frozenset((i + 1, j + 1) for i, j in links0)
    assert parse_pharaoh(to_pharaoh(links), source_len, target_len) == links


def test_sufficient_sets_reordered_pair():
    pair = make_pair(2, 2)
    a = frozenset({(1, 1), (2, 1), (1, 2)})
    s = sufficient_sets(pair, a)
    assert s == (frozenset({1, 2}), frozenset({1}))


def test_sufficient_sets_identity():
    pair = make_pair(3, 3)
    a = frozenset({(1, 1), (2, 2), (3, 3)})
    s = sufficient_sets(pair, a)
    assert [set(x) for x in s] == [{1}, {2}, {3}]


def test_sufficient_sets_unaligned():
    pair = make_pair(2, 2)
    s = sufficient_sets(pair, frozenset())
    assert all(not x for x in s)


def test_sufficient_sets_pure():
    pair = make_pair(4, 3)
    a = frozenset({(1, 2), (4, 1), (2, 3)})
    assert sufficient_sets(pair, a) == sufficient_sets(pair, a)


def test_is_monotonic_reordering_detected():
    pair = make_pair(2, 2)
    a = frozenset({(1, 1), (2, 1), (1, 2)})
    assert not is_monotonic(sufficient_sets(pair, a))


def test_is_monotonic_identity():
    pair = make_pair(3, 3)
    a = frozenset({(1, 1), (2, 2), (3, 3)})
    assert is_monotonic(sufficient_sets(pair, a))


def test_is_monotonic_skips_empty_sets():
    pair = make_pair(2, 3)
    a = frozenset({(2, 1), (2, 3)})
    s = sufficient_sets(pair, a)
    assert [set(x) for x in s] == [{2}, set(), {2}]
    assert is_monotonic(s)


def brute_pairwise_monotonic(sets) -> bool:
    nonempty = [(j, max(a)) for j, a in enumerate(sets) if a]
    return all(
        mj >= mk for k, (_, mk) in enumerate(nonempty) for _, mj in nonempty[k + 1 :]
    )


def test_is_monotonic_matches_pairwise_brute_force():
    rng = random.Random(2024)
    for case in range(500):
        pair, a = random_case(rng, max_len=8, pair_id=case)
        s = sufficient_sets(pair, a)
        assert is_monotonic(s) == brute_pairwise_monotonic(s)


def test_sentence_pair_rejects_empty_and_spaces():
    assert str(raised(SentencePair, (), ("x",))) == "record 0: empty source sentence"
    assert str(raised(SentencePair, ("a b",), ("x",))) == (
        "record 0: bad source word 'a b' (empty or contains whitespace)")
    assert str(raised(SentencePair, ("a",), ("",))) == (
        "record 0: bad target word '' (empty or contains whitespace)")
