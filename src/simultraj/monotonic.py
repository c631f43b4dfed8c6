"""Monotonicization of alignment graphs into nondecreasing source-prefix plans.

A target token that needs an earlier source token than its predecessor would
force reordering during streaming translation. The repair walks targets left to
right keeping a running prefix requirement m_j:

    m_0 = 1                        (at least one read before any write)
    m_j = max(m_{j-1}, max(a_j))   with max({}) treated as m_{j-1}

Whenever a_j's own maximum falls below m_{j-1}, or a_j is empty, an edge
(m_{j-1}, j) is added so every target has an anchor and the augmented graph
satisfies the monotonic condition.

Only max(a_j) enters the plan, so `plan_links` builds it from a pair's
links in one pass, keeping each target's highest linked source position.
`monotonicize` builds the same plan from the sufficient sets a_j themselves
(`alignment.sufficient_sets`); it is the set-based reference.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from simultraj.alignment import SentencePair


class MonotonicPlan(NamedTuple):
    """Per-target minimal source-prefix lengths plus the edges added to repair order."""

    prefix_req: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]
    source_len: int

    @property
    def target_len(self) -> int:
        return len(self.prefix_req)


def _check_shape(target_len: int, source_len: int) -> None:
    if target_len < 1 or source_len < 1:
        raise ValueError("need at least one target token and one source token")


def plan_links(pair: SentencePair, links: Iterable[tuple[int, int]]) -> MonotonicPlan:
    """The plan `monotonicize(sufficient_sets(pair, links), I)` returns, from
    the 1-based links in one pass: the highest source position per target (0
    for a target with no link), then the running max."""
    _check_shape(pair.target_len, pair.source_len)
    top = [0] * pair.target_len
    for i, j in links:
        if i > top[j - 1]:
            top[j - 1] = i
    prefix_req: list[int] = []
    added: list[tuple[int, int]] = []
    m = 1
    for j, t in enumerate(top, start=1):
        if t < m:  # no link, or every link behind m_{j-1}
            added.append((m, j))
        else:
            m = t
        prefix_req.append(m)
    return MonotonicPlan(tuple(prefix_req), tuple(added), pair.source_len)


def monotonicize(s: Sequence[frozenset[int]], source_len: int) -> MonotonicPlan:
    """Build the nondecreasing prefix requirement and record repair edges from
    the sufficient sets, one per target (as `alignment.sufficient_sets` returns)."""
    _check_shape(len(s), source_len)
    prefix_req: list[int] = []
    added: list[tuple[int, int]] = []
    prev = 1
    for j, a in enumerate(s, start=1):
        if not a:
            added.append((prev, j))
            m = prev
        else:
            m = max(a)
            if m < prev:
                added.append((prev, j))
                m = prev
        prefix_req.append(m)
        prev = m
    return MonotonicPlan(tuple(prefix_req), tuple(added), source_len)
