"""Monotonicization of alignment graphs into nondecreasing source-prefix plans.

A target token that needs an earlier source token than its predecessor would
force reordering during streaming translation. The repair walks targets left to
right keeping a running prefix requirement m_j:

    m_0 = 1                        (at least one read before any write)
    m_j = max(m_{j-1}, max(a_j))   with max({}) treated as m_{j-1}

Whenever a_j's own maximum falls below m_{j-1}, or a_j is empty, an edge
(m_{j-1}, j) is added so every target has an anchor and the augmented graph
satisfies the monotonic condition.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class MonotonicPlan(NamedTuple):
    """Per-target minimal source-prefix lengths plus the edges added to repair order."""

    prefix_req: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]
    source_len: int

    @property
    def target_len(self) -> int:
        return len(self.prefix_req)


def monotonicize(s: Sequence[frozenset[int]], source_len: int) -> MonotonicPlan:
    """Build the nondecreasing prefix requirement and record repair edges from
    the sufficient sets, one per target (as `alignment.sufficient_sets` returns)."""
    if len(s) < 1 or source_len < 1:
        raise ValueError("need at least one target token and one source token")
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
