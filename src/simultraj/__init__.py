"""Trajectory curation and incremental-decoding simulation for conversational simultaneous MT.

The pipeline runs bitext + word alignments through four stages:

1. ``alignment``  -- parse Pharaoh links, compute per-target sufficient source sets
2. ``monotonic``  -- repair reordering into a nondecreasing source-prefix plan
3. ``trajectory`` -- segment the plan into minimum-latency READ/WRITE chunks
4. ``augment``    -- merge/shift augmentation for latency generalization

``sftformat`` serializes trajectories into multi-turn SFT text with loss masks,
``simulator`` replays chunked incremental decoding with LCP/RALCP/greedy prefix
selection and per-round recompute accounting, and ``metrics`` computes word-level
average lagging, simulated word wall time, and corpus statistics.
"""

__version__ = "0.1.0"
