"""Trajectory curation and incremental-decoding simulation for conversational simultaneous MT.

The pipeline runs bitext + word alignments through four stages:

1. ``alignment``  -- parse each Pharaoh line into its set of 1-based links
2. ``monotonic``  -- plan each target word's source prefix from its links
   (``plan_links``), repairing reordering into a nondecreasing plan
3. ``trajectory`` -- segment the plan into minimum-latency READ/WRITE chunks
4. ``augment``    -- merge/shift augmentation for latency generalization

``sftformat`` serializes trajectories into multi-turn SFT text with loss masks,
``simulator`` replays chunked incremental decoding with LCP/RALCP/greedy prefix
selection and per-round recompute accounting, ``metrics`` computes word-level
average lagging, simulated word wall time, and corpus statistics, and ``jsonl``
opens every input and holds the JSON codec.
"""

__version__ = "0.1.0"
