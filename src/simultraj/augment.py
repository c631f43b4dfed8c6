"""Merge and shift augmentation of meta trajectories.

Merge coarsens chunking (one group of delta consecutive chunks becomes one
chunk); shift delays the tail of a WRITE into the next chunk. Both conserve the
words and their order, and only ever delay writes.

Sampling order is pinned for reproducibility: merge draws one delta per group
(including the final partial group) while traversing left to right; shift then
visits chunks left to right, skipping the last chunk and any chunk whose current
write holds fewer than two tokens, and draws one Bernoulli(beta) per visited
chunk plus one rho draw only when the Bernoulli succeeds. Per-pair generators
are derived from (seed, pair_id) via blake2b, so any degree of data parallelism
yields identical output.
"""

from __future__ import annotations

import random
from collections import namedtuple

from simultraj.trajectory import MERGED, MERGED_SHIFTED, META, Chunk, Trajectory, _chunk

# Defaults: merge 2..10 consecutive chunks; shift with probability 0.5 at a
# proportion drawn from U(0.5, 0.9).
DEFAULT_DELTA_MIN = 2
DEFAULT_DELTA_MAX = 10
DEFAULT_BETA = 0.5
DEFAULT_RHO_MIN = 0.5
RHO_MAX = 0.9


class AugmentConfig(namedtuple("AugmentConfig", "delta_min delta_max beta rho_min seed")):
    __slots__ = ()

    def __new__(
        cls,
        delta_min: int = DEFAULT_DELTA_MIN,
        delta_max: int = DEFAULT_DELTA_MAX,
        beta: float = DEFAULT_BETA,
        rho_min: float = DEFAULT_RHO_MIN,
        seed: int = 0,
    ) -> AugmentConfig:
        if delta_min < 1:
            raise ValueError("delta_min must be >= 1")
        if delta_max < delta_min:
            raise ValueError("delta_max must be >= delta_min")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 < rho_min < RHO_MAX:
            raise ValueError(f"rho_min must be in (0, {RHO_MAX})")
        return tuple.__new__(cls, (delta_min, delta_max, beta, rho_min, seed))


def derive_rng(seed: int, pair_id: int) -> random.Random:
    """Stable per-pair generator; independent of processing order and platform."""
    import hashlib  # on first use: of the CLI stages only augment needs it, and it loads OpenSSL
    digest = hashlib.blake2b(f"{seed}\x1f{pair_id}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def merge(traj: Trajectory, cfg: AugmentConfig, rng: random.Random) -> Trajectory:
    """Group delta consecutive chunks at a time, concatenating reads and writes."""
    if traj.provenance != META:
        raise ValueError(f"record {traj.pair_id}: provenance {traj.provenance!r} is not meta")
    merged: list[Chunk] = []
    pos = 0
    while pos < len(traj.chunks):
        delta = rng.randint(cfg.delta_min, cfg.delta_max)
        group = traj.chunks[pos : pos + delta]
        reads, writes, _ = zip(*group)
        merged.append(_chunk((sum(reads), sum(writes), 0)))
        pos += len(group)
    return tuple.__new__(Trajectory, (tuple(merged), traj.pair, MERGED))


def shift(traj: Trajectory, cfg: AugmentConfig, rng: random.Random) -> Trajectory:
    """Move the tail of each selected WRITE into the next chunk's WRITE."""
    if traj.provenance != MERGED:
        raise ValueError(f"record {traj.pair_id}: provenance {traj.provenance!r} is not merged")
    chunks = list(traj.chunks)
    for c in range(len(chunks) - 1):
        cur = chunks[c]
        if cur.n_write < 2:
            continue
        if rng.random() >= cfg.beta:
            continue
        rho = rng.uniform(cfg.rho_min, RHO_MAX)
        k = max(1, int(rho * cur.n_write))  # <= n_write - 1: rho < 1 and n_write >= 2
        moved = cur.n_write - k
        nxt = chunks[c + 1]
        chunks[c] = _chunk((cur.n_read, k, min(cur.shifted_prefix_len, k)))
        chunks[c + 1] = _chunk((nxt.n_read, moved + nxt.n_write, moved))
    return tuple.__new__(Trajectory, (tuple(chunks), traj.pair, MERGED_SHIFTED))


def augment_pipeline(traj: Trajectory, cfg: AugmentConfig) -> Trajectory:
    """merge then shift, with the RNG derived from (cfg.seed, pair_id)."""
    rng = derive_rng(cfg.seed, traj.pair_id)
    return shift(merge(traj, cfg, rng), cfg, rng)
