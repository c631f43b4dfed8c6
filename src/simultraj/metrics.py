"""Latency metrics and corpus statistics.

Average lagging follows the standard word-level definition: with g[t] the
number of source words read when target word t is committed, r = J/I, and tau
the first t at which g[t] reaches I (or J if it never does),

    AL = (1/tau) * sum_{t=1..tau} ( g[t] - (t-1)/r )

Word wall time here is a cost-model proxy, not hardware timing: every output
is labeled "simulated". Corpus statistics use the population standard
deviation, matching the mean+-std convention of summary tables.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Sequence

from simultraj.simulator import SimRun
from simultraj.trajectory import Trajectory


def average_lagging(g: Sequence[int], source_len: int, target_len: int) -> float:
    """Word-level AL of a read schedule g over I source and J target words."""
    if target_len < 1 or len(g) != target_len:
        raise ValueError("g must hold one read count per target word, target_len >= 1")
    prev = 0
    tau = target_len
    for t, gt in enumerate(g, start=1):
        if not (1 <= gt <= source_len):
            raise ValueError(f"read count {gt} outside [1, {source_len}]")
        if gt < prev:
            raise ValueError("read schedule must be nondecreasing")
        if prev < gt == source_len:  # g reaches I here for the first time
            tau = t
        prev = gt
    rate = target_len / source_len
    return sum(g[t - 1] - (t - 1) / rate for t in range(1, tau + 1)) / tau


class CostModel(NamedTuple):
    per_recomputed_token: float = 1.0
    per_generated_word: float = 1.0


class RunLatency(NamedTuple):
    """One run's latency; AL and the WWTs are None when it commits no word."""

    al: float | None
    wwt_conversational: float | None
    wwt_offline: float | None
    recompute_conversational: int
    recompute_offline: int
    rounds: int


def run_latency(events: Iterable[dict], cost: CostModel) -> RunLatency:
    """AL, simulated WWT in both prompt modes, both recompute totals and the rounds
    of one run, from its event records in round order, in one pass that holds only
    the AL's read schedule, 8 bytes per committed word.

    Words committed in a round share that round's read count; a mode's WWT is
    its recompute at c1 plus generation at c2, per committed word.
    """
    c1, c2 = cost
    g = array("q")
    conv = off = rounds = read = 0
    wwt_conv = wwt_off = 0.0
    for rounds, event in enumerate(events, 1):
        words = len(event["committed_words"])
        read = event["cumulative_source_read"]
        g.fromlist([read] * words)
        r_conv, r_off = event["recompute_tokens_conversational"], event["recompute_tokens_offline"]
        conv += r_conv
        off += r_off
        # Each mode adds its recompute, then the generation, left to right.
        wwt_conv = wwt_conv + r_conv * c1 + words * c2
        wwt_off = wwt_off + r_off * c1 + words * c2
    if not g:
        return RunLatency(None, None, None, conv, off, rounds)
    al = average_lagging(g, read, len(g))
    return RunLatency(al, wwt_conv / len(g), wwt_off / len(g), conv, off, rounds)


def run_average_lagging(sim: SimRun) -> float:
    """AL of a simulated run, through the reducer `eval` uses."""
    al = run_latency([e._asdict() for e in sim.events], CostModel()).al
    if al is None:
        raise ValueError("run committed zero target words")
    return al


class MeanStd(NamedTuple):
    mean: float
    std: float


class ProvenanceStats(NamedTuple):
    trajectories: int
    chunks_per_trajectory: MeanStd
    source_words_per_chunk: MeanStd
    target_words_per_chunk: MeanStd


def _mean_std(n: int, total: int, total_sq: int) -> MeanStd:
    mean = total / n
    return MeanStd(mean, max(total_sq / n - mean * mean, 0.0) ** 0.5)


def corpus_stats(trajs: Iterable[Trajectory]) -> dict[str, ProvenanceStats]:
    """Chunk statistics per provenance, from exact integer sums and sums of squares
    of the chunks per trajectory and the source and target words per chunk."""
    sums: dict[str, list[int]] = {}
    for traj in trajs:
        s = sums.setdefault(traj.provenance, [0] * 7)
        n = len(traj.chunks)
        s[0] += 1
        s[1] += n
        s[2] += n * n
        for read, write, _ in traj.chunks:
            s[3] += read
            s[4] += read * read
            s[5] += write
            s[6] += write * write
    if not sums:
        raise ValueError("empty trajectory corpus")
    return {
        key: ProvenanceStats(
            trajectories=count,
            chunks_per_trajectory=_mean_std(count, chunks, chunks_sq),
            source_words_per_chunk=_mean_std(chunks, src, src_sq),
            target_words_per_chunk=_mean_std(chunks, tgt, tgt_sq),
        )
        for key, (count, chunks, chunks_sq, src, src_sq, tgt, tgt_sq) in sums.items()
    }


def corpus_stats_table(stats: dict[str, ProvenanceStats]) -> str:
    rows = [("provenance", "trajs", "#chunk", "#src word/chunk", "#tgt word/chunk")]
    for key in sorted(stats):
        ps = stats[key]
        rows.append(
            (
                key,
                str(ps.trajectories),
                f"{ps.chunks_per_trajectory.mean:.2f}±{ps.chunks_per_trajectory.std:.2f}",
                f"{ps.source_words_per_chunk.mean:.2f}±{ps.source_words_per_chunk.std:.2f}",
                f"{ps.target_words_per_chunk.mean:.2f}±{ps.target_words_per_chunk.std:.2f}",
            )
        )
    return _table(rows)


def _table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, with no trailing spaces."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    )


class LatencyReport(NamedTuple):
    """Latency over an event log, as `eval` prints it: one strict-JSON line of
    these fields in order. The means are None (null) when no run committed a word."""

    runs: int
    al_mean: float | None
    wwt_simulated_mean_conversational: float | None
    wwt_simulated_mean_offline: float | None
    rounds_total: int
    recompute_total_conversational: int
    recompute_total_offline: int


# Every finite float is a whole number of 2**-_ULP_BITS (the least subnormal),
# so events_report sums its per-run values exactly as ints; dividing such a sum
# by 2**_ULP_BITS rounds it once, to the float that fsum of the values gives.
_ULP_BITS = 1074


def _exact(x: float) -> int:
    """x in units of 2**-_ULP_BITS; OverflowError on an infinity."""
    n, d = x.as_integer_ratio()
    return n << _ULP_BITS + 1 - d.bit_length()  # d is a power of two


def events_report(latencies: Iterable[RunLatency]) -> LatencyReport:
    """Aggregate the runs' latencies into one report. Each is added to exact
    sums as it arrives, so the runs may be streamed in constant memory."""
    sums = [0, 0, 0]  # of the AL and both WWTs, see _exact
    runs = scored = rounds = total_conv = total_off = 0  # scored: runs that commit a word
    for al, wwt_conv, wwt_off, conv, off, n in latencies:
        runs += 1
        rounds += n
        total_conv += conv
        total_off += off
        if al is not None:
            sums = [total + _exact(x) for total, x in zip(sums, (al, wwt_conv, wwt_off))]
            scored += 1
    if not runs:
        raise ValueError("no runs in event log")
    # Each sum rounded as fsum rounds it, over the count, as statistics.fmean
    # computes a mean. A sum past the float range raises OverflowError.
    means = [total / (1 << _ULP_BITS) / scored if scored else None for total in sums]
    return LatencyReport(runs, *means, rounds, total_conv, total_off)
