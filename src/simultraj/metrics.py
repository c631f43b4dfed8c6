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

from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from simultraj.simulator import CONVERSATIONAL, SimRun
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


_conversational_recompute = itemgetter("recompute_tokens_conversational")
_offline_recompute = itemgetter("recompute_tokens_offline")


class CostModel(NamedTuple):
    per_recomputed_token: float = 1.0
    per_generated_word: float = 1.0


def run_latency(
    events: Sequence[dict], cost: CostModel, prompt_mode: str
) -> tuple[float, float] | None:
    """AL and simulated WWT of one run, from its event records in round order.

    Words committed in a round share that round's read count; WWT is the
    recompute of the given prompt mode at c1 plus generation at c2, per
    committed word. None when the run commits no word.
    """
    recompute = _conversational_recompute if prompt_mode == CONVERSATIONAL else _offline_recompute
    g: list[int] = []
    total = 0.0
    for event in events:
        words = len(event["committed_words"])
        g.extend([event["cumulative_source_read"]] * words)
        total += recompute(event) * cost.per_recomputed_token
        total += words * cost.per_generated_word
    if not g:
        return None
    return average_lagging(g, events[-1]["cumulative_source_read"], len(g)), total / len(g)


def run_average_lagging(sim: SimRun) -> float:
    """AL of a simulated run, through the reducer `eval` uses."""
    latency = run_latency([e._asdict() for e in sim.events], CostModel(), sim.prompt_mode)
    if latency is None:
        raise ValueError("run committed zero target words")
    return latency[0]


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
    """Latency over an event log; the means are None when no run committed a word."""

    runs: int
    al_mean: float | None
    wwt_simulated_mean: float | None
    rounds_total: int
    recompute_total_conversational: int
    recompute_total_offline: int

    def table(self) -> str:
        rows = [
            ("runs", str(self.runs)),
            ("AL (words, mean)", _fixed4(self.al_mean)),
            ("WWT (simulated, mean)", _fixed4(self.wwt_simulated_mean)),
            ("rounds total", str(self.rounds_total)),
            ("recompute total conversational", str(self.recompute_total_conversational)),
            ("recompute total offline", str(self.recompute_total_offline)),
        ]
        return _table(rows)


def _fixed4(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


# Every finite float is a whole number of 2**-_ULP_BITS (the least subnormal),
# so events_report sums its per-run values exactly as ints; dividing such a sum
# by 2**_ULP_BITS rounds it once, to the float that fsum of the values gives.
_ULP_BITS = 1074


def _exact(x: float) -> int:
    """x in units of 2**-_ULP_BITS; OverflowError on an infinity."""
    n, d = x.as_integer_ratio()
    return n << _ULP_BITS + 1 - d.bit_length()  # d is a power of two


def events_report(event_runs: Iterable[list[dict]], cost: CostModel, prompt_mode: str) -> LatencyReport:
    """Aggregate a parsed event log, one list of event records per run, into one
    report. Each run is reduced by `run_latency` as it arrives and added to
    exact sums, so the runs may be streamed in constant memory."""
    al_sum = wwt_sum = 0  # see _exact
    runs = 0
    scored = 0  # runs that commit a word
    rounds = 0
    total_conv = 0
    total_off = 0
    for events in event_runs:
        runs += 1
        rounds += len(events)
        total_conv += sum(map(_conversational_recompute, events))
        total_off += sum(map(_offline_recompute, events))
        try:
            latency = run_latency(events, cost, prompt_mode)
            if latency is not None:
                al_sum += _exact(latency[0])
                wwt_sum += _exact(latency[1])
                scored += 1
        except (ValueError, ArithmeticError) as exc:  # ArithmeticError: a count too big for a float
            raise ValueError(f"run id {events[0]['id']}: {exc}") from None
    if not runs:
        raise ValueError("no runs in event log")
    unit = 1 << _ULP_BITS
    return LatencyReport(
        runs=runs,
        # The sum rounded as fsum rounds it, over the count, as statistics.fmean
        # computes a mean. A sum past the float range raises OverflowError.
        al_mean=al_sum / unit / scored if scored else None,
        wwt_simulated_mean=wwt_sum / unit / scored if scored else None,
        rounds_total=rounds,
        recompute_total_conversational=total_conv,
        recompute_total_offline=total_off,
    )
