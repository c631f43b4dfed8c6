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

from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Sequence

from simultraj.simulator import SimRun
from simultraj.trajectory import Trajectory, write_read_counts


def average_lagging(g: Sequence[int], source_len: int, target_len: int) -> float:
    """Word-level AL of a read schedule g over I source and J target words."""
    if target_len < 1 or len(g) != target_len:
        raise ValueError("g must hold one read count per target word, target_len >= 1")
    prev = 1
    for gt in g:
        if not (1 <= gt <= source_len):
            raise ValueError(f"read count {gt} outside [1, {source_len}]")
        if gt < prev:
            raise ValueError("read schedule must be nondecreasing")
        prev = gt
    tau = target_len
    for t, gt in enumerate(g, start=1):
        if gt == source_len:
            tau = t
            break
    rate = target_len / source_len
    return sum(g[t - 1] - (t - 1) / rate for t in range(1, tau + 1)) / tau


def schedule_from_run(sim: SimRun) -> list[int]:
    """g for a simulated run: words committed in a round share that round's read count."""
    g: list[int] = []
    for event in sim.events:
        g.extend([event.cumulative_source_read] * len(event.committed_words))
    return g


def run_average_lagging(sim: SimRun) -> float:
    g = schedule_from_run(sim)
    return average_lagging(g, len(sim.source), len(g))


def trajectory_average_lagging(traj: Trajectory) -> float:
    """AL on the flush-inclusive schedule `write_read_counts`, not on
    `read_counts_before_write`, which reads the final flush after the writes."""
    g = write_read_counts(traj)
    return average_lagging(g, traj.pair.source_len, traj.pair.target_len)


@dataclass(frozen=True)
class CostModel:
    per_recomputed_token: float = 1.0
    per_generated_word: float = 1.0


def simulated_wwt(sim: SimRun, cost: CostModel, prompt_mode: str | None = None) -> float:
    """Simulated cost per committed word: recompute at c1 plus generation at c2."""
    mode = prompt_mode or sim.prompt_mode
    total = 0.0
    generated = 0
    for event in sim.events:
        recompute = (
            event.recompute_tokens_conversational
            if mode == "conversational"
            else event.recompute_tokens_offline
        )
        total += recompute * cost.per_recomputed_token
        total += len(event.committed_words) * cost.per_generated_word
        generated += len(event.committed_words)
    if generated == 0:
        raise ValueError("run committed zero target words")
    return total / generated


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class ProvenanceStats:
    trajectories: int
    chunks_per_trajectory: MeanStd
    source_words_per_chunk: MeanStd
    target_words_per_chunk: MeanStd


@dataclass(frozen=True)
class CorpusStats:
    by_provenance: dict[str, ProvenanceStats]


class _Acc:
    """Running mean / population-std accumulator (single pass, O(1) memory)."""

    __slots__ = ("n", "total", "total_sq")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        self.total_sq += x * x

    def result(self) -> MeanStd:
        mean = self.total / self.n
        return MeanStd(mean, max(self.total_sq / self.n - mean * mean, 0.0) ** 0.5)


def corpus_stats(trajs: Iterable[Trajectory]) -> CorpusStats:
    accs: dict[str, tuple[_Acc, _Acc, _Acc]] = {}
    for traj in trajs:
        chunks, src, tgt = accs.setdefault(traj.provenance, (_Acc(), _Acc(), _Acc()))
        chunks.add(len(traj.chunks))
        for c in traj.chunks:
            src.add(c.n_read)
            tgt.add(c.n_write)
    if not accs:
        raise ValueError("empty trajectory corpus")
    return CorpusStats(
        {
            key: ProvenanceStats(
                trajectories=chunks.n,
                chunks_per_trajectory=chunks.result(),
                source_words_per_chunk=src.result(),
                target_words_per_chunk=tgt.result(),
            )
            for key, (chunks, src, tgt) in accs.items()
        }
    )


def corpus_stats_table(stats: CorpusStats) -> str:
    rows = [("provenance", "trajs", "#chunk", "#src word/chunk", "#tgt word/chunk")]
    for key in sorted(stats.by_provenance):
        ps = stats.by_provenance[key]
        rows.append(
            (
                key,
                str(ps.trajectories),
                f"{ps.chunks_per_trajectory.mean:.2f}±{ps.chunks_per_trajectory.std:.2f}",
                f"{ps.source_words_per_chunk.mean:.2f}±{ps.source_words_per_chunk.std:.2f}",
                f"{ps.target_words_per_chunk.mean:.2f}±{ps.target_words_per_chunk.std:.2f}",
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    )


@dataclass(frozen=True)
class LatencyReport:
    """Latency over an event log; the means are None when no run committed a word."""

    runs: int
    al_mean: float | None
    wwt_simulated_mean: float | None
    rounds_total: int
    recompute_total_conversational: int
    recompute_total_offline: int

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "al_mean": self.al_mean,
            "wwt_simulated_mean": self.wwt_simulated_mean,
            "rounds_total": self.rounds_total,
            "recompute_total_conversational": self.recompute_total_conversational,
            "recompute_total_offline": self.recompute_total_offline,
        }

    def table(self) -> str:
        rows = [
            ("runs", str(self.runs)),
            ("AL (words, mean)", _fixed4(self.al_mean)),
            ("WWT (simulated, mean)", _fixed4(self.wwt_simulated_mean)),
            ("rounds total", str(self.rounds_total)),
            ("recompute total conversational", str(self.recompute_total_conversational)),
            ("recompute total offline", str(self.recompute_total_offline)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _fixed4(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def events_report(event_runs: Iterable[list[dict]], cost: CostModel, prompt_mode: str) -> LatencyReport:
    """Aggregate a parsed event log, one list of event records per run, into one
    report. Each run is reduced as it arrives, so the runs may be streamed."""
    al_values: list[float] = []
    wwt_values: list[float] = []
    runs = 0
    rounds = 0
    total_conv = 0
    total_off = 0
    for events in event_runs:
        runs += 1
        rounds += len(events)
        source_len = events[-1]["cumulative_source_read"]
        g: list[int] = []
        cost_total = 0.0
        for event in events:
            g.extend([event["cumulative_source_read"]] * len(event["committed_words"]))
            recompute = event[
                "recompute_tokens_conversational"
                if prompt_mode == "conversational"
                else "recompute_tokens_offline"
            ]
            cost_total += recompute * cost.per_recomputed_token
            cost_total += len(event["committed_words"]) * cost.per_generated_word
            total_conv += event["recompute_tokens_conversational"]
            total_off += event["recompute_tokens_offline"]
        if g:
            al_values.append(average_lagging(g, source_len, len(g)))
            wwt_values.append(cost_total / len(g))
    if not runs:
        raise ValueError("no runs in event log")
    return LatencyReport(
        runs=runs,
        al_mean=fmean(al_values) if al_values else None,
        wwt_simulated_mean=fmean(wwt_values) if wwt_values else None,
        rounds_total=rounds,
        recompute_total_conversational=total_conv,
        recompute_total_offline=total_off,
    )
