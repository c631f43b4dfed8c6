"""In-memory span tracer for one in-process run of ``simultraj.cli.main``.

The tracer replaces each public function in ``TRACED`` at the name its caller
resolves (``simultraj.cli.parse_pharaoh``, ``simultraj.simulator.dialogue_prompt``
and so on) with a wrapper that records a span: name, start, end and parent
span id. Spans stay in a list until the run ends. ``uninstall`` puts every
original back, so untraced passes never see a wrapper.

Only the calling process is traced: work that ``--workers`` hands to a pool
runs in other processes, and their spans are not collected.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# span name, module whose name is patched, attribute (``Class.method`` for methods),
# and the end-to-end metric and workload the span's numbers should move.
TRACED: tuple[tuple[str, str, str, str], ...] = (
    ("alignment.from_text", "simultraj.alignment", "SentencePair.from_text", "curate_pairs_per_s on corpus-serial"),
    ("alignment.parse_pharaoh", "simultraj.cli", "parse_pharaoh", "curate_pairs_per_s on corpus-serial"),
    ("alignment.sufficient_sets", "simultraj.cli", "sufficient_sets", "curate_pairs_per_s on corpus-serial"),
    ("monotonic.monotonicize", "simultraj.cli", "monotonicize", "curate_pairs_per_s on corpus-serial"),
    ("trajectory.build_meta", "simultraj.cli", "build_meta", "curate_pairs_per_s on corpus-serial"),
    ("trajectory.verify", "simultraj.cli", "verify", "curate_pairs_per_s, augment_records_per_s on corpus-serial"),
    ("trajectory.to_record", "simultraj.cli", "to_record", "curate_pairs_per_s, augment_records_per_s on corpus-serial"),
    ("trajectory.from_record", "simultraj.cli", "from_record", "augment/format/stats_records_per_s on corpus-serial"),
    ("augment.augment_pipeline", "simultraj.cli", "augment_pipeline", "augment_records_per_s on corpus-serial"),
    ("augment.merge", "simultraj.augment", "merge", "augment_records_per_s on corpus-serial"),
    ("augment.shift", "simultraj.augment", "shift", "augment_records_per_s on corpus-serial"),
    ("sftformat.render_conversational", "simultraj.cli", "render_conversational", "format_records_per_s on corpus-serial"),
    ("sftformat.record_to_dict", "simultraj.cli", "record_to_dict", "format_records_per_s on corpus-serial"),
    ("metrics.corpus_stats", "simultraj.cli", "corpus_stats", "stats_records_per_s on corpus-serial"),
    ("simulator.run", "simultraj.cli", "simulate_run", "simulate_words_per_s, peak_rss_mb on sim-long"),
    ("sftformat.dialogue_prompt", "simultraj.simulator", "dialogue_prompt", "simulate_words_per_s on sim-long"),
    ("sftformat.offline_prompt", "simultraj.simulator", "offline_prompt", "simulate_words_per_s on sim-long"),
    ("simulator.select_prefix", "simultraj.simulator", "select_prefix", "simulate_words_per_s on sim-short"),
    ("simulator.ScriptedModel.generate", "simultraj.simulator", "ScriptedModel.generate", "simulate_words_per_s on sim-short"),
    ("simulator.dump_events_jsonl", "simultraj.cli", "dump_events_jsonl", "simulate_words_per_s on sim-short"),
    ("simulator.load_events_jsonl", "simultraj.cli", "load_events_jsonl", "eval_events_per_s on sim-short"),
    ("metrics.events_report", "simultraj.cli", "events_report", "eval_events_per_s on sim-short"),
)

# One span per CLI stage; its self time is the cli layer's share of the stage:
# file I/O, JSON encode/decode, _emit and the _pmap pool.
STAGES = ("curate", "augment", "format", "stats", "simulate", "eval")
STAGE_SPANS = tuple((f"cli.{s}", "simultraj.cli", f"cmd_{s}") for s in STAGES)

# Session lengths of the sim-long workload; ms/round is reported per length.
ROUND_BUCKETS = (128, 256, 512, 1024)


class Tracer:
    """Wraps the traced names, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent id]
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._prompts: dict[str, list[str]] = defaultdict(list)
        self._sessions: list[tuple[int, int, float]] = []  # source words, rounds, ms

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, span)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = {
            "monotonic.monotonicize": self._on_monotonicize,
            "augment.merge": self._on_merge,
            "augment.shift": self._on_shift,
            "sftformat.dialogue_prompt": self._on_prompt,
            "sftformat.offline_prompt": self._on_prompt,
            "simulator.run": self._on_run,
        }
        for name, module, attr, *_ in TRACED + STAGE_SPANS:
            owner, attr = _owner(module, attr)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, hooks.get(name)))
            else:
                wrapper = self._wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ counts
    # Hooks run after their span has ended, so their time falls in the caller's
    # self time. Prompt strings are only kept here and split after the run.

    def _on_monotonicize(self, args, plan, span) -> None:
        self.counts["pairs"] += 1
        self.counts["added_edges"] += len(plan.added_edges)

    def _on_merge(self, args, traj, span) -> None:
        self.counts["merge_in"] += len(args[0].chunks)
        self.counts["merge_out"] += len(traj.chunks)

    def _on_shift(self, args, traj, span) -> None:
        self.counts["shift_boundaries"] += len(traj.chunks) - 1
        self.counts["shift_applied"] += sum(1 for c in traj.chunks if c.shifted_prefix_len)

    def _on_prompt(self, args, prompt, span) -> None:
        self._prompts[span[0]].append(prompt)

    def _on_run(self, args, sim, span) -> None:
        self.counts["rounds"] += len(sim.events)
        self.counts["recompute_conv"] += sum(e.recompute_tokens_conversational for e in sim.events)
        self.counts["recompute_off"] += sum(e.recompute_tokens_offline for e in sim.events)
        self._sessions.append((len(sim.source), len(sim.events), (span[2] - span[1]) * 1e3))

    # ----------------------------------------------------------------- results

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        self_s = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), own in zip(self.spans, self_s):
            calls[name] += 1
            self_total[name] += own
            durations[name].append(end - start)

        out: dict[str, float] = {}
        for name, *_ in TRACED:
            d = sorted(durations[name])
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_total[name] * 1e3
            out[f"{name}.us_p50"] = _quantile(d, 0.50) * 1e6
            out[f"{name}.us_p99"] = _quantile(d, 0.99) * 1e6
        for name, *_ in STAGE_SPANS:
            out[f"{name}.self_ms"] = self_total[name] * 1e3

        c = self.counts
        conv_words = sum(len(p.split()) for p in self._prompts["sftformat.dialogue_prompt"])
        off_words = sum(len(p.split()) for p in self._prompts["sftformat.offline_prompt"])
        out["monotonic.added_edges_per_pair"] = _ratio(c["added_edges"], c["pairs"])
        out["augment.merge.chunks_in_per_out"] = _ratio(c["merge_in"], c["merge_out"])
        out["augment.shift.applied_share"] = _ratio(c["shift_applied"], c["shift_boundaries"])
        out["sftformat.prompt_words_rendered"] = conv_words + off_words
        out["simulator.new_word_share"] = _ratio(c["recompute_conv"], conv_words)
        out["simulator.rounds"] = c["rounds"]
        out["simulator.recompute_words.conversational"] = c["recompute_conv"]
        out["simulator.recompute_words.offline"] = c["recompute_off"]
        for bucket in ROUND_BUCKETS:
            sessions = [(r, ms) for n, r, ms in self._sessions if n == bucket]
            out[f"simulator.run.ms_per_round.len{bucket}"] = _ratio(
                sum(ms for _, ms in sessions), sum(r for r, _ in sessions)
            )
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _owner(module: str, attr: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def originals_restored() -> bool:
    """True when no traced name is bound to a tracer wrapper."""
    for _, module, attr, *_ in TRACED + STAGE_SPANS:
        owner, leaf = _owner(module, attr)
        fn = vars(owner)[leaf]
        fn = fn.__func__ if isinstance(fn, classmethod) else fn
        if getattr(fn, "__qualname__", "") == "Tracer._wrap.<locals>.traced":
            return False
    return True


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
