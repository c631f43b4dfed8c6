#!/usr/bin/env python3
"""Latency/recompute sweep over chunk sizes with an echo model.

For each chunk size n, simulate every source sentence with a scripted echo
model (each chunk 'translates' to its uppercased self) and report mean AL, and
mean simulated WWT and total recompute in both prompt modes, from one pass over
the event records. Shows the conversational-vs-offline recompute gap widening
as rounds multiply.

It prints one whitespace-aligned table, a row per chunk size.

Usage:
  python scripts/sweep_chunk_sizes.py --src toy/src.txt
"""

import argparse
import sys

from simultraj.cli import nonnegative_float
from simultraj.metrics import CostModel, events_report, run_latency
from simultraj.simulator import GREEDY, run, scripted_echo

DEFAULT_CHUNK_SIZES = (3, 5, 7, 9, 11, 13)


def sweep(sources, chunk_sizes, cost):
    for n in chunk_sizes:
        runs = (
            run(source, scripted_echo(source, n, beam=1), chunk_size=n, strategy=GREEDY, beam=1, pair_id=idx)
            for idx, source in enumerate(sources)
        )
        report = events_report(run_latency([event._asdict() for event in sim.events], cost) for sim in runs)
        yield {
            "chunk_size": n,
            "al_mean": round(report.al_mean, 4),
            "wwt_conversational": round(report.wwt_simulated_mean_conversational, 4),
            "wwt_offline": round(report.wwt_simulated_mean_offline, 4),
            "recompute_conversational": report.recompute_total_conversational,
            "recompute_offline": report.recompute_total_offline,
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="one source sentence per line")
    parser.add_argument("--chunk-sizes", type=int, nargs="+", default=list(DEFAULT_CHUNK_SIZES))
    parser.add_argument("--cost-recompute", type=nonnegative_float, default=1.0)
    parser.add_argument("--cost-word", type=nonnegative_float, default=1.0)
    args = parser.parse_args()

    with open(args.src, encoding="utf-8") as f:
        sources = [line.split() for line in f if line.strip()]
    if not sources:
        sys.exit("no source sentences")

    cost = CostModel(args.cost_recompute, args.cost_word)
    rows = list(sweep(sources, args.chunk_sizes, cost))

    header = list(rows[0])
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths)))


if __name__ == "__main__":
    main()
