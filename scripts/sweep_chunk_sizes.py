#!/usr/bin/env python3
"""Latency/recompute sweep over chunk sizes with an echo model.

For each chunk size n, simulate every source sentence under both prompt modes
with a scripted echo model (each chunk 'translates' to its uppercased self)
and report mean AL, mean simulated WWT, and total recompute. Shows the
conversational-vs-offline recompute gap widening as rounds multiply.

Usage:
  python scripts/sweep_chunk_sizes.py --src toy/src.txt --csv sweep.csv
"""

import argparse
import csv
import sys

from simultraj.cli import nonnegative_float
from simultraj.metrics import CostModel, events_report
from simultraj.simulator import CONVERSATIONAL, GREEDY, OFFLINE, run, scripted_echo

DEFAULT_CHUNK_SIZES = (3, 5, 7, 9, 11, 13)


def sweep(sources, chunk_sizes, cost):
    for n in chunk_sizes:
        records = []
        for idx, source in enumerate(sources):
            sim = run(
                source,
                scripted_echo(source, n, beam=1),
                chunk_size=n,
                strategy=GREEDY,
                beam=1,
                pair_id=idx,
            )
            records.append([event._asdict() for event in sim.events])
        conv = events_report(records, cost, CONVERSATIONAL)
        off = events_report(records, cost, OFFLINE)
        yield {
            "chunk_size": n,
            "al_mean": round(conv.al_mean, 4),
            "wwt_conversational": round(conv.wwt_simulated_mean, 4),
            "wwt_offline": round(off.wwt_simulated_mean, 4),
            "recompute_conversational": conv.recompute_total_conversational,
            "recompute_offline": conv.recompute_total_offline,
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="one source sentence per line")
    parser.add_argument("--chunk-sizes", type=int, nargs="+", default=list(DEFAULT_CHUNK_SIZES))
    parser.add_argument("--cost-recompute", type=nonnegative_float, default=1.0)
    parser.add_argument("--cost-word", type=nonnegative_float, default=1.0)
    parser.add_argument("--csv", default="", help="optional output CSV path")
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

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
