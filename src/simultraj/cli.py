"""Command-line front end: curate / augment / format / stats / simulate / eval.

Files are processed line-by-line in input order; optional process parallelism
(--workers) never changes output bytes because all randomness is derived from
the CLI seed and the record id. Every subcommand prints its resolved
configuration to stderr for provenance. Exit status: 0 all records clean,
1 some records rejected (reasons on stderr), 2 hard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

from simultraj.alignment import (
    AlignmentError,
    SentencePair,
    parse_pharaoh,
    sufficient_sets,
)
from simultraj.augment import (
    DEFAULT_BETA,
    DEFAULT_DELTA_MAX,
    DEFAULT_DELTA_MIN,
    DEFAULT_RHO_MIN,
    AugmentConfig,
    augment_pipeline,
)
from simultraj.metrics import CostModel, corpus_stats, corpus_stats_table, events_report
from simultraj.monotonic import monotonicize
from simultraj.sftformat import get_template, record_to_dict, render_conversational
from simultraj.simulator import (
    CONVERSATIONAL,
    DEFAULT_BEAM,
    DEFAULT_GAMMA,
    GREEDY,
    LCP,
    PROMPT_MODES,
    ScriptedModel,
    SelectStrategy,
    SimRun,
    SimulationError,
    dump_events_jsonl,
    load_events_jsonl,
    run as simulate_run,
)
from simultraj.trajectory import META, build_meta, from_record, to_record, verify

DEFAULT_CHUNK_SIZES = (3, 5, 7, 9, 11, 13)
DEFAULT_TEMPLATE = "llama2"


def _print_config(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"{command} resolved config: {json.dumps(resolved, ensure_ascii=False)}", file=sys.stderr)


def _pmap(fn: Callable, items: Iterable, workers: int) -> Iterator:
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=16)


def _emit(results: Iterable[tuple[str, str]], out: TextIO) -> int:
    """Write ok-payload lines in order; report rejected records. Returns failure count."""
    failures = 0
    for status, payload in results:
        if status == "ok":
            out.write(payload + "\n")
        else:
            failures += 1
            print(payload, file=sys.stderr)
    return failures


# ----------------------------------------------------------------- curate

def _curate_record(item: tuple[int, str, str, str], debug: bool) -> tuple[str, str]:
    idx, src, tgt, align = item
    try:
        pair = SentencePair.from_text(src, tgt, idx)
        links = parse_pharaoh(align, pair.source_len, pair.target_len, idx)
        plan = monotonicize(sufficient_sets(pair, links), pair.source_len)
        traj = build_meta(plan, pair)
        problems = verify(traj, plan)
        if problems:
            return ("err", f"record {idx} rejected: " + "; ".join(problems))
        return ("ok", json.dumps(to_record(traj, debug), ensure_ascii=False))
    except (AlignmentError, ValueError) as exc:
        return ("err", f"record {idx} rejected: {exc}")


def _iter_curate_inputs(src_path: str, tgt_path: str, align_path: str) -> Iterator[tuple[int, str, str, str]]:
    with open(src_path, encoding="utf-8") as fs, open(tgt_path, encoding="utf-8") as ft, open(
        align_path, encoding="utf-8"
    ) as fa:
        idx = 0
        while True:
            src, tgt, align = fs.readline(), ft.readline(), fa.readline()
            if not src and not tgt and not align:
                return
            if not src or not tgt or not align:
                raise AlignmentError(
                    f"line count mismatch among {src_path}, {tgt_path}, {align_path} "
                    f"at record {idx}"
                )
            yield idx, src.rstrip("\n"), tgt.rstrip("\n"), align.rstrip("\n")
            idx += 1


def cmd_curate(args: argparse.Namespace) -> int:
    _print_config("curate", args)
    worker = partial(_curate_record, debug=args.debug)
    with open(args.out, "w", encoding="utf-8") as out:
        results = _pmap(worker, _iter_curate_inputs(args.src, args.tgt, args.align), args.workers)
        failures = _emit(results, out)
    return 1 if failures else 0


# ---------------------------------------------------------------- augment

def _augment_record(line: str, cfg: AugmentConfig, debug: bool) -> tuple[str, str]:
    try:
        traj = from_record(json.loads(line))
        if traj.provenance != META:
            return ("err", f"record {traj.pair_id} rejected: provenance {traj.provenance!r} is not meta")
        augmented = augment_pipeline(traj, cfg)
        problems = verify(augmented)
        if problems:
            return ("err", f"record {traj.pair_id} rejected: " + "; ".join(problems))
        return ("ok", json.dumps(to_record(augmented, debug), ensure_ascii=False))
    except ValueError as exc:
        return ("err", f"record rejected: {exc}")


def _iter_lines(path: str) -> Iterator[str]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield line


def cmd_augment(args: argparse.Namespace) -> int:
    _print_config("augment", args)
    cfg = AugmentConfig(
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        beta=args.beta,
        rho_min=args.rho_min,
        seed=args.seed,
    )
    worker = partial(_augment_record, cfg=cfg, debug=args.debug)
    with open(args.out, "w", encoding="utf-8") as out:
        failures = _emit(_pmap(worker, _iter_lines(args.in_path), args.workers), out)
    return 1 if failures else 0


# ----------------------------------------------------------------- format

def _format_record(line: str, system_msg: str, template: str) -> tuple[str, str]:
    try:
        traj = from_record(json.loads(line))
        problems = verify(traj)
        if problems:
            return ("err", f"record {traj.pair_id} rejected: " + "; ".join(problems))
        record = render_conversational(traj, system_msg, template)
        return ("ok", json.dumps(record_to_dict(record), ensure_ascii=False))
    except ValueError as exc:
        return ("err", f"record rejected: {exc}")


def cmd_format(args: argparse.Namespace) -> int:
    _print_config("format", args)
    get_template(args.template)  # fail fast on an unknown template id
    worker = partial(_format_record, system_msg=args.system_msg, template=args.template)
    with open(args.out, "w", encoding="utf-8") as out:
        failures = _emit(_pmap(worker, _iter_lines(args.in_path), args.workers), out)
    return 1 if failures else 0


# ------------------------------------------------------------------ stats

def cmd_stats(args: argparse.Namespace) -> int:
    _print_config("stats", args)
    trajs = (from_record(json.loads(line)) for line in _iter_lines(args.in_path))
    stats = corpus_stats(trajs)
    print(corpus_stats_table(stats))
    return 0


# --------------------------------------------------------------- simulate

def _load_scripts(path: str, n_sources: int) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    if isinstance(obj, dict):
        return [obj] * n_sources
    if isinstance(obj, list):
        if len(obj) != n_sources:
            raise ValueError(
                f"model file has {len(obj)} scripts for {n_sources} source lines"
            )
        return obj
    raise ValueError("model file must hold a script object or a list of them")


def cmd_simulate(args: argparse.Namespace) -> int:
    _print_config("simulate", args)
    if args.select == "lcp":
        strategy = LCP
    elif args.select == "greedy":
        strategy = GREEDY
    else:
        strategy = SelectStrategy("ralcp", args.gamma)
    with open(args.src, encoding="utf-8") as f:
        sources = [line.split() for line in f if line.strip()]
    scripts = _load_scripts(args.model, len(sources))

    def runs() -> Iterator[SimRun]:
        # Each session is written as soon as it ends, then dropped.
        for idx, (source, script) in enumerate(zip(sources, scripts)):
            model = ScriptedModel.from_obj(script)
            try:
                yield simulate_run(
                    source,
                    model,
                    chunk_size=args.chunk,
                    strategy=strategy,
                    prompt_mode=args.prompt,
                    beam=args.beam,
                    pair_id=idx,
                )
            except SimulationError as exc:
                raise SimulationError(f"session {idx}: {exc}") from None

    dump_events_jsonl(runs(), args.out)
    return 0


# ------------------------------------------------------------------- eval

def cmd_eval(args: argparse.Namespace) -> int:
    _print_config("eval", args)
    cost = CostModel(args.cost_recompute, args.cost_word)
    report = events_report(load_events_jsonl(args.events), cost, args.prompt)
    data = report.to_dict()
    print(json.dumps(data, ensure_ascii=False, allow_nan=False))
    print(report.table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(",".join(data.keys()) + "\n")
            f.write(",".join("" if v is None else str(v) for v in data.values()) + "\n")
    return 0


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simultraj",
        description="READ/WRITE trajectory curation and incremental-decoding simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="bitext + alignments -> meta-trajectory JSONL")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--align", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--debug", action="store_true", help="retain position indices in records")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("augment", help="meta trajectories -> merged+shifted trajectories")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-min", type=int, default=DEFAULT_DELTA_MIN)
    p.add_argument("--delta-max", type=int, default=DEFAULT_DELTA_MAX)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--rho-min", type=float, default=DEFAULT_RHO_MIN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--debug", action="store_true")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("format", help="trajectories -> SFT JSONL with loss masks")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--template", default=DEFAULT_TEMPLATE)
    p.add_argument("--system-msg", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_format)

    p = sub.add_parser("stats", help="corpus statistics of a trajectory JSONL")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simulate", help="replay incremental decoding with a scripted model")
    p.add_argument("--src", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--chunk", type=int, default=5)
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM)
    p.add_argument("--select", choices=["lcp", "ralcp", "greedy"], default="ralcp")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--prompt", choices=list(PROMPT_MODES), default=CONVERSATIONAL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="latency report from a simulation event log")
    p.add_argument("--events", required=True)
    p.add_argument("--cost-recompute", type=float, default=1.0)
    p.add_argument("--cost-word", type=float, default=1.0)
    p.add_argument("--prompt", choices=list(PROMPT_MODES), default=CONVERSATIONAL)
    p.add_argument("--csv", default="")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except (AlignmentError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
