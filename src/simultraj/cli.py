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
import os
import sys
from functools import partial
from itertools import chain, repeat, zip_longest
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO

# sufficient_sets is not called here; bench/tracer.py wraps it under this module.
from simultraj.alignment import AlignmentError, SentencePair, parse_pharaoh, sufficient_sets
from simultraj.augment import AugmentConfig, augment_pipeline
from simultraj.metrics import CostModel, corpus_stats, corpus_stats_table, events_report
# monotonicize is not called here; bench/tracer.py wraps it under this module.
from simultraj.monotonic import monotonicize, plan_links
from simultraj.sftformat import DEFAULT_TEMPLATE, get_template, record_to_dict, render_conversational
from simultraj.simulator import (
    CONVERSATIONAL,
    DEFAULT_BEAM,
    DEFAULT_GAMMA,
    PROMPT_MODES,
    SELECT_KINDS,
    ScriptedModel,
    SelectStrategy,
    SimRun,
    SimulationError,
    dump_events_jsonl,
    encode_json,
    load_events_jsonl,
    raw_decode_json,
    run as simulate_run,
)
from simultraj.trajectory import META, build_meta, from_record, to_record, verify


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _print_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"{args.command} resolved config: {encode_json(resolved)}", file=sys.stderr)


# Items per batch sent to a --workers worker: one pipe round trip per batch. On
# the corpus-parallel benchmark neither 64 nor 1024 used less CPU than 256.
PMAP_BATCH = 256


def _serve(fn: Callable, tasks: BinaryIO, replies: BinaryIO) -> None:
    """A forked worker: answer each pickled batch with the list of fn's results,
    or with the exception fn raised, until the parent closes `tasks`."""
    import pickle

    while True:
        try:
            batch = pickle.load(tasks)
        except EOFError:
            return
        try:
            reply = [fn(item) for item in batch]
        except Exception as exc:
            reply = exc
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


def _pmap(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """Yield fn(item) for every item, in input order.

    With workers > 1, items are read lazily in batches of PMAP_BATCH and sent
    over pipes to `workers` forked processes: batch b to worker b mod workers,
    which holds at most one batch. So at most `workers` batches are in flight,
    and memory does not grow with the input. If reading the items raises, the
    results of every item read before the error are yielded first, as the
    serial map does. An exception fn raises is raised here, and a worker that
    dies is an OSError. Every worker is waited for before this returns or raises.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    # Imported here: serial runs and the other subcommands never start a pool.
    import pickle

    def collect(results: BinaryIO) -> list:
        try:
            reply = pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            raise OSError("a --workers process exited without sending its results") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    items = iter(items)
    pids: list[int] = []
    pipes: list[tuple[BinaryIO, BinaryIO]] = []  # the parent's ends: to and from each worker
    sys.stdout.flush()  # a worker that prints must not repeat what the parent buffered
    sys.stderr.flush()
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pipes.append((open(task_w, "wb"), open(result_r, "rb")))
            pid = os.fork()
            if pid == 0:  # the worker, which must never return into the parent's code
                try:
                    for end in chain.from_iterable(pipes):
                        end.close()
                    _serve(fn, open(task_r, "rb"), open(result_w, "wb"))
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(task_r)
            os.close(result_w)
        sent, error = 0, None  # the last `workers` batches sent await their results
        while error is None:
            batch = []
            try:
                for item in items:
                    batch.append(item)
                    if len(batch) == PMAP_BATCH:
                        break
            except Exception as exc:  # a read error: send what was read, then stop
                error = exc
            if not batch:
                break
            tasks, results = pipes[sent % workers]
            done = collect(results) if sent >= workers else []
            pickle.dump(batch, tasks, pickle.HIGHEST_PROTOCOL)
            tasks.flush()
            sent += 1
            yield from done
        for b in range(max(sent - workers, 0), sent):
            yield from collect(pipes[b % workers][1])
        if error is not None:
            raise error
    finally:
        for tasks, results in pipes:
            results.close()
            try:
                tasks.close()  # end of input: the worker leaves
            except BrokenPipeError:  # it has left already
                pass
        for pid in pids:
            os.waitpid(pid, 0)


def _refuse_input(flag: str, path: str, *inputs: str) -> None:
    """Raise ValueError if the output path names an existing input file: opening
    it for writing would empty the input before it is read."""
    if os.path.exists(path) and any(os.path.exists(p) and os.path.samefile(path, p) for p in inputs):
        raise ValueError(f"{flag} {path} is also an input")


def _run_stage(args: argparse.Namespace, worker: Callable, items: Iterable, *inputs: str) -> int:
    """Write worker's results over items to --out in input order; 1 if any record was rejected.
    inputs are the paths items are read from."""
    _refuse_input("--out", args.out, *inputs)
    failures = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for status, payload in _pmap(worker, items, args.workers):
            if status == "ok":
                out.write(payload + "\n")
            else:
                failures += 1
                print(payload, file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------- curate

def _curate_record(item: tuple[int, str, str, str], debug: bool) -> tuple[str, str]:
    idx, src, tgt, align = item
    try:
        pair = SentencePair.from_text(src, tgt, idx)
        plan = plan_links(parse_pharaoh(align, pair.source_len, pair.target_len, idx))
        traj = build_meta(plan, pair)
        problems = verify(traj, plan)
        if problems:
            return ("err", f"record {idx} rejected: " + "; ".join(problems))
        return ("ok", encode_json(to_record(traj, debug)))
    except ValueError as exc:  # AlignmentError is a ValueError
        return ("err", f"record {idx} rejected: {exc}")


def _iter_curate_inputs(src_path: str, tgt_path: str, align_path: str) -> Iterator[tuple[int, str, str, str]]:
    with open(src_path, encoding="utf-8") as fs, open(tgt_path, encoding="utf-8") as ft, open(
        align_path, encoding="utf-8"
    ) as fa:
        for idx, lines in enumerate(zip_longest(fs, ft, fa)):
            if None in lines:  # one file ran out of lines before another
                raise AlignmentError(
                    f"line count mismatch among {src_path}, {tgt_path}, {align_path} "
                    f"at record {idx}"
                )
            src, tgt, align = (line.rstrip("\n") for line in lines)
            yield idx, src, tgt, align


def cmd_curate(args: argparse.Namespace) -> int:
    worker = partial(_curate_record, debug=args.debug)
    paths = (args.src, args.tgt, args.align)
    return _run_stage(args, worker, _iter_curate_inputs(*paths), *paths)


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
        return ("ok", encode_json(to_record(augmented, debug)))
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        return ("err", f"record rejected: {exc}")


def _iter_lines(path: str) -> Iterator[str]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.isspace():
                yield line


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = AugmentConfig(
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        beta=args.beta,
        rho_min=args.rho_min,
        seed=args.seed,
    )
    worker = partial(_augment_record, cfg=cfg, debug=args.debug)
    return _run_stage(args, worker, _iter_lines(args.in_path), args.in_path)


# ----------------------------------------------------------------- format

def _format_record(line: str, system_msg: str, template: str) -> tuple[str, str]:
    try:
        traj = from_record(json.loads(line))
        problems = verify(traj)
        if problems:
            return ("err", f"record {traj.pair_id} rejected: " + "; ".join(problems))
        record = render_conversational(traj, system_msg, template)
        return ("ok", encode_json(record_to_dict(record)))
    except (ValueError, RecursionError) as exc:
        return ("err", f"record rejected: {exc}")


def cmd_format(args: argparse.Namespace) -> int:
    get_template(args.template)  # fail fast on an unknown template id
    worker = partial(_format_record, system_msg=args.system_msg, template=args.template)
    return _run_stage(args, worker, _iter_lines(args.in_path), args.in_path)


# ------------------------------------------------------------------ stats

def cmd_stats(args: argparse.Namespace) -> int:
    stats = corpus_stats(from_record(json.loads(line)) for line in _iter_lines(args.in_path))
    print(corpus_stats_table(stats))
    return 0


# --------------------------------------------------------------- simulate

# Characters read from a model file at a time. A script that runs past the text
# read so far is parsed again after a read that at least doubles that text.
MODEL_BLOCK = 1 << 16
# The longest JSON token a read can cut short. A syntax error that a cut read
# causes lies less than this many characters before the end of the text read,
# or is an unterminated string.
_LONGEST_TOKEN = len("-Infinity")
_skip = json.decoder.WHITESPACE.match


def _list_items(f: TextIO, buf: str) -> Iterator[object]:
    """Yield the elements of the JSON list in f one at a time; buf is the text
    read from f so far, a '[' after optional whitespace and then more.

    Only the text of the element being parsed is held. An element is taken
    once the delimiter after it has been read too: a number cut short by the
    end of a read would still parse. A syntax error that no cut read can
    cause is raised without reading on.
    """
    pos, delim = _skip(buf).end() + 1, "["  # delim: the token before the next element
    base = 0  # characters of f before buf
    while delim != "]":
        try:
            pos = _skip(buf, pos).end()
            if delim == "[" and buf[pos] == "]":  # IndexError: only whitespace read after pos
                pos += 1
                break
            obj, end = raw_decode_json(buf, pos)
            end = _skip(buf, end).end()
            if buf[end] not in ",]":  # may be the rest of a number cut by a read: 1|.5
                raise json.JSONDecodeError("Expecting ',' delimiter", buf, end)
        except (IndexError, json.JSONDecodeError) as exc:
            cut = (
                isinstance(exc, IndexError)
                or exc.msg.startswith("Unterminated string")
                or len(buf) - exc.pos < _LONGEST_TOKEN
            )
            more = cut and f.read(max(MODEL_BLOCK, len(buf) - pos))
            if more:
                base, buf, pos = base + pos, buf[pos:] + more, 0
                continue
            if isinstance(exc, IndexError):
                raise ValueError("model file ends inside its script list") from None
            raise ValueError(f"model file: {exc.msg}: char {base + exc.pos}") from None
        yield obj
        delim, pos = buf[end], end + 1
    tail = buf[pos:]
    while not tail.strip():
        tail = f.read(MODEL_BLOCK)
        if not tail:
            return
    raise ValueError("model file has data after its script list")


def cmd_simulate(args: argparse.Namespace) -> int:
    strategy = SelectStrategy(args.select, args.gamma)
    _refuse_input("--out", args.out, args.src, args.model)
    blank = 0

    def runs(src: TextIO, scripts: Iterator, listed: bool) -> Iterator[SimRun]:
        # Session ids are 0-based source line numbers. Each session is written
        # as soon as it ends, then dropped; one script is held at a time.
        nonlocal blank
        used = 0
        for idx, line in enumerate(src):
            source = line.split()
            if not source:
                blank += 1
                print(f"session {idx} rejected: blank source line", file=sys.stderr)
                continue
            try:
                script = next(scripts)
            except StopIteration:
                rest = sum(1 for line in src if line.split())
                raise ValueError(
                    f"model file has {used} scripts for {used + 1 + rest} non-blank source lines"
                ) from None
            used += 1
            try:
                model = ScriptedModel.from_obj(script)
            except (TypeError, ValueError) as exc:
                # No rounds list, or rounds, beams or words of the wrong JSON type.
                raise SimulationError(f"session {idx}: malformed model script: {exc}") from None
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
        extra = sum(1 for _ in scripts) if listed else 0
        if extra:
            raise ValueError(f"model file has {used + extra} scripts for {used} non-blank source lines")

    with open(args.src, encoding="utf-8") as src, open(args.model, encoding="utf-8") as f:
        head = f.read(MODEL_BLOCK)
        while head.isspace() and (more := f.read(MODEL_BLOCK)):
            head += more
        listed = head.lstrip()[:1] == "["
        if listed:
            scripts: Iterator = _list_items(f, head)
        else:
            # One script object serves every source line.
            obj = json.loads(head + f.read())
            if not isinstance(obj, dict):
                raise ValueError("model file must hold a script object or a list of them")
            scripts = repeat(obj)
        with open(args.out, "w", encoding="utf-8") as out:
            dump_events_jsonl(runs(src, scripts, listed), out)
    return 1 if blank else 0


# ------------------------------------------------------------------- eval

def cmd_eval(args: argparse.Namespace) -> int:
    _refuse_input("--csv", args.csv, args.events)
    cost = CostModel(args.cost_recompute, args.cost_word)
    report = events_report(load_events_jsonl(args.events), cost, args.prompt)
    data = report._asdict()
    print(encode_json(data))
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
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--debug", action="store_true", help="retain position indices in records")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("augment", help="meta trajectories -> merged+shifted trajectories")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    aug = AugmentConfig()
    p.add_argument("--delta-min", type=int, default=aug.delta_min)
    p.add_argument("--delta-max", type=int, default=aug.delta_max)
    p.add_argument("--beta", type=nonnegative_float, default=aug.beta)
    p.add_argument("--rho-min", type=nonnegative_float, default=aug.rho_min)
    p.add_argument("--seed", type=int, default=aug.seed)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--debug", action="store_true")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("format", help="trajectories -> SFT JSONL with loss masks")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--template", default=DEFAULT_TEMPLATE)
    p.add_argument("--system-msg", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=positive_int, default=1)
    p.set_defaults(func=cmd_format)

    p = sub.add_parser("stats", help="corpus statistics of a trajectory JSONL")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simulate", help="replay incremental decoding with a scripted model")
    p.add_argument("--src", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--chunk", type=positive_int, default=5)
    p.add_argument("--beam", type=positive_int, default=DEFAULT_BEAM)
    p.add_argument("--select", choices=SELECT_KINDS, default="ralcp")
    p.add_argument("--gamma", type=nonnegative_float, default=DEFAULT_GAMMA)
    p.add_argument("--prompt", choices=PROMPT_MODES, default=CONVERSATIONAL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="latency report from a simulation event log")
    p.add_argument("--events", required=True)
    cost = CostModel()
    p.add_argument("--cost-recompute", type=nonnegative_float, default=cost.per_recomputed_token)
    p.add_argument("--cost-word", type=nonnegative_float, default=cost.per_generated_word)
    p.add_argument("--prompt", choices=PROMPT_MODES, default=CONVERSATIONAL)
    p.add_argument("--csv", default="")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "workers", 1) > 1:
        # _pmap forks all its workers at once, and output bytes do not depend
        # on their number: fork no more than this process can run on, and run
        # serially where there is no os.fork.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        args.workers = min(args.workers, cpus or 1) if hasattr(os, "fork") else 1
    _print_config(args)
    try:
        return args.func(args)
    except (SimulationError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
