"""Command-line front end: curate / augment / format / stats / simulate / eval.

Files are processed line-by-line in input order; optional process parallelism
(--workers) never changes output bytes because all randomness is derived from
the CLI seed and the record id. Only `simultraj.jsonl` opens inputs, cuts
lines and codes JSON. `--out` is the one output file: a stage opens its inputs,
then `--out`, then reads (see `_open_output`); `stats` and `eval` print instead.
Every subcommand prints its resolved configuration to stderr for provenance; that
line, the rejection reasons and the error line all go through `_note`, which never
lets them reach stdout. Every stage runs its records through `_run_stage`, and
words each rejected one as `line N rejected: <reason>`, N its 1-based input line;
a simulate record is one session with its script, an eval record one run. Exit
status: 0 all records clean, 1 some records rejected and the rest processed, 2
hard error (a file or flag at fault, such as an unwritable stdout or stderr, or
`stats` or `eval` accepting no record). `main` alone turns failures into a status,
and flushes stdout and stderr before it returns. It never ends the process, so
tests, the benchmark and library callers run it in-process. `process_main`, behind
`python -m simultraj.cli` and the `simultraj` script, ends the process with
os._exit on main's status, skipping the interpreter's teardown; it also flushes
argparse's own output (-h, a usage error), so that output failing is exit 2 as
well. Tools that report at exit (cProfile, coverage) see no end of such a process;
profile `main` in-process.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain, zip_longest
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

# sufficient_sets is not called here; bench/tracer.py wraps it under this module.
from simultraj.alignment import SentencePair, parse_pharaoh, sufficient_sets
from simultraj.augment import AugmentConfig, augment_pipeline
from simultraj.jsonl import decode_line, encode_json, error_text, jsonl_line, read_lines, read_records, read_scripts
from simultraj.metrics import CostModel, corpus_stats, corpus_stats_table, events_report, run_latency
# monotonicize is not called here; bench/tracer.py wraps it under this module.
from simultraj.monotonic import MonotonicPlan, monotonicize, plan_links
from simultraj.sftformat import DEFAULT_TEMPLATE, get_template, record_to_dict, render_conversational
from simultraj.simulator import (
    CONVERSATIONAL,
    DEFAULT_BEAM,
    DEFAULT_GAMMA,
    PROMPT_MODES,
    SELECT_KINDS,
    ScriptedModel,
    SelectStrategy,
    dump_events_jsonl,
    load_events_jsonl,
    run as simulate_run,
)
from simultraj.trajectory import Trajectory, build_meta, from_record, to_record, verify


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


def _note(line: str) -> None:
    """Print one diagnostic line to stderr; every diagnostic goes through here.
    A process started with descriptor 2 closed has sys.stderr None, and print
    would write the line to stdout: it is dropped instead."""
    if sys.stderr is not None:
        print(line, file=sys.stderr, flush=True)


def _flush_outputs() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None: the process started with that descriptor closed
            stream.flush()


def _print_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    _note(f"{args.command} resolved config: {encode_json(resolved)}")


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
    _flush_outputs()  # a worker that prints must not repeat what the parent buffered
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


def _open_output(path: str, *inputs: str) -> BinaryIO:
    """Open a stage's output for writing, after its inputs and before reading
    them: a missing input keeps an existing output's bytes, and an unwritable
    output stops the stage before it reads. ValueError if path names an input,
    which opening would empty."""
    if os.path.exists(path) and any(os.path.exists(p) and os.path.samefile(path, p) for p in inputs):
        raise ValueError(f"--out {path} is also an input")
    return open(path, "wb")


def _run_stage(args: argparse.Namespace, worker: Callable, read: Callable, *inputs: str,
               report: Callable | None = None) -> int:
    """Pass worker's results over the items read(*inputs) gives, in input order,
    to report, else to --out, and note the reason of each rejected record
    instead; 1 if any was rejected. read opens the inputs, before --out."""
    items = read(*inputs)
    failures = 0

    def accepted() -> Iterator:
        nonlocal failures
        for status, payload in _pmap(partial(_or_rejected, worker), items, getattr(args, "workers", 1)):
            if status == "ok":
                yield payload
            else:
                failures += 1
                _note(payload)

    with nullcontext() if report else _open_output(args.out, *inputs) as out:
        (report or out.writelines)(accepted())
    return 1 if failures else 0


def _or_rejected(worker: Callable, item: tuple) -> tuple[str, object]:
    """("ok", worker(item)), or ("err", "line N rejected: <reason>"), the one
    line that words every rejection of every stage, N the 1-based input line of
    the record or session, or of a run's first record."""
    try:
        return ("ok", worker(item))
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        return ("err", f"line {item[0] + 1} rejected: {error_text(exc)}")


def _verified(traj: Trajectory, plan: MonotonicPlan | None = None) -> Trajectory:
    """traj, or ValueError naming its id and each problem verify(traj, plan) finds."""
    if problems := verify(traj, plan):
        raise ValueError(f"record {traj.pair_id}: " + "; ".join(problems))
    return traj


def _read_trajectory(item: tuple[int, bytes]) -> Trajectory:
    """The sound trajectory on a JSONL line: augment, format and stats read here."""
    return _verified(from_record(decode_line(item[1])))


# ----------------------------------------------------------------- curate

def _curate_record(item: tuple[int, bytes, bytes, bytes]) -> bytes:
    idx, src, tgt, align = item
    pair = SentencePair.from_text(src.decode(), tgt.decode(), idx)  # not UTF-8: a ValueError
    plan = plan_links(pair, parse_pharaoh(align.decode(), pair.source_len, pair.target_len, idx))
    return jsonl_line(to_record(_verified(build_meta(plan, pair), plan)))


def _iter_curate_inputs(*paths: str) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    """curate's items, one per line of its three inputs, which are opened now."""
    return _curate_items(zip_longest(*map(read_lines, paths)), paths)


def _curate_items(rows: Iterator, paths: tuple[str, ...]) -> Iterator[tuple[int, bytes, bytes, bytes]]:
    for idx, lines in enumerate(rows):
        if None in lines:  # one file ran out of lines before another
            raise ValueError(f"line count mismatch among {', '.join(paths)} at line {idx + 1}")
        (_, src), (_, tgt), (_, align) = lines
        yield idx, src, tgt, align


def cmd_curate(args: argparse.Namespace) -> int:
    return _run_stage(args, _curate_record, _iter_curate_inputs, args.src, args.tgt, args.align)


# ---------------------------------------------------------------- augment

def _augment_record(item: tuple[int, bytes], cfg: AugmentConfig) -> bytes:
    return jsonl_line(to_record(_verified(augment_pipeline(_read_trajectory(item), cfg))))


def cmd_augment(args: argparse.Namespace) -> int:
    cfg = AugmentConfig(
        delta_min=args.delta_min,
        delta_max=args.delta_max,
        beta=args.beta,
        rho_min=args.rho_min,
        seed=args.seed,
    )
    worker = partial(_augment_record, cfg=cfg)
    return _run_stage(args, worker, read_records, args.in_path)


# ----------------------------------------------------------------- format

def _format_record(item: tuple[int, bytes], system_msg: str, template: str) -> bytes:
    return jsonl_line(record_to_dict(render_conversational(_read_trajectory(item), system_msg, template)))


def cmd_format(args: argparse.Namespace) -> int:
    get_template(args.template)  # fail fast on an unknown template id,
    args.system_msg.encode()  # or on a lone surrogate, which every record would hold
    worker = partial(_format_record, system_msg=args.system_msg, template=args.template)
    return _run_stage(args, worker, read_records, args.in_path)


# ------------------------------------------------------------------ stats

def cmd_stats(args: argparse.Namespace) -> int:
    return _run_stage(args, _read_trajectory, read_records, args.in_path,
                      report=lambda trajs: print(corpus_stats_table(corpus_stats(trajs))))


# --------------------------------------------------------------- simulate

def _simulate_session(item: tuple, args: argparse.Namespace, strategy: SelectStrategy) -> bytes:
    """The event lines of one session, whose id is its 0-based source line."""
    idx, source, script = item
    if isinstance(source, UnicodeDecodeError):
        raise source
    if not source:
        raise ValueError("blank source line")
    sim = simulate_run(source, ScriptedModel.from_obj(script), chunk_size=args.chunk, strategy=strategy,
                       prompt_mode=args.prompt, beam=args.beam, pair_id=idx)
    dump_events_jsonl((sim,), out := io.StringIO())  # it writes str, as to in-memory callers
    return out.getvalue().encode()


def _sessions(scripts: Iterator, lines: Iterator[tuple[int, bytes]]) -> Iterator[tuple]:
    """simulate's items, one per source line: its number, its words or its decoding
    error, and the script it takes (a blank line none), holding one script at a time."""
    used = 0
    for idx, line in lines:
        try:
            source = line.decode().split()
        except UnicodeDecodeError as exc:
            source = exc
        script = next(scripts, StopIteration) if source else None
        if script is StopIteration:
            rest = sum(1 for _, line in lines if line.decode(errors="replace").split())
            raise ValueError(f"model file has {used} scripts for {used + 1 + rest} non-blank source lines")
        used += bool(source)
        yield idx, source, script
    if extra := sum(1 for _ in scripts):
        raise ValueError(f"model file has {used + extra} scripts for {used} non-blank source lines")


def cmd_simulate(args: argparse.Namespace) -> int:
    worker = partial(_simulate_session, args=args, strategy=SelectStrategy(args.select, args.gamma))
    # Opens the model file, then the source, then --out.
    read = lambda src, model: _sessions(read_scripts(model), read_lines(src))
    return _run_stage(args, worker, read, args.src, args.model)


# ------------------------------------------------------------------- eval

def cmd_eval(args: argparse.Namespace) -> int:
    cost = CostModel(args.cost_recompute, args.cost_word)
    report = lambda latencies: print(encode_json(events_report(latencies)._asdict()))
    return _run_stage(args, lambda run: run_latency(run[1], cost), load_events_jsonl, args.events, report=report)


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
    if getattr(args, "select", "ralcp") != "ralcp":  # print the gamma 1.0 that LCP and greedy run at
        args.gamma = SelectStrategy(args.select, args.gamma).gamma
    try:
        _print_config(args)
        code = args.func(args)
        _flush_outputs()
        return code
    except (ValueError, OSError, RecursionError, ArithmeticError) as exc:
        return _failed(exc)


def _failed(exc: BaseException) -> int:
    """Exit status 2, once the error line is printed where stderr still takes it."""
    try:
        _note(f"error: {exc}")
    except OSError:  # stderr is what failed
        pass
    return 2


def process_main() -> NoReturn:
    """main() on sys.argv as the whole process, ended with os._exit: main has
    flushed its outputs and _pmap has waited for its workers, so the teardown
    would only free memory that the OS frees anyway. argparse's SystemExit (-h,
    a usage error) leaves main with argparse's text still buffered: it is
    flushed here, and a failed flush is exit 2 too. Any exception main does not
    turn into a status exits the usual way."""
    try:
        code = main()
    except SystemExit:
        try:
            _flush_outputs()
        except OSError as exc:
            os._exit(_failed(exc))
        raise
    os._exit(code)


if __name__ == "__main__":
    process_main()
