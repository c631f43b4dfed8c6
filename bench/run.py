#!/usr/bin/env python3
"""Benchmark of the simultraj command-line toolkit.

Run from the repository root:

  python3 bench/run.py --workload corpus-serial --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed``, runs the CLI stages of the
workload as subprocesses (``python -m simultraj.cli`` with ``src/`` on the
path) in repeated passes for ``--seconds``, checks every output, and prints
one metric per line followed by a JSON summary as the last line. With
``--trace 1`` it adds an in-process run of ``simultraj.cli.main`` with every
public layer function wrapped in a span, and prints per-layer metrics instead
of end-to-end ones. Exit status: 0 all checks passed, 1 a check failed, 2 the
program is missing or cannot start, 3 the run hit its deadline.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import inputs
import reference
from tracer import ROUND_BUCKETS, STAGE_SPANS, TRACED, Tracer, originals_restored

ROOT = inputs.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BEAM = 5
GAMMA = 0.6
DISAGREE = 0.25  # chance that a candidate word differs from the echo
SETUP_SAMPLES = 5  # before the passes; one more follows each pass
DEADLINE_S = 170  # the run must end within 180 s
PMAP_STAGES = ("curate", "augment", "format")
STAGE_METRICS = {
    "curate": "curate_pairs_per_s",
    "augment": "augment_records_per_s",
    "format": "format_records_per_s",
    "stats": "stats_records_per_s",
    "simulate": "simulate_words_per_s",
    "eval": "eval_events_per_s",
}


@dataclass(frozen=True)
class Workload:
    kind: str  # "corpus" or "sim"
    size: int = 0  # corpus pairs, or short sessions
    workers: int = 1
    lengths: tuple[int, ...] = ()  # long session lengths in words
    chunk: int = 1


WORKLOADS = {
    "corpus-serial": Workload("corpus", size=10_000, workers=1),
    "corpus-parallel": Workload("corpus", size=10_000, workers=2),
    "sim-long": Workload("sim", lengths=ROUND_BUCKETS, chunk=1),
    "sim-short": Workload("sim", size=3_000, chunk=3),
}

# A pass's CPU time is reported in units of the reference job's CPU time,
# measured before each stage of the same pass (see reference.py): the host's
# speed drifts, and moves both alike, so it cancels out of their ratio. Wall
# times are per-layer metrics only: on a shared 2-vCPU host, other tenants
# take whole vCPUs for minutes, and a --workers 2 pass then runs ~50% longer
# in wall time at the same CPU time.
#
# setup_s is the set-up's CPU time, not its wall time: on a shared 2-vCPU host
# the wall time of a set-up sample varied by 18% (coefficient of variation),
# its CPU time by 7%. It is scaled, like the passes, by the reference job's CPU
# time in the same run, to a host on which that job takes REFERENCE_CPU_S
# (the 2-vCPU VM the benchmark was tuned on): unscaled, the host's speed moved
# its median by up to 15% from one set of ten runs to the next.
REFERENCE_CPU_S = 0.040
END_TO_END = {
    "setup_s": "s",
    "norm_cpu_per_krecord": "ref",
    "peak_rss_mb": "MB",
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    spec = []
    for name, *_ in TRACED:
        spec += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_ms", "ms", "lower"),
            (f"{name}.us_p50", "us", "lower"),
            (f"{name}.us_p99", "us", "lower"),
        ]
    spec += [(f"{name}.self_ms", "ms", "lower") for name, *_ in STAGE_SPANS]
    spec += [
        ("monotonic.added_edges_per_pair", "count", "lower"),
        ("augment.merge.chunks_in_per_out", "ratio", "lower"),
        ("augment.shift.applied_share", "ratio", "lower"),
        ("sftformat.prompt_words_rendered", "count", "lower"),
        ("simulator.new_word_share", "ratio", "higher"),
        ("simulator.rounds", "count", "lower"),
        ("simulator.recompute_words.conversational", "count", "lower"),
        ("simulator.recompute_words.offline", "count", "lower"),
    ]
    spec += [(f"simulator.run.ms_per_round.len{n}", "ms", "lower") for n in ROUND_BUCKETS]
    spec += [(f"cli.pmap.speedup.{s}", "ratio", "higher") for s in PMAP_STAGES]
    spec += [(f"cli.pmap.cpu_ratio.{s}", "ratio", "lower") for s in PMAP_STAGES]
    spec += [(metric, "1/s", "higher") for metric in STAGE_METRICS.values()]
    spec += [
        ("setup_wall_s", "s", "lower"),
        ("setup_cpu_s", "s", "lower"),
        ("norm_wall_per_krecord", "ref", "lower"),
        ("throughput_per_s", "1/s", "higher"),
        ("cpu_ms_per_record", "ms", "lower"),
        ("reference.job_ms", "ms", "lower"),
    ]
    spec += [("trace.overhead_share", "ratio", "lower"), ("failed_share", "ratio", "lower")]
    return spec


# ------------------------------------------------------------ subprocesses

@dataclass(frozen=True)
class Proc:
    wall: float
    cpu: float  # user + sys of the process and the workers it waited for
    rss_mb: float
    code: int


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict[str, str]) -> Proc:
    """Run the interpreter with argv; resources come from wait4 for that child alone."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    # Its own process group, so an abort also stops the pool workers it started.
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions, setpgroup=0)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status))


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_time(env: dict[str, str], work: Path) -> Proc:
    """Wall and CPU time to start the interpreter and import simultraj.cli."""
    proc = spawn(["-c", "import simultraj.cli"], work / "setup.out", work / "setup.err", env)
    if proc.code:
        raise RuntimeError("import simultraj.cli failed: " + (work / "setup.err").read_text())
    return proc


# ----------------------------------------------------------------- stages

def make_inputs(w: Workload, work: Path, seed: int) -> dict[str, Path]:
    work.mkdir(parents=True)
    if w.kind == "corpus":
        return inputs.make_corpus(work, w.size, seed)
    if w.lengths:
        # Every toy sentence has at least three words.
        corpus = inputs.make_corpus(work, sum(w.lengths) // 3 + 1, seed)
        sources = inputs.long_streams(corpus["src"], w.lengths)
    else:
        corpus = inputs.make_corpus(work, w.size, seed)
        sources = [line.split() for line in corpus["src"].read_text(encoding="utf-8").splitlines()]
    return inputs.write_sim_inputs(work, sources, w.chunk, BEAM, DISAGREE, seed)


def stage_argv(w: Workload, inp: dict[str, Path], out: Path, seed: int, workers: int) -> list[tuple[str, list[str]]]:
    out.mkdir(parents=True, exist_ok=True)
    if w.kind == "corpus":
        meta, aug, sft = (str(out / name) for name in ("meta.jsonl", "aug.jsonl", "sft.jsonl"))
        par = ["--workers", str(workers)]
        return [
            ("curate", ["curate", "--src", str(inp["src"]), "--tgt", str(inp["tgt"]),
                        "--align", str(inp["align"]), "--out", meta, *par]),
            ("augment", ["augment", "--in", meta, "--out", aug, "--seed", str(seed), *par]),
            ("format", ["format", "--in", aug, "--out", sft, *par]),
            ("stats", ["stats", "--in", aug]),
        ]
    events = str(out / "events.jsonl")
    return [
        ("simulate", ["simulate", "--src", str(inp["sim_src"]), "--model", str(inp["model"]),
                      "--chunk", str(w.chunk), "--beam", str(BEAM), "--select", "ralcp",
                      "--gamma", str(GAMMA), "--prompt", "conversational", "--out", events]),
        ("eval", ["eval", "--events", events]),
    ]


def data_files(w: Workload) -> tuple[str, ...]:
    return ("meta.jsonl", "aug.jsonl", "sft.jsonl") if w.kind == "corpus" else ("events.jsonl",)


def output_hashes(w: Workload, out: Path) -> dict[str, str]:
    return {name: inputs.sha256_file(out / name) for name in data_files(w)}


def run_pass(
    stages: list[tuple[str, list[str]]], out: Path, env: dict[str, str],
    ref: list[tuple[float, float]] | None = None,
) -> dict[str, Proc]:
    """One pass through the stages; stops at the first stage that exits non-zero.

    With ``ref``, a reference sample (wall, CPU) is appended to it before each stage.
    """
    procs = {}
    for name, argv in stages:
        if ref is not None:
            ref.append(reference.sample())
        procs[name] = spawn(["-m", "simultraj.cli", *argv], out / f"{name}.stdout", out / f"{name}.stderr", env)
        if procs[name].code:
            break
    return procs


def run_in_process(stages: list[tuple[str, list[str]]]) -> tuple[float, list[int]]:
    """Wall time and exit codes of the stages through simultraj.cli.main in this process."""
    from simultraj.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        codes = [main(argv) for _, argv in stages]
    return time.perf_counter() - start, codes


# -------------------------------------------------------------- benchmark

class Ledger:
    """Attempted and failed records and checks; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def records(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED: {what}: {failed} of {attempted} records", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED check: {name} {detail}".rstrip(), file=sys.stderr)


def count_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


def benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Ledger, dict, dict]:
    import checks  # needs src/ on sys.path

    w = WORKLOADS[name]
    env = program_env()
    ledger = Ledger()
    notes: list[str] = []
    work.mkdir(parents=True)
    import_time(env, work)  # writes the bytecode cache, which users pay for once
    setup = [import_time(env, work) for _ in range(SETUP_SAMPLES)]

    inp = make_inputs(w, work / "in", seed)
    if w.kind == "corpus":
        records = w.size
        units = {stage: w.size for stage in ("curate", "augment", "format", "stats")}
        expected_lines = {"meta.jsonl": w.size, "aug.jsonl": w.size, "sft.jsonl": w.size}
        workload_units = w.size
    else:
        sources = [line.split() for line in inp["sim_src"].read_text(encoding="utf-8").splitlines()]
        scripts = json.loads(inp["model"].read_text(encoding="utf-8"))
        records = len(sources)
        words = sum(len(s) for s in sources)
        events = sum(-(-len(s) // w.chunk) for s in sources)
        units = {"simulate": words, "eval": events}
        expected_lines = {"events.jsonl": events}
        workload_units = words

    out = work / "out"
    stages = stage_argv(w, inp, out, seed, w.workers)
    passes: list[dict[str, Proc]] = []
    refs: list[list[tuple[float, float]]] = []  # per pass, one sample per stage
    hashes: list[dict[str, str]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        ref: list[tuple[float, float]] = []
        procs = run_pass(stages, out, env, ref)
        for stage, _ in stages:
            proc = procs.get(stage)
            ok = proc is not None and proc.code == 0
            ledger.records(records, 0 if ok else records, f"pass {len(passes)} {stage} exit {proc and proc.code}")
        if any(p.code for p in procs.values()):
            break
        for fname, n in expected_lines.items():
            ledger.check(f"pass {len(passes)} {fname} line count", count_lines(out / fname) == n)
        passes.append(procs)
        refs.append(ref)
        hashes.append(output_hashes(w, out))
        setup.append(import_time(env, work))  # spreads set-up samples over the run

    info = {"workload": name, "seed": seed, "passes": len(passes), "notes": notes}
    if not passes:
        return ledger, {}, info
    ledger.check("outputs identical across passes", all(h == hashes[0] for h in hashes), f"{len(passes)} passes")
    if w.kind == "corpus":
        for result in checks.check_corpus(inp, out, w.size, seed):
            ledger.check(*result)
        golden = checks.check_golden_corpus(work / "golden")
    else:
        runs = checks.simulate_in_process(sources, scripts, w.chunk, BEAM, GAMMA)
        for result in checks.check_events(out / "events.jsonl", runs):
            ledger.check(*result)
        for result in checks.check_eval((out / "eval.stdout").read_text(encoding="utf-8", errors="replace"), runs):
            ledger.check(*result)
        golden = checks.check_golden_events(work / "golden", BEAM, GAMMA, DISAGREE)
    for result in golden:
        ledger.check(*result)

    layer: dict[str, float] = {metric: 0.0 for metric, _, _ in per_layer_spec()}
    if w.workers > 1:
        ref = work / "serial"
        serial = run_pass(stage_argv(w, inp, ref, seed, 1), ref, env)
        serial_ok = len(serial) == len(stages) and not any(p.code for p in serial.values())
        ledger.check("serial reference pass exits 0", serial_ok)
        ledger.check("serial and parallel outputs identical", serial_ok and output_hashes(w, ref) == hashes[0])
        for stage in PMAP_STAGES if serial_ok else ():
            layer[f"cli.pmap.speedup.{stage}"] = serial[stage].wall / median(p[stage].wall for p in passes)
            layer[f"cli.pmap.cpu_ratio.{stage}"] = median(p[stage].cpu for p in passes) / serial[stage].cpu

    walls = [sum(p.wall for p in procs.values()) for procs in passes]
    cpus = [sum(p.cpu for p in procs.values()) for procs in passes]
    ref_walls = [sum(w for w, _ in ref) / len(ref) for ref in refs]
    ref_cpus = [sum(c for _, c in ref) / len(ref) for ref in refs]
    krecords = workload_units / 1e3
    e2e = {
        "setup_s": median(p.cpu for p in setup) / median(c for ref in refs for _, c in ref) * REFERENCE_CPU_S,
        "norm_cpu_per_krecord": median(c / r / krecords for c, r in zip(cpus, ref_cpus)),
        "peak_rss_mb": median(max(p.rss_mb for p in procs.values()) for procs in passes),
    }
    # Over the reference's CPU time, not its wall time: time lost to other
    # tenants then shows once, in the pass, instead of in both terms.
    layer["norm_wall_per_krecord"] = median(w / r / krecords for w, r in zip(walls, ref_cpus))
    layer["setup_wall_s"] = median(p.wall for p in setup)
    layer["setup_cpu_s"] = median(p.cpu for p in setup)
    layer["throughput_per_s"] = median(workload_units / wall for wall in walls)
    layer["cpu_ms_per_record"] = median(cpu / krecords for cpu in cpus)
    layer["reference.job_ms"] = median(ref_walls) * 1e3
    info["pass_seconds"] = [
        {"wall": w, "cpu": c, "ref_wall": rw, "ref_cpu": rc} for w, c, rw, rc in zip(walls, cpus, ref_walls, ref_cpus)
    ]
    for stage, n in units.items():
        layer[STAGE_METRICS[stage]] = median(n / procs[stage].wall for procs in passes)

    if trace:
        untraced_s, codes = run_in_process(stage_argv(w, inp, work / "inproc", seed, w.workers))
        ledger.check("in-process stages exit 0", not any(codes), str(codes))
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, codes = run_in_process(stage_argv(w, inp, work / "traced", seed, w.workers))
        finally:
            tracer.uninstall()
        ledger.check("traced stages exit 0", not any(codes), str(codes))
        ledger.check("tracing wrappers removed", originals_restored())
        ledger.check("traced outputs equal untraced outputs", output_hashes(w, work / "traced") == hashes[0])
        tracer.write_spans(WORK / "results" / f"spans-{name}.jsonl")
        traced = tracer.metrics()
        if w.workers > 1:
            notes.append(
                "corpus-parallel: per-record layer spans run in pool workers and are not collected; "
                "only parent-side numbers (cli.*, cli.pmap.*) are reported, layer spans read 0"
            )
            traced = {k: v for k, v in traced.items() if k.startswith("cli.")}
        layer.update(traced)
        layer["trace.overhead_share"] = traced_s / untraced_s - 1

    layer["failed_share"] = ledger.failed / ledger.attempted
    info["inputs_sha256"] = {k: inputs.sha256_file(p) for k, p in sorted(inp.items())}
    info["outputs_sha256"] = hashes[0]
    return ledger, (layer if trace else e2e), info


def machine_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark did not finish within {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "simultraj" / "cli.py", inputs.TOY_CORPUS_SCRIPT) if not p.is_file()]
    if missing:
        print(f"error: program files missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        ledger, metrics, info = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END if not args.trace else {n: u for n, u, _ in per_layer_spec()}
    correct = ledger.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    info["machine"] = machine_info()
    info["layer_targets"] = {name: target for name, _, _, target in TRACED}
    info["result"] = result
    suffix = "-trace" if args.trace else ""
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}{suffix}.json", "w", encoding="utf-8") as f:
        json.dump(info, f, indent=1)
    for note in info["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
