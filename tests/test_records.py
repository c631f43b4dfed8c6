"""Record types: immutable, still validating, and cheap to import."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_pair
from simultraj import alignment, augment, metrics, monotonic, sftformat, simulator, trajectory
from simultraj.alignment import SentencePair
from simultraj.augment import AugmentConfig, merge, shift
from simultraj.monotonic import MonotonicPlan
from simultraj.simulator import GREEDY, ScriptedModel, SelectStrategy, run, scripted_echo
from simultraj.trajectory import MERGED, Chunk, Trajectory, build_meta

SRC = Path(__file__).resolve().parent.parent / "src"

# Stdlib modules that no subcommand needs before its first record: dataclasses
# pulls in inspect, ast, dis and tokenize; statistics pulls in fractions and
# decimal; hashlib loads OpenSSL and only augment's derive_rng uses it.
HEAVY = ("dataclasses", "inspect", "statistics", "hashlib")


def test_cli_import_loads_no_heavy_stdlib_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import simultraj.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC), *HEAVY],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == []


VALID = {
    SentencePair: SentencePair(("a",), ("x",), 3),
    AugmentConfig: AugmentConfig(),
    SelectStrategy: SelectStrategy("ralcp", 0.6),
}


def _record_classes():
    for module in (alignment, augment, metrics, monotonic, sftformat, simulator, trajectory):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, "_fields"):
                yield cls


RECORDS = sorted(_record_classes(), key=lambda cls: cls.__name__)


def test_every_record_class_is_found():
    assert {cls.__name__ for cls in RECORDS} == {
        "AugmentConfig", "ChatTemplate", "Chunk", "CostModel", "LatencyReport",
        "MeanStd", "MonotonicPlan", "ProvenanceStats", "RunLatency", "SelectStrategy", "SentencePair",
        "SftRecord", "SimEvent", "SimRun", "Trajectory",
    }
    assert set(VALID) <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_attribute_assignment(cls):
    record = VALID.get(cls) or cls(*range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: SentencePair((), ("x",), 4), ValueError,
                     "record 4: empty source sentence", id="pair-empty-source"),
        pytest.param(lambda: SentencePair(("a",), ()), ValueError,
                     "record 0: empty target sentence", id="pair-empty-target"),
        pytest.param(lambda: SentencePair(("a b",), ("x",)), ValueError,
                     "record 0: bad source word 'a b' (empty or contains whitespace)",
                     id="pair-source-word-space"),
        pytest.param(lambda: SentencePair(source=("a",), target=("",)), ValueError,
                     "record 0: bad target word '' (empty or contains whitespace)",
                     id="pair-target-word-empty"),
        pytest.param(lambda: SentencePair(("a", None), ("x",)), ValueError,
                     "record 0: bad source word None (empty or contains whitespace)",
                     id="pair-source-word-none"),
        pytest.param(lambda: SentencePair(("a", 5), ("x",)), ValueError,
                     "record 0: bad source word 5 (empty or contains whitespace)",
                     id="pair-source-word-int"),
        pytest.param(lambda: SentencePair(("a",), ("x", "y\tz")), ValueError,
                     "record 0: bad target word 'y\\tz' (empty or contains whitespace)",
                     id="pair-target-word-tab"),
        (lambda: AugmentConfig(delta_min=0), ValueError, "delta_min must be >= 1"),
        (lambda: AugmentConfig(3, 2), ValueError, "delta_max must be >= delta_min"),
        (lambda: AugmentConfig(beta=1.5), ValueError, "beta must be in [0, 1]"),
        (lambda: AugmentConfig(rho_min=0.9), ValueError, "rho_min must be in (0, 0.9)"),
        (lambda: SelectStrategy("beam"), ValueError, "unknown selection strategy 'beam'"),
        (lambda: SelectStrategy("ralcp", 0.0), ValueError, "gamma must be in (0, 1]"),
    ],
)
def test_validating_record_rejects_bad_values(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


ONE_CHUNK_META = Trajectory((Chunk(2, 2),), make_pair(2, 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: run(["a"], scripted_echo(["a"], 1), 0, GREEDY), ValueError, "chunk_size must be >= 1"),
        (lambda: run(["a"], scripted_echo(["a"], 1), 1, GREEDY, beam=0), ValueError, "beam must be >= 1"),
        (lambda: run(["a"], scripted_echo(["a"], 1), 1, GREEDY, prompt_mode="x"), ValueError,
         "prompt_mode must be one of ('conversational', 'offline')"),
        (lambda: run([], scripted_echo([], 1), 1, GREEDY), ValueError, "empty source"),
        (lambda: run(["a", "b"], ScriptedModel(((("A",),), ())), 1, GREEDY), ValueError,
         "model returned no candidates at round 1"),
        (lambda: build_meta(MonotonicPlan((1, 2), (), 2), make_pair(2, 3, 4)), ValueError,
         "record 4: plan shape does not match sentence pair"),
        (lambda: build_meta(MonotonicPlan((1, 2), (), 3), make_pair(2, 2, 4)), ValueError,
         "record 4: plan shape does not match sentence pair"),
        (lambda: merge(ONE_CHUNK_META._replace(provenance=MERGED), AugmentConfig(), None), ValueError,
         "record 0: provenance 'merged' is not meta"),
        (lambda: shift(ONE_CHUNK_META, AugmentConfig(), None), ValueError,
         "record 0: provenance 'meta' is not merged"),
    ],
    ids=["run-chunk-0", "run-beam-0", "run-prompt-mode", "run-empty-source", "run-no-candidates",
         "build-meta-target-len", "build-meta-source-len", "merge-not-meta", "shift-not-merged"],
)
def test_library_guard_rejects_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "source, target, message",
    [
        ("", "x y", "record 5: empty source sentence"),
        ("a b", "", "record 5: empty target sentence"),
        (" \t\u3000", "x", "record 5: empty source sentence"),
        ("a", "\n \x1c", "record 5: empty target sentence"),
        ("", "", "record 5: empty source sentence"),
    ],
    ids=["source-empty", "target-empty", "source-whitespace", "target-whitespace", "both-empty"],
)
def test_from_text_rejects_an_empty_side(source, target, message):
    with pytest.raises(ValueError) as exc:
        SentencePair.from_text(source, target, 5)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_validating_records_keep_defaults_and_keywords():
    assert SentencePair(("a",), ("x",)).id == 0
    pair = SentencePair.from_text(" a\tb\u3000c ", "x\x1cy", 2)
    assert pair == SentencePair(("a", "b", "c"), ("x", "y"), 2) and type(pair) is SentencePair
    assert AugmentConfig(seed=5) == AugmentConfig(2, 10, 0.5, 0.5, 5)
    assert SelectStrategy(kind="lcp").gamma == 1.0
    assert SelectStrategy("lcp", 0.0).gamma == SelectStrategy("greedy", 0.3).gamma == 1.0
    assert repr(SentencePair(("a",), ("x",))) == "SentencePair(source=('a',), target=('x',), id=0)"
