import json
import random
import re
import time
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ScriptRecorder, committed, oracle_run, ref_select_prefix, replay_prompts
from simultraj.jsonl import encode_json
from simultraj.metrics import CostModel, events_report
from simultraj.simulator import (
    GREEDY,
    ScriptedModel,
    SelectStrategy,
    SimEvent,
    SimulationError,
    dump_events_jsonl,
    load_events_jsonl,
    run,
    scripted_echo,
    select_prefix,
)


def brute_lcp(candidates):
    prefix = []
    for p in range(min(len(c) for c in candidates)):
        word = candidates[0][p]
        if all(c[p] == word for c in candidates):
            prefix.append(word)
        else:
            break
    return prefix


def test_ralcp_vote_trace():
    candidates = [["a", "b", "c"], ["a", "b", "d"], ["a", "x", "y"]]
    # votes: a 3/3, b 2/3 (= 0.667 >= 0.6), then three-way split 1/3
    assert select_prefix(candidates, SelectStrategy("ralcp", 0.6)) == ["a", "b"]


def test_lcp_unanimity_prefix():
    candidates = [["a", "b", "c"], ["a", "b", "d"], ["a", "x", "y"]]
    assert select_prefix(candidates, SelectStrategy("lcp")) == ["a"]


def test_greedy_returns_whole_top_candidate():
    assert select_prefix([["x", "y", "z"]], GREEDY) == ["x", "y", "z"]
    assert select_prefix([["x"], ["completely", "different"]], GREEDY) == ["x"]


def test_ralcp_tie_stops_acceptance():
    # 2/4 vs 2/4 at position 0: tied plurality is rejected even though 0.5 >= gamma.
    candidates = [["a"], ["a"], ["b"], ["b"]]
    assert select_prefix(candidates, SelectStrategy("ralcp", 0.5)) == []


def test_ralcp_stops_at_exhausted_candidate():
    candidates = [["a", "b"], ["a"], ["a", "b"]]
    assert select_prefix(candidates, SelectStrategy("ralcp", 0.5)) == ["a"]


def test_select_requires_candidates():
    with pytest.raises(ValueError):
        select_prefix([], SelectStrategy("lcp"))


def test_strategy_validation():
    with pytest.raises(ValueError):
        SelectStrategy("vote")
    with pytest.raises(ValueError):
        SelectStrategy("ralcp", 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_ralcp_gamma_one_equals_brute_lcp(candidates):
    assert select_prefix(candidates, SelectStrategy("ralcp", 1.0)) == brute_lcp(candidates)
    assert select_prefix(candidates, SelectStrategy("lcp")) == brute_lcp(candidates)


GAMMAS = st.one_of(
    st.sampled_from([1 / 3, 0.5, 0.6, 2 / 3, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@settings(max_examples=500, deadline=None)
@given(
    # A 2-3 word vocabulary makes ties and bare majorities common.
    st.integers(2, 3).flatmap(
        lambda size: st.lists(
            st.lists(st.sampled_from("abc"[:size]), max_size=6), min_size=1, max_size=6
        )
    ),
    st.sampled_from(["lcp", "ralcp", "greedy"]),
    GAMMAS,
)
def test_select_prefix_matches_counting_reference(candidates, kind, gamma):
    strategy = SelectStrategy(kind, gamma)
    assert select_prefix(candidates, strategy) == ref_select_prefix(candidates, strategy)
    beam = tuple(map(tuple, candidates))  # run() passes tuples
    assert select_prefix(beam, strategy) == ref_select_prefix(beam, strategy)


def echo_run(n=2, source_len=4, prompt_mode="conversational"):
    source = [f"w{i}" for i in range(1, source_len + 1)]
    model = scripted_echo(source, n, beam=1)
    return run(source, model, chunk_size=n, strategy=GREEDY, beam=1, prompt_mode=prompt_mode)


def test_echo_run_two_rounds_commits_chunks():
    sim = echo_run()
    assert sim.rounds == 2
    assert [e.committed_words for e in sim.events] == [("W1", "W2"), ("W3", "W4")]
    assert committed(sim) == ("W1", "W2", "W3", "W4")
    assert [e.cumulative_source_read for e in sim.events] == [2, 4]


def test_conversational_recompute_is_words_appended():
    sim = echo_run()
    lengths = [len(p.prompt_conversational.split()) for p in replay_prompts(sim)]
    assert sim.events[0].recompute_tokens_conversational == lengths[0]
    assert sim.events[1].recompute_tokens_conversational == lengths[1] - lengths[0]


def test_offline_recompute_exceeds_conversational_after_history():
    sim = echo_run()
    assert (
        sim.events[1].recompute_tokens_offline
        > sim.events[1].recompute_tokens_conversational
    )


def test_ralcp_stall_then_flush_commits_everything():
    disagree = lambda w: ((w + "1",), (w + "2",), (w + "3",))
    model = ScriptedModel((disagree("a"), disagree("b"), (("FULL", "OUT"), ("x",), ("y",))))
    sim = run(["s1", "s2", "s3"], model, chunk_size=1, strategy=SelectStrategy("ralcp", 0.6), beam=3)
    assert [e.committed_words for e in sim.events] == [(), (), ("FULL", "OUT")]


def test_append_only_prompts():
    sim = echo_run(n=1, source_len=5)
    prompts = replay_prompts(sim)
    for prev, cur in zip(prompts, prompts[1:]):
        assert cur.prompt_conversational.startswith(prev.prompt_plus_commit)


def test_monotone_commit_prefix_stability():
    sim = echo_run(n=1, source_len=6)
    so_far = []
    for event in sim.events:
        after = so_far + list(event.committed_words)
        assert after[: len(so_far)] == so_far
        so_far = after
    assert tuple(so_far) == committed(sim)


def test_greedy_beam_one_concatenates_all_outputs():
    rng = random.Random(123)
    source = [f"w{i}" for i in range(1, 8)]
    rounds = []
    for _ in range(4):  # ceil(7/2) rounds
        rounds.append((tuple(f"o{rng.randrange(100)}" for _ in range(rng.randint(1, 4))),))
    model = ScriptedModel(tuple(rounds))
    sim = run(source, model, chunk_size=2, strategy=GREEDY, beam=1)
    expected = tuple(w for beam in rounds for w in beam[0])
    assert committed(sim) == expected


def recompute_totals(sim):
    """(conversational, offline) recompute totals of one run, as `eval` sums them."""
    records = [event._asdict() for event in sim.events]
    report = events_report([records], CostModel())
    return report.recompute_total_conversational, report.recompute_total_offline


def test_cache_savings_totals_and_telescoping():
    sim = echo_run()
    conversational, offline = recompute_totals(sim)
    assert conversational < offline
    final_prompt_words = len(replay_prompts(sim)[-1].prompt_conversational.split())
    assert conversational == final_prompt_words


def test_cache_savings_single_round_never_favors_offline():
    sim = echo_run(n=10, source_len=3)
    assert sim.rounds == 1
    conversational, offline = recompute_totals(sim)
    assert conversational <= offline


class ContextRecorder:
    """Echoes one fixed word per call while logging the contexts it saw."""

    def __init__(self):
        self.contexts = []

    def generate(self, context, beam):
        self.contexts.append(context)
        return [(f"y{len(self.contexts)}",)]


def test_model_sees_prompt_of_active_mode():
    source = ["a", "b", "c", "d"]
    conv_model, off_model = ContextRecorder(), ContextRecorder()
    sim_conv = run(source, conv_model, chunk_size=2, strategy=GREEDY, beam=1,
                   prompt_mode="conversational")
    sim_off = run(source, off_model, chunk_size=2, strategy=GREEDY, beam=1,
                  prompt_mode="offline")
    # A conversational round hands over only what it appends to the prompt.
    assert list(accumulate(conv_model.contexts)) == [p.prompt_conversational for p in replay_prompts(sim_conv)]
    assert off_model.contexts == [p.prompt_offline for p in replay_prompts(sim_off)]


def test_contexts_and_counts_golden():
    # Round 0 commits nothing (P|Q), round 1 commits X, the flush commits Y Z.
    rounds = ((("P",), ("Q",)), (("X",), ("X",)), (("Y", "Z"), ("W",)))
    offline = "<s>[INST] Translate the following text: "
    expected = {
        "conversational": ["<s>[INST] a", " b", " [/INST] X</s><s>[INST] c"],
        "offline": [offline + "a [/INST] Translation:", offline + "a b [/INST] Translation:",
                    offline + "a b c [/INST] Translation: X"],
    }
    for mode, contexts in expected.items():
        model = ScriptRecorder(rounds)
        sim = run(["a", "b", "c"], model, chunk_size=1, strategy=SelectStrategy("lcp"),
                  prompt_mode=mode, beam=2)
        assert model.contexts == contexts
        assert [
            (e.committed_words, e.recompute_tokens_conversational, e.recompute_tokens_offline)
            for e in sim.events
        ] == [((), 2, 8), (("X",), 1, 3), (("Y", "Z"), 3, 4)]


def test_zero_candidates_mid_stream_raises():
    class EmptyModel:
        def generate(self, context, beam):
            return []

    with pytest.raises(SimulationError):
        run(["a", "b"], EmptyModel(), chunk_size=1, strategy=GREEDY, beam=1)


def test_scripted_model_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"rounds": [[["w1", "w2"], ["w1", "w3"]]]}), encoding="utf-8")
    model = ScriptedModel.from_obj(json.loads(path.read_text(encoding="utf-8")))
    assert model.generate("ctx", 2) == [("w1", "w2"), ("w1", "w3")]
    with pytest.raises(SimulationError):
        model.generate("ctx", 2)


def test_event_log_round_trip(tmp_path):
    sims = [echo_run(n=2, source_len=4), echo_run(n=1, source_len=2)]
    sims = [
        run(
            s.source,
            scripted_echo(s.source, s.chunk_size, beam=1),
            chunk_size=s.chunk_size,
            strategy=GREEDY,
            beam=1,
            pair_id=i,
        )
        for i, s in enumerate(sims)
    ]
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8") as out:
        dump_events_jsonl(sims, out)
    grouped = list(load_events_jsonl(str(path)))
    assert len(grouped) == 2
    assert [len(g) for g in grouped] == [sims[0].rounds, sims[1].rounds]
    assert grouped[0][0]["read_words"] == ["w1", "w2"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_encode_json_is_strict(value):
    assert encode_json({"x": [1.5, "ü"]}) == '{"x": [1.5, "ü"]}'
    with pytest.raises(ValueError):
        encode_json({"x": value})


# Words equal to template tokens, empty, or holding whitespace: the counts must
# follow str.split() however a prompt's pieces meet.
TRICKY_WORDS = (
    "a", "b", "text:", "[/INST]", "Translation:", "</s><s>[INST]", "<s>[INST]",
    "Out:", "[/INST]Out:", "", " ", "x y", "z\n", "　",
)


@st.composite
def sim_cases(draw):
    source = draw(st.lists(st.sampled_from(TRICKY_WORDS), min_size=1, max_size=10))
    chunk = draw(st.integers(1, 4))
    beam = draw(st.integers(1, 4))
    words = st.lists(st.sampled_from(TRICKY_WORDS), max_size=4).map(tuple)
    rounds = []
    for _ in range(-(-len(source) // chunk)):
        if draw(st.booleans()):  # agreeing beam: something commits
            agreed = draw(words)
            rounds.append((agreed,) * beam)
        else:
            rounds.append(tuple(draw(words) for _ in range(beam)))
    kwargs = {
        "chunk_size": chunk,
        "strategy": draw(st.sampled_from([SelectStrategy("lcp"), GREEDY, SelectStrategy("ralcp", 0.6)])),
        "prompt_mode": draw(st.sampled_from(["conversational", "offline"])),
        "beam": beam,
    }
    return source, tuple(rounds), kwargs


@settings(max_examples=600, deadline=None)
@given(sim_cases())
# Round 2 reads the previous round's offline tail (the trigger's words, then
# the committed "X"), so the common word prefix runs past the trigger words.
@example((
    ("a", "b", "c", "d", "e", "f", "[/INST]", "Translation:", "X"),
    ((("X",),), ((),), (("Y",),)),
    {"chunk_size": 3, "strategy": SelectStrategy("lcp"), "prompt_mode": "offline", "beam": 1},
))
def test_counts_and_contexts_match_render_and_diff_oracle(case):
    source, rounds, kwargs = case
    model, oracle_model = ScriptRecorder(rounds), ScriptRecorder(rounds)
    sim = run(source, model, **kwargs)
    expected = oracle_run(source, oracle_model, **kwargs)
    assert [
        (e.committed_words, e.recompute_tokens_conversational, e.recompute_tokens_offline)
        for e in sim.events
    ] == [r[:3] for r in expected]
    if kwargs["prompt_mode"] == "conversational":
        # The model is handed each prompt word once: a round's context is
        # what the round appends, so the contexts join to the final prompt.
        assert [len(c.split()) for c in model.contexts] == [
            e.recompute_tokens_conversational for e in sim.events
        ]
        assert list(accumulate(model.contexts)) == oracle_model.contexts
        assert "".join(model.contexts) == expected[-1].prompt_conversational
    else:
        assert model.contexts == oracle_model.contexts


class KeepsLastContext:
    """Serves a scripted model's beams and keeps the last context it was
    handed, as a model may: the simulator must not need to grow that text."""

    def __init__(self, script: ScriptedModel) -> None:
        self.script, self.context = script, ""

    def generate(self, context, beam):
        self.context = context
        return self.script.generate(context, beam)


def test_long_session_runs_in_under_half_a_second():
    # 25,600 words at chunk 1 is 25,600 rounds. Handing a model that keeps
    # its context the whole grown prompt copied the prompt every round and
    # took ~1 s; handing over only what a round appends costs the same per
    # round at any length.
    source = [f"w{i}" for i in range(25_600)]
    elapsed = []
    for _ in range(2):
        model = KeepsLastContext(scripted_echo(source, 1, beam=5))
        t0 = time.perf_counter()
        sim = run(source, model, chunk_size=1, strategy=SelectStrategy("ralcp", 0.6), beam=5)
        elapsed.append(time.perf_counter() - t0)
    assert committed(sim) == tuple(w.upper() for w in source)
    assert min(elapsed) < 0.5


README = Path(__file__).resolve().parent.parent / "README.md"


def test_event_fields_are_the_readme_event_log_keys():
    """A log line is `SimEvent._asdict()`, so SimEvent's fields are the log's keys, in order."""
    keys = re.search(r"\*\*Event log JSONL\*\*: one event per round with `([^`]*)`",
                     README.read_text(encoding="utf-8")).group(1)
    assert SimEvent._fields == tuple(" ".join(keys.split()).split(", "))
