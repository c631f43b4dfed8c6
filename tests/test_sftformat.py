import random

import pytest

from conftest import make_pair, meta_of, random_case
from simultraj.alignment import SentencePair
from simultraj.augment import AugmentConfig, augment_pipeline
from simultraj import sftformat
from simultraj.sftformat import get_template, offline_prompt, render_conversational
from simultraj.trajectory import META, MERGED_SHIFTED, Chunk, Trajectory


def hallo_traj():
    pair = SentencePair(("Hallo",), ("Hello",), 0)
    return Trajectory((Chunk(1, 1),), pair, META)


def test_single_turn_golden():
    record = render_conversational(hallo_traj())
    assert record.text == "<s>[INST] Hallo [/INST] Hello</s>"
    assert len(record.loss_mask_spans) == 1
    start, end = record.loss_mask_spans[0]
    assert record.text[start:end] == "Hello"


def test_multi_turn_golden():
    pair = SentencePair(("a", "b", "c"), ("w", "x", "y", "z"), 3)
    traj = Trajectory((Chunk(1, 2), Chunk(2, 2, 1)), pair, MERGED_SHIFTED)
    record = render_conversational(traj, system_msg="Be brief.")
    assert record.text == (
        "<s>[INST] <<SYS>>\nBe brief.\n<</SYS>>\n\na [/INST] w x</s><s>[INST] b c [/INST] y z</s>"
    )
    assert record.turns == (((38, 39), (48, 51)), ((65, 68), (77, 80)))
    assert record.loss_mask_spans == ((48, 51), (79, 80))


def test_system_block_is_formatted_once_per_record(monkeypatch):
    calls = []

    class CountingWrap(str):
        def format(self, *args):
            calls.append(args)
            return str.format(self, *args)

    wrap = CountingWrap(sftformat.LLAMA2.system_wrap)
    monkeypatch.setattr(sftformat, "LLAMA2", sftformat.LLAMA2._replace(system_wrap=wrap))
    pair = SentencePair(("a", "b", "c"), ("w", "x", "y", "z"), 3)
    traj = Trajectory((Chunk(1, 2), Chunk(1, 1), Chunk(1, 1)), pair, MERGED_SHIFTED)
    record = render_conversational(traj, system_msg="Be brief.")
    assert calls == [("Be brief.",)]
    assert record.text.count("Be brief.") == 1
    render_conversational(traj)
    assert calls == [("Be brief.",)]


def test_unknown_template_rejected():
    with pytest.raises(ValueError, match="unknown template"):
        render_conversational(hallo_traj(), template_id="nope")
    with pytest.raises(ValueError, match="unknown template"):
        get_template("nope")


def test_shifted_prefix_excluded_from_loss():
    pair = SentencePair(("s1", "s2"), ("w1", "w2", "w3"), 1)
    traj = Trajectory(
        (Chunk(1, 1), Chunk(1, 2, shifted_prefix_len=1)),
        pair,
        MERGED_SHIFTED,
    )
    record = render_conversational(traj)
    covered = [record.text[s:e] for s, e in record.loss_mask_spans]
    assert covered == ["w1", "w3"]


def test_system_message_wrapped_into_first_turn():
    record = render_conversational(hallo_traj(), system_msg="Be brief.")
    assert record.text.startswith("<s>[INST] <<SYS>>\nBe brief.\n<</SYS>>\n\nHallo")
    (user_span, assistant_span) = record.turns[0]
    assert record.text[user_span[0] : user_span[1]] == "Hallo"
    assert record.text[assistant_span[0] : assistant_span[1]] == "Hello"


def test_no_system_block_when_empty():
    record = render_conversational(hallo_traj(), system_msg="")
    assert "SYS" not in record.text


def test_spans_reconstruct_both_sentences():
    rng = random.Random(17)
    for case in range(200):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        traj = augment_pipeline(meta, AugmentConfig(seed=case))
        record = render_conversational(traj, system_msg="sys message")
        users = " ".join(record.text[s:e] for (s, e), _ in record.turns)
        assistants = " ".join(record.text[s:e] for _, (s, e) in record.turns)
        assert tuple(users.split()) == pair.source
        assert tuple(assistants.split()) == pair.target


def test_spans_ascending_and_masks_inside_assistant_spans():
    rng = random.Random(18)
    for case in range(200):
        pair, a = random_case(rng, max_len=10, pair_id=case)
        _, meta = meta_of(pair, a)
        traj = augment_pipeline(meta, AugmentConfig(seed=case * 31 + 1))
        record = render_conversational(traj)
        flat = [span for pair_spans in record.turns for span in pair_spans]
        assert all(0 <= s <= e <= len(record.text) for s, e in flat)
        assert all(prev[1] <= cur[0] for prev, cur in zip(flat, flat[1:]))
        for loss in record.loss_mask_spans:
            assert any(
                a_span[0] <= loss[0] and loss[1] <= a_span[1] for _, a_span in record.turns
            )


def test_offline_full_source_empty_history():
    pair = make_pair(3, 2)
    text = offline_prompt(pair.source[:3], (), get_template("llama2"))
    assert text == "<s>[INST] Translate the following text: s1 s2 s3 [/INST] Translation:"


def test_offline_prefix_growth_changes_text_before_history():
    pair = make_pair(6, 4)
    history = ["T1", "T2"]
    before = offline_prompt(pair.source[:3], history, get_template("llama2"))
    after = offline_prompt(pair.source[:5], history, get_template("llama2"))
    diff_at = next(i for i, (x, y) in enumerate(zip(before, after)) if x != y)
    assert diff_at < before.index("T1 T2")


def test_offline_single_word_prefix():
    pair = make_pair(4, 2)
    text = offline_prompt(pair.source[:1], (), get_template("llama2"))
    assert " s1 [/INST]" in text
    assert "s2" not in text


def test_offline_prompt_word_template_shape():
    tpl = get_template("llama2")
    text = offline_prompt(["a", "b"], [], tpl)
    assert text.split()[0] == "<s>[INST]"
    assert text.split()[-1] == "Translation:"
