import io
import json
import random

import pytest

from conftest import make_pair, meta_of, random_case
from simultraj.alignment import SentencePair
from simultraj.augment import AugmentConfig, augment_pipeline
from simultraj.sftformat import (
    emit_jsonl,
    get_template,
    offline_prompt,
    record_to_dict,
    render_conversational,
    render_offline,
)
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


def test_unknown_template_rejected():
    with pytest.raises(ValueError, match="unknown template"):
        render_conversational(hallo_traj(), template_id="nope")
    with pytest.raises(ValueError, match="unknown template"):
        render_offline(hallo_traj().pair, 1, template_id="nope")


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
    text = render_offline(pair, 3)
    assert text == "<s>[INST] Translate the following text: s1 s2 s3 [/INST] Translation:"


def test_offline_prefix_growth_changes_text_before_history():
    pair = make_pair(6, 4)
    history = ["T1", "T2"]
    before = render_offline(pair, 3, history)
    after = render_offline(pair, 5, history)
    diff_at = next(i for i, (x, y) in enumerate(zip(before, after)) if x != y)
    assert diff_at < before.index("T1 T2")


def test_offline_single_word_prefix():
    pair = make_pair(4, 2)
    text = render_offline(pair, 1)
    assert " s1 [/INST]" in text
    assert "s2" not in text


def test_offline_rejects_prefix_overrun():
    with pytest.raises(ValueError):
        render_offline(make_pair(2, 2), 3)


def test_emit_jsonl_round_trip():
    records = [render_conversational(hallo_traj())]
    buf = io.StringIO()
    assert emit_jsonl(records, buf) == 1
    parsed = json.loads(buf.getvalue())
    assert parsed == record_to_dict(records[0])
    assert list(parsed) == ["id", "text", "turns", "loss_mask_spans", "template", "provenance"]


def test_emit_jsonl_empty_and_counts(tmp_path):
    path = tmp_path / "out.jsonl"
    assert emit_jsonl([], str(path)) == 0
    assert path.read_text(encoding="utf-8") == ""
    record = render_conversational(hallo_traj())
    assert emit_jsonl([record, record], str(path)) == 2
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


def test_offline_prompt_word_template_shape():
    tpl = get_template("llama2")
    text = offline_prompt(["a", "b"], [], tpl)
    assert text.split()[0] == "<s>[INST]"
    assert text.split()[-1] == "Translation:"
