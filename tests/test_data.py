import pytest

from bindlm.data import (
    COLORS,
    DatasetManifest,
    IngestError,
    InstructionRecord,
    generate_cache_corpus,
    generate_caption_corpus,
    generate_instruction_corpus,
    ingest,
    sample_objects,
    write_caption_corpus,
    write_instruction_corpus,
)
from bindlm.encoders import EncoderConfig, Modality, build_encoders, encode


CFG = EncoderConfig(seed=3)


@pytest.fixture(scope="module")
def encoders():
    return build_encoders(CFG)


def test_caption_round_trip(tmp_path, encoders):
    records, objects = generate_caption_corpus(8, 1, encoders, variants=2)
    p = tmp_path / "captions.jsonl"
    write_caption_corpus(p, records)
    loaded = ingest(p, "caption")
    assert len(loaded) == 16
    assert loaded[0].caption == objects[0].caption
    assert loaded[0].modality is Modality.IMAGE
    assert loaded[0].raw.shape == (CFG.dim_raw,)


def test_captions_recoverable_from_latent(encoders):
    records, objects = generate_caption_corpus(6, 2, encoders, variants=3)
    for i, o in enumerate(objects):
        words = o.caption.split()
        assert words[1] == o.color and words[2] == o.shape and words[-1] == o.action
        group = records[i * 3:(i + 1) * 3]
        assert all(r.caption == o.caption for r in group)
        # paired variants encode close to each other
        e0 = encode(encoders[Modality.IMAGE], group[0].raw)
        e1 = encode(encoders[Modality.IMAGE], group[1].raw)
        assert float((e0.vector.array @ e1.vector.array.T).item()) > 0.9


def test_objects_distinct_and_seeded():
    a = sample_objects(16, 5, CFG.dim_joint)
    b = sample_objects(16, 5, CFG.dim_joint)
    assert [o.caption for o in a] == [o.caption for o in b]
    assert len({(o.color, o.shape, o.action) for o in a}) == 16


def test_generator_deterministic_bytes(tmp_path, encoders):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_caption_corpus(a, generate_caption_corpus(250, 7, encoders, variants=4)[0])
    write_caption_corpus(b, generate_caption_corpus(250, 7, encoders, variants=4)[0])
    assert a.read_bytes() == b.read_bytes()
    assert sum(1 for _ in open(a)) == 1000
    assert len(ingest(a, "caption")) == 1000


def test_instruction_corpus_balance_and_grounding(encoders):
    records, objects = generate_instruction_corpus(10, 4, 9, encoders, variants=2)
    visual = [r for r in records if not r.is_language_only]
    lang = [r for r in records if r.is_language_only]
    assert len(visual) == 20 and len(lang) == 4
    yes = [r for r in visual if r.response == "yes"]
    no = [r for r in visual if r.response == "no"]
    assert yes and no
    for r, o in zip(visual[::2], objects):
        asked = r.instruction.split()[-1].rstrip("?")
        assert (asked == o.color) == (r.response == "yes")
        assert o.shape in r.instruction


def test_eval_and_train_questions_agree(encoders):
    train, _ = generate_instruction_corpus(12, 0, 11, encoders, variants=4)
    evals, _ = generate_instruction_corpus(12, 0, 11, encoders, variants=1)
    train_qs = [(r.instruction, r.response) for r in train[::4]]
    eval_qs = [(r.instruction, r.response) for r in evals]
    assert train_qs == eval_qs


def test_cross_modal_suites_share_questions(encoders):
    img, _ = generate_instruction_corpus(8, 0, 13, encoders, variants=1)
    aud, _ = generate_instruction_corpus(8, 0, 13, encoders, modality=Modality.AUDIO, variants=1)
    assert [(r.instruction, r.response) for r in img] == [
        (r.instruction, r.response) for r in aud
    ]
    assert all(r.modality is Modality.AUDIO for r in aud)


def test_cache_corpus_variants(encoders):
    objects = sample_objects(5, 15, CFG.dim_joint)
    rows = generate_cache_corpus(objects, 3, 15, encoders)
    assert len(rows) == 15
    assert all(r["modality"] == "image" for r in rows)


def test_ingest_error_paths(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"source_id": "a", "modality": "image", "raw": [0.1], "caption": "x"}\n'
        '{"source_id": "b", "modality": "image", "raw": [0.1]}\n'
    )
    with pytest.raises(IngestError, match="line 2"):
        ingest(p, "caption")

    dup = tmp_path / "dup.jsonl"
    dup.write_text(
        '{"source_id": "a", "modality": "image", "raw": [0.1], "caption": "x"}\n'
        '{"source_id": "a", "modality": "image", "raw": [0.1], "caption": "y"}\n'
    )
    with pytest.raises(IngestError, match="duplicate source_id"):
        ingest(dup, "caption")

    empty_caption = tmp_path / "emptycap.jsonl"
    empty_caption.write_text('{"source_id": "a", "modality": "image", "raw": [0.1], "caption": ""}\n')
    with pytest.raises(IngestError, match="caption"):
        ingest(empty_caption, "caption")

    with pytest.raises(IngestError, match="unknown corpus kind"):
        ingest(p, "mystery")
    with pytest.raises(IngestError, match="missing.jsonl: cannot read: "):
        ingest(tmp_path / "missing.jsonl", "caption")


def test_ingest_reports_at_most_twenty_offenders(tmp_path):
    p = tmp_path / "many.jsonl"
    p.write_text("".join('{"nope": %d}\n' % i for i in range(30)))
    with pytest.raises(IngestError) as err:
        ingest(p, "caption")
    assert str(err.value).count("line ") == 20


def test_ingest_empty_file_warns(tmp_path, capsys):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert ingest(p, "caption") == []
    assert "no records" in capsys.readouterr().err


def test_ingest_instruction_kinds(tmp_path):
    p = tmp_path / "ins.jsonl"
    p.write_text(
        '{"instruction": "Say hi.", "response": "hi"}\n'
        '{"instruction": "Is it red?", "response": "yes", "source_id": "v0",'
        ' "modality": "audio", "raw": [0.5, 0.5]}\n'
    )
    recs = ingest(p, "instruction")
    assert recs[0].is_language_only and recs[1].modality is Modality.AUDIO

    partial = tmp_path / "partial.jsonl"
    partial.write_text('{"instruction": "x", "response": "y", "modality": "image"}\n')
    with pytest.raises(IngestError, match="missing"):
        ingest(partial, "instruction")


def test_manifest_round_trip(tmp_path):
    m = DatasetManifest(encoder=CFG, seed=12, files={"pretrain": "c.jsonl"})
    m.save(tmp_path)
    back = DatasetManifest.load(tmp_path)
    assert back.encoder == CFG
    assert back.seed == 12
    assert back.files == {"pretrain": "c.jsonl"}
    with pytest.raises(IngestError):
        DatasetManifest.load(tmp_path / "nowhere")
