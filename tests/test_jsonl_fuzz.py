"""Mutated JSONL corpora: only the reader's typed error may escape.

A small gen-data caption corpus, instruction corpus and raw-sample file are
each cut at every length, flipped in 1-3 bits (which also makes invalid
UTF-8) and overwritten with 4 bytes. ingest returns records or raises
IngestError; read_raw_samples returns records or raises ShapeError.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bindlm.cli import cli
from bindlm.data import IngestError, ingest
from bindlm.encoders import read_raw_samples
from bindlm.tensor import ShapeError

from test_loader_fuzz import _flip_bits, _overwrite

_READERS = {
    "captions.jsonl": (lambda p: ingest(p, "caption"), IngestError),
    "instruct.jsonl": (lambda p: ingest(p, "instruction"), IngestError),
    "cache.jsonl": (read_raw_samples, ShapeError),
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("jsonl")
    assert cli(["gen-data", "--out", str(root / "data"), "--caption-pairs", "2",
                "--caption-variants", "1", "--instruct-pairs", "2", "--instruct-variants", "1",
                "--language-records", "1", "--hq-records", "0", "--cache-variants", "1"]) == 0
    return {name: (root / "data" / name).read_bytes() for name in _READERS}


def _read(tmp_path, name: str, raw: bytes) -> None:
    read, error = _READERS[name]
    path = tmp_path / name
    path.write_bytes(raw)
    try:
        records = read(path)
    except error:
        return
    assert isinstance(records, list)


@pytest.mark.filterwarnings("ignore")
def test_every_truncation_reads_or_raises_the_typed_error(tmp_path, corpora, capsys):
    for name, raw in corpora.items():
        for cut in range(len(raw)):
            _read(tmp_path, name, raw[:cut])
    capsys.readouterr()  # an empty cut warns on stderr


@given(which=st.sampled_from(sorted(_READERS)),
       bits=st.lists(st.integers(0, 2**31), min_size=1, max_size=3))
def test_bit_flips(tmp_path_factory, corpora, which, bits):
    _read(tmp_path_factory.mktemp("flip"), which, _flip_bits(corpora[which], bits))


@given(which=st.sampled_from(sorted(_READERS)), at=st.integers(0, 2**31),
       patch=st.binary(min_size=4, max_size=4))
def test_overwrites(tmp_path_factory, corpora, which, at, patch):
    _read(tmp_path_factory.mktemp("overwrite"), which, _overwrite(corpora[which], at, patch))


def _line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


def test_lines_split_only_at_text_mode_line_ends(tmp_path):
    """U+2028 and U+0085 inside a JSON string are not line ends; \\r\\n and \\r are."""
    odd = "a\u2028b\u0085c"
    rows = [_line({"instruction": odd, "response": "yes"}) + "\r\n",
            "\r\n",
            _line({"instruction": "Say it.", "response": odd}) + "\r",
            _line({"instruction": "no response"}) + "\r\n",
            _line({"instruction": odd}) + "\n"]
    path = tmp_path / "odd.jsonl"
    path.write_bytes("".join(rows[:3]).encode("utf-8"))
    records = ingest(path, "instruction")
    assert [(r.instruction, r.response) for r in records] == [(odd, "yes"), ("Say it.", odd)]

    path.write_bytes("".join(rows).encode("utf-8"))
    with pytest.raises(IngestError) as err:
        ingest(path, "instruction")
    assert str(err.value).endswith("odd.jsonl: line 4: missing key 'response'; "
                                   "line 5: missing key 'response'")

    samples = tmp_path / "samples.jsonl"
    samples.write_bytes((_line({"source_id": odd, "modality": "audio", "raw": [1.0]}) + "\r\n"
                         + _line({"source_id": "s1", "modality": "smell", "raw": [1.0]})
                         + "\r").encode("utf-8"))
    with pytest.raises(ShapeError, match="line 2: modality is not one of image, text, audio,"):
        read_raw_samples(samples)
    samples.write_bytes(samples.read_bytes().replace(b"smell", b"video"))
    assert [s["source_id"] for s in read_raw_samples(samples)] == [odd, "s1"]


def test_an_integer_past_float_range_is_the_typed_error(tmp_path):
    huge = "1" + "0" * 400
    path = tmp_path / "huge.jsonl"
    path.write_text('{"source_id": "s0", "modality": "image", "caption": "a cube",'
                    f' "raw": [{huge}]}}\n')
    with pytest.raises(IngestError, match="line 1: int too large"):
        ingest(path, "caption")
    path.write_text(path.read_text().replace(' "caption": "a cube",', ""))  # no such sample key
    with pytest.raises(ShapeError, match="line 1: int too large"):
        read_raw_samples(path)


@pytest.mark.parametrize("value,shown", [("NaN", "nan"), ("Infinity", "inf"), ("-1e999", "-inf")])
def test_a_non_finite_raw_value_is_the_typed_error(tmp_path, value, shown):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"source_id": "s0", "modality": "image", "caption": "a cube", "raw": [0.5]}\n'
                    '{"source_id": "s1", "modality": "image", "caption": "a cube",'
                    f' "raw": [0.5, {value}]}}\n')
    message = rf"odd.jsonl: line 2: the raw vector holds {shown} at index 1$"
    with pytest.raises(IngestError, match=message):
        ingest(path, "caption")
    path.write_text(path.read_text().replace(' "caption": "a cube",', ""))  # no such sample key
    with pytest.raises(ShapeError, match=message):
        read_raw_samples(path)


@pytest.mark.parametrize("value", ['{"a": 1}', "5", "null", "true", "[]"])
def test_a_source_id_that_is_not_a_string_is_the_typed_error(tmp_path, value):
    sample = f'{{"source_id": {value}, "modality": "image", "raw": [0.5]}}'
    path = tmp_path / "odd.jsonl"
    path.write_text(sample[:-1] + ', "caption": "a cube"}\n')
    with pytest.raises(IngestError, match=r"odd.jsonl: line 1: source_id is not a string$"):
        ingest(path, "caption")
    path.write_text(sample[:-1] + ', "instruction": "Is it?", "response": "yes"}\n')
    with pytest.raises(IngestError, match=r"odd.jsonl: line 1: source_id is not a string$"):
        ingest(path, "instruction")
    path.write_text(sample + "\n")
    with pytest.raises(ShapeError, match=r"odd.jsonl: line 1: source_id is not a string$"):
        read_raw_samples(path)


@pytest.mark.parametrize("line,message", [
    ('5', "line 1 is not a JSON object"),
    ('["instruction", "response"]', "line 1 is not a JSON object"),
    ('{"instruction": "Is it?", "response": "yes", "id": 1}', "line 1: unknown key 'id'"),
    ('{"instruction": "Is it?", "response": "yes", "modality": "image"}',
     "line 1: a visual record: missing key 'source_id'"),
    ('{"instruction": "Is it?", "response": "yes", "raw": [0.5], "source_id": "s"}',
     "line 1: a visual record: missing key 'modality'"),
])
def test_an_instruction_line_of_the_wrong_shape_is_named(tmp_path, line, message):
    path = tmp_path / "odd.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(IngestError) as err:
        ingest(path, "instruction")
    assert str(err.value) == f"{path}: {message}"
