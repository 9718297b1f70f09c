import json
import re

import pytest

from bindlm.lm import PROMPT_TEMPLATE, YESNO_SUFFIX, prompt_template, yesno_prompt
from bindlm.tokenizer import (
    BOS,
    EOS,
    PAD,
    VOCAB_SIZE,
    Tokenizer,
    VocabularyError,
    build_default_vocab,
    default_tokenizer,
    train_merges,
)


def test_prompt_template_is_bit_exact():
    assert PROMPT_TEMPLATE == "Instruction: {instruction}\nResponse:"
    assert prompt_template("Describe it.") == "Instruction: Describe it.\nResponse:"
    assert YESNO_SUFFIX == " Please answer yes or no."
    assert yesno_prompt("Is it red?") == (
        "Instruction: Is it red? Please answer yes or no.\nResponse:"
    )


def test_round_trip():
    tok = default_tokenizer()
    for text in [
        "a violet torus that drifts",
        prompt_template("Say the word ember."),
        "bytes outside the corpus éü survive",
    ]:
        assert tok.decode(tok.encode(text)) == text


def test_specials_reserved():
    assert (BOS, EOS, PAD) == (256, 257, 258)
    tok = default_tokenizer()
    assert tok.vocab_size == VOCAB_SIZE == 512
    assert tok.decode([BOS, 97, EOS]) == "a"


def test_yes_no_single_tokens():
    tok = default_tokenizer()
    assert len(tok.encode(" yes")) == 1
    assert len(tok.encode(" no")) == 1
    assert tok.encode(" yes") != tok.encode(" no")


def test_rebuild_matches_checked_in_asset():
    from bindlm.tokenizer import _ASSET

    rebuilt = build_default_vocab().to_dict()
    committed = json.loads(_ASSET.read_text())
    assert rebuilt == committed


def test_rebuild_writes_the_checked_in_asset_bytes(tmp_path):
    from bindlm.tokenizer import _ASSET

    build_default_vocab().save(tmp_path / "vocab.json")
    assert (tmp_path / "vocab.json").read_bytes() == _ASSET.read_bytes()


def test_load_of_a_missing_file_names_it(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(VocabularyError, match=re.escape(f"{missing}: cannot read")):
        Tokenizer.load(missing)


@pytest.mark.parametrize("text,named", [
    ('{"merges": 5}', "merges is not a list of id pairs"),
    ('{"merges": null}', "merges is not a list of id pairs"),
    ('{"merges": {"a": 1}}', "merges is not a list of id pairs"),
    ('{"merges": [[1, 2, 3]]}', "merges is not a list of id pairs"),
    ('{"merges": [[1]]}', "merges is not a list of id pairs"),
    ("{}", "missing key 'merges'"),
    ('{"merges": [], "vocab": 512}', "unknown key 'vocab'"),
    ('{"merges": [[104, 105], [259, 600]]}',
     "merge 1 joins 259 and 600, which are not both ids defined before it"),
    ('{"merges": [[1.0, 2]]}', "merge 0 joins 1.0 and 2, which are not both ids defined before it"),
    ('{"merges": [[104, 105], [true, 2]]}',
     "merge 1 joins True and 2, which are not both ids defined before it"),
    ('{"merges": [[[], 105]]}', "merge 0 joins [] and 105, which are not both ids defined before it"),
])
def test_load_of_a_malformed_merge_table_names_the_file(tmp_path, text, named):
    path = tmp_path / "vocab.json"
    path.write_text(text)
    with pytest.raises(VocabularyError) as info:
        Tokenizer.load(path)
    assert str(info.value) == f"{path}: {named}"


@pytest.mark.parametrize("text", ["5", "[1]", "null", '"merges"'])
def test_load_of_a_file_that_is_not_an_object_names_the_file(tmp_path, text):
    path = tmp_path / "vocab.json"
    path.write_text(text)
    with pytest.raises(VocabularyError) as info:
        Tokenizer.load(path)
    assert str(info.value) == f"{path} is not a JSON object"


def test_too_many_merges_is_a_vocabulary_error():
    with pytest.raises(VocabularyError, match="too many merges"):
        Tokenizer([(104, 105)] * (VOCAB_SIZE - 258))


def test_train_merges_deterministic():
    text = "ab ab ab cd cd"
    m1 = train_merges(text, 10)
    m2 = train_merges(text, 10)
    assert m1 == m2


def test_merges_never_cross_pieces():
    tok = Tokenizer(train_merges("xy xy xy xy", 10))
    # "xy xy" must stay two pieces even though the pair (y, space) repeats
    ids = tok.encode("xy xy")
    assert tok.decode(ids[:1]) == "xy"
