"""Bad plan files, undecodable tokens, mismatched widths and diverging runs
end in one error line and the documented exit code, never a traceback."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import bindlm
from bindlm.bind import BindConfig, bind_init
from bindlm.checkpoint import Checkpoint, save_checkpoint
from bindlm.cli import cli
from bindlm.encoders import EncoderConfig
from bindlm.lm import LMConfig, lm_init, prompt_template
from bindlm.tokenizer import default_tokenizer

from test_cli import _assert_clean_failure, _gen, _raw_input_file
from test_train import small_checkpoint


@pytest.mark.parametrize("line,named", [
    ("foo = 1", "'foo'"),
    ("stage = instruct", "'stage'"),
    ("data = elsewhere", "'data'"),
    ("epochs = 1.5", "epochs"),
    ("epochs = true", "epochs"),
    ("batch_size = two", "batch_size"),
    ("warmup_epochs = -1", "warmup_epochs"),
    ("seed = 0.5", "seed"),
    ("lora_rank = false", "lora_rank"),
    ("lora_rank = 0", "lora_rank"),
    ("lr = nan", "lr"),
    ("lr = inf", "lr"),
    pytest.param("lr = 1" + "0" * 400, "lr", id="lr-past-float-range"),
    pytest.param("warmup_epochs = 1" + "0" * 400, "warmup_epochs",
                 id="warmup_epochs-past-float-range"),
    ('lr = "0.1"', "lr"),
    ("trainable = encoders", "trainable"),
    ("trainable = gates, lora_b", "trainable"),
    ('trainable = ""', "trainable"),
])
def test_bad_plan_file_is_data_error_naming_file_and_key(tmp_path, capsys, line, named):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text(line + "\n")
    code = cli(["train", "--stage", "pretrain", "--data", str(out),
                "--out", str(tmp_path / "ck.bnk"), "--plan", str(plan)])
    _assert_clean_failure(capsys, code, 2, str(plan), named)
    assert not (tmp_path / "ck.bnk").exists()


def test_lora_rank_above_the_narrowest_linear_names_stage_key_and_limit(tmp_path, capsys):
    out = _gen(tmp_path)
    lm = lm_init(LMConfig(vocab_size=420, dim=16, layers=2, heads=2, max_seq=32, ffn_hidden=24), 0)
    bind = bind_init(BindConfig(dim_joint=64, dim_lm=16, dim_hidden=24), 0)
    ck = Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(), {}, 0,
                                ["pretrain:seed=0:steps=0"])
    save_checkpoint(ck, tmp_path / "pre.bnk")
    plan = tmp_path / "plan.kv"
    plan.write_text("lora_rank = 200\n")
    code = cli(["train", "--stage", "instruct", "--data", str(out), "--plan", str(plan),
                "--init", str(tmp_path / "pre.bnk"), "--out", str(tmp_path / "ins.bnk")])
    assert code == 2
    assert capsys.readouterr().err == ("error: stage instruct: lora_rank 200, which is not in"
                                       " [1, 16]: 16 is the narrowest adapted linear's width\n")
    assert not (tmp_path / "ins.bnk").exists()


@pytest.mark.parametrize("stage,provenance", [
    ("pretrain", None),
    ("hq", ["pretrain:seed=0:steps=0", "instruct:seed=0:steps=0"]),
], ids=["pretrain", "hq"])
def test_lora_rank_on_a_stage_that_attaches_no_adapters_names_file_key_and_stage(
        tmp_path, capsys, stage, provenance):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("lora_rank = 200\n")
    args = ["train", "--stage", stage, "--data", str(out), "--plan", str(plan),
            "--out", str(tmp_path / "ck.bnk")]
    if provenance:
        ck = small_checkpoint()
        ck.provenance = provenance
        save_checkpoint(ck, tmp_path / "ins.bnk")
        args += ["--init", str(tmp_path / "ins.bnk")]
    assert cli(args) == 2
    name = {"hq": "hq_instruct"}.get(stage, stage)
    assert capsys.readouterr().err == f"error: {plan}: stage {name}: unknown key 'lora_rank'\n"
    assert not (tmp_path / "ck.bnk").exists()


@pytest.mark.parametrize("line,which", [
    (0, "source 'ins0000v0'"),
    (-1, "language-only record 6"),
], ids=["sourced", "language-only"])
def test_a_training_record_longer_than_max_seq_names_corpus_record_and_lengths(
        tmp_path, capsys, line, which):
    out = _gen(tmp_path)
    corpus = out / "instruct.jsonl"
    records = [json.loads(r) for r in corpus.read_text().splitlines()]
    records[line]["response"] = " ".join(["echo"] * 40)
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    ck = small_checkpoint()
    ck.provenance = ["pretrain:seed=0:steps=0"]
    save_checkpoint(ck, tmp_path / "pre.bnk")
    code = cli(["train", "--stage", "instruct", "--data", str(out),
                "--init", str(tmp_path / "pre.bnk"), "--out", str(tmp_path / "ins.bnk")])
    assert code == 2
    err = capsys.readouterr().err
    match = re.fullmatch(rf"error: {re.escape(str(corpus))}: sequence length (\d+) > max_seq 32"
                         rf" for {re.escape(which)}\n", err)
    assert match and int(match[1]) > 32, err
    assert not (tmp_path / "ins.bnk").exists()


def test_non_utf8_plan_file_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_bytes(b"epochs = \xff\n")
    code = cli(["train", "--stage", "pretrain", "--data", str(out),
                "--out", str(tmp_path / "ck.bnk"), "--plan", str(plan)])
    _assert_clean_failure(capsys, code, 2, str(plan), "UTF-8")


def test_plan_groups_without_parameters_are_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("trainable = lora\n")
    code = cli(["train", "--stage", "pretrain", "--data", str(out),
                "--out", str(tmp_path / "ck.bnk"), "--plan", str(plan)])
    _assert_clean_failure(capsys, code, 2, "no trainable parameters", "lora")


def _always_emits(ck, path, token):
    """Zero every layer and aim the head at token: the greedy token after any prompt."""
    params = ck.params
    for name in params:
        if name.startswith("lm.layers."):
            params[name] = np.zeros_like(params[name])
    params["lm.tok_emb"] = np.ones_like(params["lm.tok_emb"])
    params["lm.pos_emb"] = np.zeros_like(params["lm.pos_emb"])
    params["lm.head"] = np.zeros_like(params["lm.head"])
    params["lm.head"][:, token] = 1.0
    save_checkpoint(ck, path)


def test_undecodable_token_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    ckpt = tmp_path / "ck.bnk"
    _always_emits(small_checkpoint(), ckpt, 419)  # the tokenizer defines 418 ids
    probe = _raw_input_file(tmp_path, out)
    for temperature in ("0", "1.0"):
        code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image", "--input", str(probe),
                    "--prompt", "hi", "--max-new", "4", "--temperature", temperature])
        _assert_clean_failure(capsys, code, 2, "token id 419", "418 ids")
    code = cli(["eval", "--suite", "yesno", "--ckpt", str(ckpt), "--data", str(out)])
    _assert_clean_failure(capsys, code, 2, "token id 419", "418 ids")


def test_generate_fills_max_seq_exactly(tmp_path, capsys):
    # [BOS] + prompt and every new token but the last: P + N positions of 32
    out = _gen(tmp_path)
    ckpt = tmp_path / "ck.bnk"
    _always_emits(small_checkpoint(), ckpt, ord("a"))
    probe = _raw_input_file(tmp_path, out)
    capsys.readouterr()  # drain setup output
    prompt = len(default_tokenizer().encode(prompt_template("hi")))
    args = ["generate", "--ckpt", str(ckpt), "--modality", "image", "--input", str(probe),
            "--prompt", "hi", "--max-new"]
    assert cli(args + [str(32 - prompt)]) == 0
    assert capsys.readouterr().out.strip() == "a" * (32 - prompt)
    code = cli(args + [str(33 - prompt)])
    _assert_clean_failure(capsys, code, 2, f"prompt {prompt} + new {33 - prompt} exceeds max_seq 32")


def _narrow_encoder(ck, path):
    ck.config["encoder"]["dim_joint"] = 32
    save_checkpoint(ck, path)


def _lm_value(key, value):
    def edit(ck):
        ck.config["lm"][key] = value
    return edit


def _adapter_rank_true(ck):
    ck.config["adapters"]["layers.0.wq"]["rank"] = True


def _rope_with_odd_head_width(ck):
    """dim 16 / heads 16: one channel per head, which rope cannot pair; the
    config is edited because LMConfig refuses to build it."""
    ck.config["lm"].update(positions="rope", heads=16)
    del ck.params["lm.pos_emb"]


def _lm_wider_than_bind(ck):
    """An LM of width 32 under the bind network of width 16: each part fits its own config."""
    wide = lm_init(LMConfig(vocab_size=420, dim=32, layers=2, heads=2, max_seq=32, ffn_hidden=24), 0)
    ck.config["lm"], ck.config["adapters"] = asdict(wide.config), {}
    ck.params = {n: a for n, a in ck.params.items() if n.startswith("bind.")}
    ck.params.update({f"lm.{n}": t.array for n, t in wide.params.items()})


@pytest.mark.parametrize("edit,named", [
    (_lm_value("heads", 2.0), "heads 2.0, which is not an int"),
    (_lm_value("heads", True), "heads True, which is not an int"),
    (_adapter_rank_true, "adapter on 'layers.0.wq': rank True, which is not an int"),
    (_rope_with_odd_head_width, "config.lm: rope needs an even head"),
    (_lm_wider_than_bind, "bind.dim_lm = 16 differs from lm.dim = 32"),
], ids=["heads-2.0", "heads-true", "adapter-rank-true", "rope-odd-head-width",
        "lm-wider-than-bind"])
@pytest.mark.parametrize("command", ["generate", "eval", "eval-perplexity", "train-init"])
def test_a_config_value_of_the_wrong_kind_in_a_checkpoint_names_file_and_field(
        tmp_path, capsys, edit, named, command):
    out = _gen(tmp_path)
    ck = small_checkpoint()
    ck.provenance = ["pretrain:seed=0:steps=0"]
    edit(ck)
    ckpt = tmp_path / "ck.bnk"
    save_checkpoint(ck, ckpt)
    args = {
        "generate": ["generate", "--ckpt", str(ckpt), "--modality", "image",
                     "--input", str(_raw_input_file(tmp_path, out)), "--prompt", "hi"],
        "eval": ["eval", "--suite", "yesno", "--ckpt", str(ckpt), "--data", str(out)],
        "eval-perplexity": ["eval", "--suite", "perplexity", "--ckpt", str(ckpt),
                            "--data", str(out)],
        "train-init": ["train", "--stage", "instruct", "--data", str(out), "--init", str(ckpt),
                       "--out", str(tmp_path / "ins.bnk")],
    }[command]
    assert cli(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ckpt}: ") and named in lines[0], lines
    assert str(out) not in lines[0]  # the checkpoint is at fault, not the corpus
    assert not (tmp_path / "ins.bnk").exists()


def _config_value(section, key, value):
    def edit(ck):
        ck.config[section][key] = value
    return edit


def _drop_lm_dim(ck):
    del ck.config["lm"]["dim"]


@pytest.mark.parametrize("edit,message", [
    (_config_value("lm", "foo", 1), "config.lm: unknown key 'foo'"),
    (_drop_lm_dim, "config.lm: missing key 'dim'"),
    (lambda ck: ck.config.update(tokenizer=5), "config.tokenizer is not a JSON object"),
    (lambda ck: ck.config.update(tokenizer={"merges": []}),
     "a record does not fit {ckpt}: prompt 67 + new 1 exceeds max_seq 32"),
    (lambda ck: ck.config.update(adapters=[]), "config.adapters is not a JSON object"),
    (_config_value("bind", "depth", 3), "config.bind: unknown key 'depth'"),
    (_config_value("encoder", "seed", None), "config.encoder: seed None, which is not an int"),
    (_config_value("tokenizer", "version", None), "config.tokenizer.version None, which is not 1"),
    (_config_value("tokenizer", "version", 2), "config.tokenizer.version 2, which is not 1"),
    (_config_value("tokenizer", "version", True), "config.tokenizer.version True, which is not 1"),
    (_config_value("tokenizer", "vocab_size", "x"),
     "config.tokenizer.vocab_size 'x', which is not 512"),
    (_config_value("tokenizer", "vocab_size", 418),
     "config.tokenizer.vocab_size 418, which is not 512"),
    (_config_value("tokenizer", "vocab_size", 512.0),
     "config.tokenizer.vocab_size 512.0, which is not 512"),
], ids=["lm-unknown-key", "lm-dim-missing", "tokenizer-5", "tokenizer-without-merges",
        "adapters-list", "bind-unknown-key", "encoder-seed-null", "tokenizer-version-null",
        "tokenizer-version-2", "tokenizer-version-true", "tokenizer-vocab-size-x",
        "tokenizer-vocab-size-418", "tokenizer-vocab-size-512.0"])
def test_a_config_object_of_the_wrong_shape_names_the_checkpoint(tmp_path, capsys, edit,
                                                                  message):
    out = _gen(tmp_path)
    ck = small_checkpoint()
    edit(ck)
    ckpt = tmp_path / "ck.bnk"
    save_checkpoint(ck, ckpt)
    assert cli(["eval", "--suite", "yesno", "--ckpt", str(ckpt), "--data", str(out)]) == 2
    where = f"{out / 'eval_yesno.jsonl'}: " if "does not fit" in message else f"{ckpt}: "
    assert capsys.readouterr().err == f"error: {where}{message.format(ckpt=ckpt)}\n"


def _manifest_value(key, value):
    def edit(manifest):
        manifest[key] = value
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda manifest: "5", "{path} is not a JSON object"),
    (lambda manifest: "[]", "{path} is not a JSON object"),
    (_manifest_value("zz", 1), "{path}: unknown key 'zz'"),
    (_manifest_value("seed", "x"), "{path}: seed 'x', which is not an int"),
    (_manifest_value("seed", 2.5), "{path}: seed 2.5, which is not an int"),
    (_manifest_value("seed", True), "{path}: seed True, which is not an int"),
    (_manifest_value("encoder", 5), "{path}: encoder is not a JSON object"),
    (_manifest_value("files", {"captions": "c.jsonl"}), "{path}: files: unknown key 'captions'"),
    (_manifest_value("files", {"cache": 5}), "{path}: files must map corpus keys to file names"),
    (lambda manifest: json.dumps({k: v for k, v in manifest.items() if k != "seed"}),
     "{path}: missing key 'seed'"),
], ids=["5", "array", "unknown-key", "seed-x", "seed-2.5", "seed-true", "encoder-5",
        "files-unknown-key", "files-value-5", "seed-missing"])
def test_a_manifest_of_the_wrong_shape_names_the_file_and_the_fault(tmp_path, capsys, edit,
                                                                     message):
    out = _gen(tmp_path)
    path = out / "manifest.json"
    path.write_text(edit(json.loads(path.read_text())))
    save_checkpoint(small_checkpoint(), tmp_path / "ck.bnk")
    code = cli(["eval", "--suite", "yesno", "--ckpt", str(tmp_path / "ck.bnk"), "--data", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_a_corpus_line_that_is_not_an_object_names_the_file_and_line(tmp_path, capsys):
    out = _gen(tmp_path)
    path = out / "eval_yesno.jsonl"
    path.write_text("5\n" + path.read_text())
    save_checkpoint(small_checkpoint(), tmp_path / "ck.bnk")
    code = cli(["eval", "--suite", "yesno", "--ckpt", str(tmp_path / "ck.bnk"), "--data", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: line 1 is not a JSON object\n"


def test_encoder_and_bind_widths_must_agree_in_a_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "ck.bnk"
    _narrow_encoder(small_checkpoint(), ckpt)
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.5] * 96))
    code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image",
                "--input", str(probe), "--prompt", "hi"])
    _assert_clean_failure(capsys, code, 2, str(ckpt), "encoder.dim_joint = 32",
                          "bind.dim_joint = 64")


def test_manifest_width_must_match_the_input_checkpoint(tmp_path, capsys):
    out = _gen(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["encoder"]["dim_joint"] = 32
    (out / "manifest.json").write_text(json.dumps(manifest))
    ck = small_checkpoint()
    ck.provenance = ["pretrain:seed=0:steps=0"]
    ckpt = tmp_path / "pre.bnk"
    save_checkpoint(ck, ckpt)
    code = cli(["train", "--stage", "instruct", "--data", str(out), "--init", str(ckpt),
                "--out", str(tmp_path / "ins.bnk")])
    _assert_clean_failure(capsys, code, 2, str(out / "manifest.json"), "dim_joint = 32",
                          "dim_joint = 64")


def test_diverging_run_prints_only_the_error_line(tmp_path):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("lr = 1e20\nepochs = 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bindlm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bindlm.cli", "train", "--stage", "pretrain", "--data", str(out),
         "--out", str(tmp_path / "ck.bnk"), "--plan", str(plan)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: divergence at step "), proc.stderr


def test_diverging_run_writes_its_history_up_to_the_failing_step(tmp_path, capsys):
    out = _gen(tmp_path, captions=2, cap_variants=1)
    plan = tmp_path / "plan.kv"
    plan.write_text("lr = 1e20\nepochs = 3\n")
    history = tmp_path / "history.json"
    code = cli(["train", "--stage", "pretrain", "--data", str(out), "--out", str(tmp_path / "ck.bnk"),
                "--plan", str(plan), "--history", str(history)])
    err = capsys.readouterr().err
    assert code == 3 and err.count("\n") == 1, err
    failed = int(re.match(r"error: divergence at step (\d+): ", err).group(1))
    records = json.loads(history.read_text())
    assert failed >= 1 and [r["step"] for r in records] == list(range(1, failed))
    assert all(np.isfinite(r["loss"]) for r in records)
    assert not (tmp_path / "ck.bnk").exists()


def test_missing_key_in_a_corpus_line_is_named(tmp_path, capsys):
    out = _gen(tmp_path)
    save_checkpoint(small_checkpoint(), tmp_path / "in.bnk")
    code = cli(["eval", "--suite", "yesno", "--ckpt", str(tmp_path / "in.bnk"), "--data", str(out),
                "--file", "captions.jsonl"])
    _assert_clean_failure(capsys, code, 2, f"{out / 'captions.jsonl'}: line 1: missing key "
                          "'response'; line 2: missing key 'response'")


def test_integer_past_float_range_in_an_input_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    probe = tmp_path / "huge.json"
    probe.write_text('{"modality": "image", "raw": [1' + "0" * 400 + "]}")
    code = cli(["mix", "--data", str(out), "--inputs", f"{probe}:1.0"])
    _assert_clean_failure(capsys, code, 2, str(probe), "not a list of numbers")


_DEEP = "[" * 100_000


def _deep_corpus(tmp_path, out):
    path = out / "captions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = '{"source_id": "s", "modality": "image", "caption": "c", "raw": ' + _DEEP + "\n"
    path.write_text("".join(lines))
    return path, ["train", "--stage", "pretrain", "--data", str(out),
                  "--out", str(tmp_path / "ck.bnk")]


def _deep_manifest(tmp_path, out):
    path = out / "manifest.json"
    path.write_text('{"encoder": ' + _DEEP)
    return path, ["train", "--stage", "pretrain", "--data", str(out),
                  "--out", str(tmp_path / "ck.bnk")]


def _deep_checkpoint(tmp_path, out):
    path = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), path)
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:12], "little")  # the config's length, after magic and version
    deep = ('{"lm": ' + _DEEP).encode()
    path.write_bytes(raw[:8] + len(deep).to_bytes(4, "little") + deep + raw[12 + n:])
    probe = _raw_input_file(tmp_path, out)
    return path, ["generate", "--ckpt", str(path), "--modality", "image",
                  "--input", str(probe), "--prompt", "hi"]


def _deep_input(tmp_path, out):
    path = tmp_path / "deep.json"
    path.write_text('{"modality": "image", "raw": ' + _DEEP)
    return path, ["mix", "--data", str(out), "--inputs", f"{path}:1.0"]


@pytest.mark.parametrize("site", [_deep_corpus, _deep_manifest, _deep_checkpoint, _deep_input])
def test_deeply_nested_json_is_data_error_naming_the_file(tmp_path, capsys, site):
    out = _gen(tmp_path)
    path, args = site(tmp_path, out)
    _assert_clean_failure(capsys, cli(args), 2, str(path), "JSON nested too deeply")


@pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e999"])
def test_non_finite_raw_value_in_a_corpus_names_the_file_and_line(tmp_path, capsys, value):
    out = _gen(tmp_path)
    path = out / "captions.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"raw": [', f'"raw": [{value}, ', 1)
    path.write_text("".join(lines))
    code = cli(["train", "--stage", "pretrain", "--data", str(out),
                "--out", str(tmp_path / "ck.bnk")])
    _assert_clean_failure(capsys, code, 2, str(path), "line 2: the raw vector holds", "at index 0")


@pytest.mark.parametrize("modality,message", [
    (5, "modality is not one of image, text, audio, video, point_cloud"),
    ("mixed", "modality is not one of image, text, audio, video, point_cloud"),
    ("audio", "modality 'audio' differs from --modality image"),
], ids=["5", "mixed", "audio"])
@pytest.mark.parametrize("command", ["generate", "cache-query"])
def test_an_input_modality_that_is_not_the_flag_names_the_file(tmp_path, capsys, modality,
                                                               message, command):
    out = _gen(tmp_path)
    probe = _raw_input_file(tmp_path, out)
    probe.write_text(json.dumps({**json.loads(probe.read_text()), "modality": modality}))
    if command == "generate":
        ckpt = tmp_path / "ck.bnk"
        save_checkpoint(small_checkpoint(), ckpt)
        args = ["generate", "--ckpt", str(ckpt), "--prompt", "hi"]
    else:
        assert cli(["cache", "build", "--data", str(out), "--out", str(tmp_path / "c.bnc")]) == 0
        capsys.readouterr()
        args = ["cache", "query", "--cache", str(tmp_path / "c.bnc"), "--data", str(out)]
    assert cli(args + ["--modality", "image", "--input", str(probe)]) == 2
    assert capsys.readouterr().err == f"error: {probe}: {message}\n"


def test_nested_raw_vector_in_an_input_file_is_data_error(tmp_path, capsys):
    # 2 x 48 numbers: the size the encoders take, in the wrong shape
    ckpt = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), ckpt)
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([[0.5] * 48, [0.25] * 48]))
    code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image",
                "--input", str(probe), "--prompt", "hi"])
    _assert_clean_failure(capsys, code, 2, f"{probe}: the raw vector is not a flat list",
                          "(2, 48)")


@pytest.mark.parametrize("corpus,command", [
    ("captions.jsonl", ["train", "--stage", "pretrain"]),
    ("cache.jsonl", ["cache", "build"]),
], ids=["train", "cache-build"])
def test_nested_raw_vector_in_a_corpus_names_the_file_and_line(tmp_path, capsys, corpus,
                                                               command):
    out = _gen(tmp_path)
    path = out / corpus
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    half = len(record["raw"]) // 2
    record["raw"] = [record["raw"][:half], record["raw"][half:]]
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code = cli(command + ["--data", str(out), "--out", str(tmp_path / "out.bin")])
    _assert_clean_failure(capsys, code, 2, f"{path}: line 2: the raw vector is not a flat list",
                          f"(2, {half})")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("corpus,command", [
    ("captions.jsonl", ["train", "--stage", "pretrain"]),
    ("cache.jsonl", ["cache", "build"]),
], ids=["train", "cache-build"])
def test_a_raw_vector_of_non_numbers_in_a_corpus_names_the_file_and_line(tmp_path, capsys, corpus,
                                                                         command):
    out = _gen(tmp_path)
    path = out / corpus
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["raw"][3] = "a"
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code = cli(command + ["--data", str(out), "--out", str(tmp_path / "out.bin")])
    _assert_clean_failure(capsys, code, 2,
                          f"{path}: line 2: the raw vector is not a list of numbers")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("corpus,command", [
    ("captions.jsonl", ["train", "--stage", "pretrain"]),
    ("eval_yesno.jsonl", ["eval", "--suite", "yesno", "--ckpt"]),
    ("captions.jsonl", ["eval", "--suite", "perplexity", "--ckpt"]),
    ("cache.jsonl", ["cache", "build"]),
], ids=["train", "eval-yesno", "eval-perplexity", "cache-build"])
def test_short_raw_vector_in_a_corpus_names_the_file_and_source(tmp_path, capsys, corpus,
                                                                 command):
    out = _gen(tmp_path)
    path = out / corpus
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["raw"] = record["raw"][:5]
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    if command[-1] == "--ckpt":
        save_checkpoint(small_checkpoint(), tmp_path / "in.bnk")
        command = command + [str(tmp_path / "in.bnk")]
    code = cli(command + ["--data", str(out), "--out", str(tmp_path / "out.bin")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    # one error line, naming the file, the line and the source
    [line] = [x for x in err.splitlines() if x.startswith("error: ")]
    assert f"{path}: line 2: raw length 5 != encoder dim_raw 96" in line
    assert f"for source {record['source_id']!r}" in line
    assert not (tmp_path / "out.bin").exists()
