"""Bad plan files, undecodable tokens, mismatched widths and diverging runs
end in one error line and the documented exit code, never a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bindlm
from bindlm.checkpoint import save_checkpoint
from bindlm.cli import cli

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
    ("lr = nan", "lr"),
    ("lr = inf", "lr"),
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


def _emits_undecodable_id(ck, path):
    """Zero every layer and aim the head at id 419: the tokenizer defines 418
    ids, and the greedy token is 419 after any prompt."""
    params = ck.params
    for name in params:
        if name.startswith("lm.layers."):
            params[name] = np.zeros_like(params[name])
    params["lm.tok_emb"] = np.ones_like(params["lm.tok_emb"])
    params["lm.pos_emb"] = np.zeros_like(params["lm.pos_emb"])
    params["lm.head"] = np.zeros_like(params["lm.head"])
    params["lm.head"][:, 419] = 1.0
    save_checkpoint(ck, path)


def test_undecodable_token_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    ckpt = tmp_path / "ck.bnk"
    _emits_undecodable_id(small_checkpoint(), ckpt)
    probe = _raw_input_file(tmp_path, out)
    for temperature in ("0", "1.0"):
        code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image", "--input", str(probe),
                    "--prompt", "hi", "--max-new", "4", "--temperature", temperature])
        _assert_clean_failure(capsys, code, 2, "token id 419", "418 ids")
    code = cli(["eval", "--suite", "yesno", "--ckpt", str(ckpt), "--data", str(out)])
    _assert_clean_failure(capsys, code, 2, "token id 419", "418 ids")


def _narrow_encoder(ck, path):
    ck.config["encoder"]["dim_joint"] = 32
    save_checkpoint(ck, path)


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


def test_integer_past_float_range_in_an_input_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    probe = tmp_path / "huge.json"
    probe.write_text('{"modality": "image", "raw": [1' + "0" * 400 + "]}")
    code = cli(["mix", "--data", str(out), "--inputs", f"{probe}:1.0"])
    _assert_clean_failure(capsys, code, 2, str(probe), "not a list of numbers")
