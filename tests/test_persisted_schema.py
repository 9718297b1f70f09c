"""The persisted config schema and the stage-2 delta split, as literals.

Checkpoints and manifests store these dicts; a field renamed, added or
dropped here changes every file written from now on.
"""

import json
from dataclasses import asdict

import numpy as np

from bindlm import peft
from bindlm.bind import BindConfig, bind_init
from bindlm.checkpoint import Checkpoint, apply_adapters, split_adapters
from bindlm.cli import cli
from bindlm.data import MANIFEST_NAME, DatasetManifest
from bindlm.encoders import EncoderConfig
from bindlm.lm import LMConfig, lm_init
from bindlm.tokenizer import default_tokenizer

LINEARS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def test_default_config_dicts():
    assert asdict(LMConfig()) == {
        "vocab_size": 512, "dim": 128, "layers": 4, "heads": 4, "max_seq": 128,
        "positions": "learned", "shared_gate": False, "ffn_hidden": 256,
    }
    assert asdict(BindConfig()) == {"dim_joint": 64, "dim_lm": 128, "dim_hidden": 256}
    assert asdict(EncoderConfig()) == {
        "dim_raw": 96, "dim_joint": 64, "offset_scale": 0.12, "noise_scale": 0.0, "seed": 0,
    }


def test_config_dicts_round_trip():
    lm = LMConfig(vocab_size=420, dim=16, layers=2, heads=2, max_seq=32, positions="rope",
                  shared_gate=True, ffn_hidden=24)
    bind = BindConfig(dim_joint=16, dim_lm=16, dim_hidden=24)
    enc = EncoderConfig(dim_raw=24, dim_joint=16, offset_scale=0.5, noise_scale=0.25, seed=3)
    for config in (lm, bind, enc):
        assert type(config)(**json.loads(json.dumps(asdict(config)))) == config


def test_gen_data_manifest(tmp_path):
    out = tmp_path / "data"
    assert cli(["gen-data", "--out", str(out), "--seed", "3", "--caption-pairs", "1",
                "--caption-variants", "1", "--instruct-pairs", "1", "--instruct-variants", "1",
                "--language-records", "0", "--hq-records", "1", "--cache-variants", "1"]) == 0
    want = {
        "encoder": {"dim_raw": 96, "dim_joint": 64, "offset_scale": 0.12, "noise_scale": 0.0,
                    "seed": 3},
        "seed": 3,
        "files": {
            "pretrain": "captions.jsonl",
            "instruct": "instruct.jsonl",
            "hq_instruct": "hq.jsonl",
            "eval_yesno": "eval_yesno.jsonl",
            "eval_yesno_audio": "eval_yesno_audio.jsonl",
            "cache": "cache.jsonl",
        },
    }
    text = (out / MANIFEST_NAME).read_text()
    assert json.loads(text) == want
    assert text == json.dumps(want, sort_keys=True, indent=1) + "\n"
    assert DatasetManifest.load(out) == DatasetManifest(
        EncoderConfig(seed=3), 3, want["files"])


def test_split_adapters_for_rope_with_a_shared_gate():
    lm = lm_init(LMConfig(vocab_size=420, dim=16, layers=2, heads=2, max_seq=32, ffn_hidden=24,
                          positions="rope", shared_gate=True), 0)
    peft.apply_peft(lm, rank=2, seed=0)
    bind = bind_init(BindConfig(dim_joint=64, dim_lm=16, dim_hidden=24), 0)
    ckpt = Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(), {}, 0,
                                  ["instruct:seed=0:steps=0"])
    base, delta = split_adapters(ckpt)

    layers = range(2)
    want_delta = {f"lm.layers.{l}.{n}.{part}" for l in layers for n in LINEARS
                  for part in ("lora_a", "lora_b", "bias")}
    want_delta |= {f"lm.layers.{l}.{n}" for l in layers for n in ("attn_norm", "ffn_norm")}
    want_delta |= {"lm.final_norm", "lm.gates.shared"}
    want_base = {"lm.tok_emb", "lm.head", "bind.w0"}
    want_base |= {f"lm.layers.{l}.{n}" for l in layers for n in LINEARS}
    want_base |= {f"bind.blocks.{i}.{n}" for i in range(3)
                  for n in ("w1", "w2", "w3", "norm_gain")}
    assert set(delta.params) == want_delta
    assert set(base.params) == want_base
    assert len(want_delta) + len(want_base) == len(ckpt.params) == 77
    assert base.config["adapters"] == {}
    assert delta.config["adapters"] == ckpt.config["adapters"]

    rebuilt = apply_adapters(base, delta)
    assert rebuilt.config == ckpt.config
    assert sorted(rebuilt.params) == sorted(ckpt.params)
    for name, a in ckpt.params.items():
        assert np.array_equal(rebuilt.params[name], a)
