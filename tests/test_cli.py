import json
from pathlib import Path

import numpy as np
import pytest

from bindlm.checkpoint import save_checkpoint
from bindlm.cli import cli
from bindlm.data import DatasetManifest, raw_sample, sample_objects
from bindlm.encoders import Modality

from test_cache import write_non_utf8_id_cache, write_zero_dim_cache
from test_train import small_checkpoint


def _gen(tmp_path, **sizes) -> Path:
    out = tmp_path / "data"
    args = [
        "gen-data", "--out", str(out), "--seed", "0",
        "--caption-pairs", str(sizes.get("captions", 4)),
        "--caption-variants", str(sizes.get("cap_variants", 2)),
        "--instruct-pairs", str(sizes.get("instruct", 4)),
        "--instruct-variants", "1",
        "--language-records", "2",
        "--hq-records", "2",
        "--cache-variants", "2",
    ]
    assert cli(args) == 0
    return out


def _raw_input_file(tmp_path, data_dir, modality=Modality.IMAGE, name="probe.json"):
    manifest = DatasetManifest.load(data_dir)
    encoders = manifest.encoders()
    obj = sample_objects(1, 99, manifest.encoder.dim_joint)[0]
    from bindlm.tensor import derive_rng

    raw = raw_sample(encoders[modality], obj, derive_rng(99, "probe"))
    p = tmp_path / name
    p.write_text(json.dumps({"modality": modality.value, "raw": raw.tolist()}))
    return p


def test_gen_data_writes_expected_files(tmp_path):
    out = _gen(tmp_path)
    for name in ("manifest.json", "captions.jsonl", "instruct.jsonl", "hq.jsonl",
                 "eval_yesno.jsonl", "eval_yesno_audio.jsonl", "cache.jsonl"):
        assert (out / name).exists()


def test_unknown_flag_is_usage_error(capsys):
    assert cli(["gen-data", "--out", "x", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "unrecognized" in err and "usage:" in err


def test_unknown_subcommand_is_usage_error():
    assert cli(["transmogrify"]) == 1


def test_cache_build_query_and_range_error(tmp_path, capsys):
    out = _gen(tmp_path)
    cache_file = tmp_path / "c.bnc"
    assert cli(["cache", "build", "--data", str(out), "--out", str(cache_file)]) == 0
    probe = _raw_input_file(tmp_path, out)
    assert cli([
        "cache", "query", "--cache", str(cache_file), "--data", str(out),
        "--modality", "image", "--input", str(probe), "--k", "3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(payload["ids"]) == 3
    assert payload["similarities"] == sorted(payload["similarities"], reverse=True)

    # k beyond the store size is a data error (exit 2) with the range message
    assert cli([
        "cache", "query", "--cache", str(cache_file), "--data", str(out),
        "--modality", "image", "--input", str(probe), "--k", "9999",
    ]) == 2
    assert "outside [1," in capsys.readouterr().err


def test_cache_enhance_and_partitioned(tmp_path, capsys):
    out = _gen(tmp_path)
    cache_file = tmp_path / "c.bnc"
    assert cli(["cache", "build", "--data", str(out), "--out", str(cache_file)]) == 0
    probe = _raw_input_file(tmp_path, out, modality=Modality.AUDIO)
    assert cli([
        "cache", "enhance", "--cache", str(cache_file), "--data", str(out),
        "--modality", "audio", "--input", str(probe), "--k", "2", "--alpha", "0.5",
        "--mode", "partitioned",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(payload["enhanced"]) == DatasetManifest.load(out).encoder.dim_joint


def test_mix_cli(tmp_path, capsys):
    out = _gen(tmp_path)
    a = _raw_input_file(tmp_path, out, Modality.IMAGE, "a.json")
    b = _raw_input_file(tmp_path, out, Modality.AUDIO, "b.json")
    assert cli(["mix", "--data", str(out), "--inputs", f"{a}:0.7", f"{b}:0.3"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["modality"] == "mixed"
    v = np.asarray(payload["vector"])
    assert abs(float((v @ v)) - 1.0) < 1e-9

    assert cli(["mix", "--data", str(out), "--inputs", "missing-colon"]) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_divergence_exit_code(tmp_path):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("lr = 1e160\nepochs = 1\n")
    code = cli([
        "train", "--stage", "pretrain", "--data", str(out),
        "--out", str(tmp_path / "ck.bnk"), "--plan", str(plan),
    ])
    assert code == 3


def test_train_missing_init_is_data_error(tmp_path, capsys):
    out = _gen(tmp_path)
    code = cli([
        "train", "--stage", "instruct", "--data", str(out),
        "--out", str(tmp_path / "ck.bnk"),
    ])
    assert code == 2
    assert "requires a pretrain checkpoint" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_full_mini_pipeline(tmp_path, capsys):
    """gen-data -> pretrain -> instruct -> hq -> cache -> eval, all exit 0."""
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("epochs = 1\n")
    ck1, ck2, ck3 = (tmp_path / f"ck{i}.bnk" for i in (1, 2, 3))
    assert cli(["train", "--stage", "pretrain", "--data", str(out), "--out", str(ck1),
                "--plan", str(plan), "--history", str(tmp_path / "h.json")]) == 0
    assert (tmp_path / "h.json").exists()
    assert cli(["train", "--stage", "instruct", "--data", str(out), "--out", str(ck2),
                "--init", str(ck1), "--plan", str(plan)]) == 0
    assert cli(["train", "--stage", "hq", "--data", str(out), "--out", str(ck3),
                "--init", str(ck2), "--plan", str(plan)]) == 0
    cache_file = tmp_path / "c.bnc"
    assert cli(["cache", "build", "--data", str(out), "--out", str(cache_file)]) == 0
    report = tmp_path / "report.json"
    assert cli(["eval", "--suite", "yesno", "--ckpt", str(ck3), "--data", str(out),
                "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["suite"] == "yesno" and payload["n"] == 4
    assert cli(["eval", "--suite", "perplexity", "--ckpt", str(ck1), "--data", str(out)]) == 0
    capsys.readouterr()


def test_generate_alpha_zero_equals_no_cache(tmp_path, capsys):
    out = _gen(tmp_path)
    plan = tmp_path / "plan.kv"
    plan.write_text("epochs = 1\n")
    ck = tmp_path / "ck.bnk"
    assert cli(["train", "--stage", "pretrain", "--data", str(out), "--out", str(ck),
                "--plan", str(plan)]) == 0
    cache_file = tmp_path / "c.bnc"
    assert cli(["cache", "build", "--data", str(out), "--out", str(cache_file)]) == 0
    probe = _raw_input_file(tmp_path, out, Modality.AUDIO)
    capsys.readouterr()  # drain setup output

    assert cli(["generate", "--ckpt", str(ck), "--modality", "audio",
                "--input", str(probe), "--prompt", "Describe the input."]) == 0
    plain = capsys.readouterr().out
    assert cli(["generate", "--ckpt", str(ck), "--modality", "audio",
                "--input", str(probe), "--prompt", "Describe the input.",
                "--cache", str(cache_file), "--alpha", "0", "--k", "4"]) == 0
    cached = capsys.readouterr().out
    assert plain == cached


def _built_cache(tmp_path):
    out = _gen(tmp_path)
    cache_file = tmp_path / "c.bnc"
    assert cli(["cache", "build", "--data", str(out), "--out", str(cache_file)]) == 0
    return out, cache_file


def _assert_clean_failure(capsys, code, want_code, *names):
    assert code == want_code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for name in names:
        assert name in err


@pytest.mark.parametrize("command", [["generate", "--ckpt", "ck.bnk", "--prompt", "p"],
                                     ["cache", "query", "--cache", "c.bnc", "--data", "d"],
                                     ["cache", "enhance", "--cache", "c.bnc", "--data", "d"]])
def test_mixed_modality_flag_is_usage_error(command, capsys):
    code = cli(command + ["--modality", "mixed", "--input", "probe.json"])
    _assert_clean_failure(capsys, code, 1, "--modality", "'mixed'")


def test_mix_bad_coefficient_and_bad_input_file(tmp_path, capsys):
    out = _gen(tmp_path)
    a = _raw_input_file(tmp_path, out, Modality.IMAGE, "a.json")
    code = cli(["mix", "--data", str(out), "--inputs", f"{a}:abc"])
    _assert_clean_failure(capsys, code, 1, f"{a}:abc", "'abc'")

    no_modality = tmp_path / "no_modality.json"
    no_modality.write_text(json.dumps({"raw": json.loads(a.read_text())["raw"]}))
    code = cli(["mix", "--data", str(out), "--inputs", f"{no_modality}:1.0"])
    _assert_clean_failure(capsys, code, 2, str(no_modality), '"modality"')

    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"modality": "mixed", "raw": [0.0]}))
    code = cli(["mix", "--data", str(out), "--inputs", f"{a}:0.5", f"{mixed}:0.5"])
    _assert_clean_failure(capsys, code, 2, str(mixed), "'mixed'")


@pytest.mark.parametrize("command", ["query", "enhance"])
def test_partition_counts_below_one_are_data_errors(tmp_path, capsys, command):
    out, cache_file = _built_cache(tmp_path)
    probe = _raw_input_file(tmp_path, out)
    base = ["cache", command, "--cache", str(cache_file), "--data", str(out),
            "--modality", "image", "--input", str(probe), "--k", "2", "--mode", "partitioned"]
    for flag, value in (("--nlist", "0"), ("--nprobe", "0"), ("--nlist", "-2"), ("--nprobe", "-1")):
        code = cli(base + [flag, value])
        _assert_clean_failure(capsys, code, 2, f"{flag[2:]} = {value}")


def test_query_input_without_raw_vector_is_data_error(tmp_path, capsys):
    out, cache_file = _built_cache(tmp_path)
    for name, payload in (("no_raw.json", {"modality": "image"}),
                          ("text_raw.json", {"modality": "image", "raw": "abc"})):
        probe = tmp_path / name
        probe.write_text(json.dumps(payload))
        code = cli(["cache", "query", "--cache", str(cache_file), "--data", str(out),
                    "--modality", "image", "--input", str(probe)])
        _assert_clean_failure(capsys, code, 2, str(probe))


@pytest.mark.parametrize("write", [write_non_utf8_id_cache, write_zero_dim_cache])
def test_corrupt_cache_file_is_data_error(tmp_path, capsys, write):
    cache_file = tmp_path / "c.bnc"
    write(cache_file)
    code = cli(["cache", "query", "--cache", str(cache_file), "--data", str(tmp_path),
                "--modality", "image", "--input", str(tmp_path / "probe.json")])
    _assert_clean_failure(capsys, code, 2, "c.bnc", "byte offset")


@pytest.mark.parametrize("name,text", [
    ("malformed.json", b'{"modality": "image"\n "raw": [1.0]}'),
    ("binary.json", b"\xff\xfe[1.0]"),
])
def test_malformed_input_json_is_data_error_naming_the_file(tmp_path, capsys, name, text):
    out, cache_file = _built_cache(tmp_path)
    probe = tmp_path / name
    probe.write_bytes(text)
    code = cli(["cache", "query", "--cache", str(cache_file), "--data", str(out),
                "--modality", "image", "--input", str(probe)])
    _assert_clean_failure(capsys, code, 2, str(probe))
    code = cli(["mix", "--data", str(out), "--inputs", f"{probe}:1.0"])
    _assert_clean_failure(capsys, code, 2, str(probe))


def _non_utf8_param_name(ck, path):
    save_checkpoint(ck, path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"lm.head")] = 0xFF
    path.write_bytes(bytes(raw))


def _missing_param(ck, path):
    del ck.params["lm.layers.0.wq"]
    save_checkpoint(ck, path)


def _no_encoder_config(ck, path):
    del ck.config["encoder"]
    save_checkpoint(ck, path)


def _misspelt_positions(ck, path):
    ck.config["lm"]["positions"] = "learnad"
    save_checkpoint(ck, path)


@pytest.mark.parametrize("write,message", [
    (_non_utf8_param_name, "byte offset"),
    (_missing_param, "'lm.layers.0.wq'"),
    (_no_encoder_config, "KeyError('encoder')"),
    (_misspelt_positions, "'learnad'"),
])
def test_corrupt_checkpoint_is_data_error(tmp_path, capsys, write, message):
    ckpt = tmp_path / "ck.bnk"
    write(small_checkpoint(), ckpt)
    code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image",
                "--input", str(tmp_path / "probe.json"), "--prompt", "hi"])
    _assert_clean_failure(capsys, code, 2, message)


@pytest.mark.parametrize("flag,value", [
    ("--temperature", "nan"), ("--temperature", "-1"), ("--top-k", "-4"), ("--max-new", "-3"),
])
def test_bad_generation_setting_is_usage_error(tmp_path, capsys, flag, value):
    ckpt = tmp_path / "ck.bnk"
    save_checkpoint(small_checkpoint(), ckpt)
    code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image",
                "--input", str(tmp_path / "probe.json"), "--prompt", "hi", flag, value])
    _assert_clean_failure(capsys, code, 1, flag, value)


@pytest.mark.parametrize("flag", [
    "--caption-pairs", "--caption-variants", "--instruct-pairs", "--instruct-variants",
    "--language-records", "--hq-records", "--cache-variants",
])
def test_negative_corpus_count_is_usage_error(tmp_path, capsys, flag):
    code = cli(["gen-data", "--out", str(tmp_path / "data"), flag, "-1"])
    _assert_clean_failure(capsys, code, 1, flag, "'-1'")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("text", [
    '{"files": {}, "seed": 0}',
    '{"encoder": {"dim_jiont": 8}, "files": {}, "seed": 0}',
    '{"encoder": {}, "files": {}, "seed": 0',
])
def test_malformed_manifest_is_data_error_naming_the_file(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    code = cli(["cache", "build", "--data", str(tmp_path), "--out", str(tmp_path / "c.bnc")])
    _assert_clean_failure(capsys, code, 2, str(manifest))


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """gen-data output with a built cache and a few input files, shared read-only."""
    tmp_path = tmp_path_factory.mktemp("matrix")
    out, cache_file = _built_cache(tmp_path)
    good = json.loads(_raw_input_file(tmp_path, out).read_text())
    files = {"good": good,
             "short": dict(good, raw=good["raw"][:5]),
             "nan_raw": dict(good, raw=[float("nan")] + good["raw"][1:]),
             "no_modality": {"raw": good["raw"]},
             "huge": dict(good, raw=[1e200] * len(good["raw"]))}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return tmp_path, out, cache_file


_QUERY_CASES = [
    (["--k", "0"], "k = 0"),
    (["--k", "-3"], "k = -3"),
    (["--k", "9999"], "k = 9999"),
    (["--mode", "partitioned", "--nlist", "0"], "nlist = 0"),
    (["--mode", "partitioned", "--nprobe", "0"], "nprobe = 0"),
    (["--input", "short.json"], "short.json"),
    (["--input", "nan_raw.json"], "nan_raw.json"),
]


@pytest.mark.parametrize("argv,named", [
    *((["cache", "query"] + a, n) for a, n in _QUERY_CASES),
    *((["cache", "enhance"] + a, n) for a, n in _QUERY_CASES),
    (["cache", "enhance", "--alpha", "nan"], "alpha = nan"),
    (["cache", "enhance", "--alpha", "-1"], "alpha = -1"),
    (["cache", "enhance", "--alpha", "5"], "alpha = 5"),
    (["mix", "--inputs", "no_modality.json:1.0"], "no_modality.json"),
    (["mix", "--inputs", "nan_raw.json:1.0"], "nan_raw.json"),
    (["mix", "--inputs", "short.json:1.0"], "short.json"),
    (["mix", "--inputs", "good.json:nan"], "nan"),
])
def test_bad_cache_and_mix_input_is_data_error_naming_it(store_dir, capsys, argv, named):
    tmp_path, out, cache_file = store_dir
    argv = [str(tmp_path / a) if ".json" in a else a for a in argv]
    if argv[0] == "cache":
        defaults = {"--cache": str(cache_file), "--data": str(out), "--modality": "image",
                    "--input": str(tmp_path / "good.json")}
        for flag, value in defaults.items():
            if flag not in argv:
                argv += [flag, value]
    else:
        argv += ["--data", str(out)]
    _assert_clean_failure(capsys, cli(argv), 2, named)


def test_huge_raw_vector_and_coefficient_give_unit_norm_results(store_dir, capsys):
    tmp_path, out, cache_file = store_dir
    code = cli(["cache", "query", "--cache", str(cache_file), "--data", str(out),
                "--modality", "image", "--input", str(tmp_path / "huge.json"), "--k", "4"])
    captured = capsys.readouterr()
    assert code == 0 and "Warning" not in captured.err
    sims = json.loads(captured.out.splitlines()[-1])["similarities"]
    assert max(abs(s) for s in sims) > 0.01

    vectors = []
    for coef in ("1.0", "1e200"):
        code = cli(["mix", "--data", str(out), "--inputs", f"{tmp_path / 'good.json'}:{coef}"])
        captured = capsys.readouterr()
        assert code == 0 and "Warning" not in captured.err
        vectors.append(np.asarray(json.loads(captured.out.splitlines()[-1])["vector"]))
    assert abs(float(vectors[1] @ vectors[1]) - 1.0) < 1e-12
    assert np.abs(vectors[1] - vectors[0]).max() < 1e-15


def _string_dim_joint(ck, path):
    ck.config["encoder"]["dim_joint"] = "64"
    save_checkpoint(ck, path)


def test_mistyped_encoder_config_is_data_error_naming_the_file(tmp_path, capsys):
    ckpt = tmp_path / "ck.bnk"
    _string_dim_joint(small_checkpoint(), ckpt)
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.0] * 96))
    code = cli(["generate", "--ckpt", str(ckpt), "--modality", "image",
                "--input", str(probe), "--prompt", "hi"])
    _assert_clean_failure(capsys, code, 2, str(ckpt), "dim_joint", "'64'")

    out = _gen(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["encoder"]["dim_joint"] = "64"
    (out / "manifest.json").write_text(json.dumps(manifest))
    code = cli(["cache", "build", "--data", str(out), "--out", str(tmp_path / "c.bnc")])
    _assert_clean_failure(capsys, code, 2, str(out / "manifest.json"), "dim_joint", "'64'")
