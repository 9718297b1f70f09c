"""Every file-valued flag of the bindlm command, found by walking its parser,
fails cleanly on a bad path.

A flag whose metavar is FILE, DIR or FILE:COEF names a path. An input path
that is missing, a directory, truncated or not UTF-8 is a data error (exit 2);
an output path that is a directory, or lies in a directory that is missing or
is a file, is a usage error (exit 1) raised before any work. Either way stderr
names the path and holds no traceback. A new file flag is covered here without
editing this file, as long as its metavar says it names a path.
"""

import argparse
import json
import shutil
import warnings
from pathlib import Path

import pytest

from bindlm import cli as cli_module
from bindlm.checkpoint import save_checkpoint
from bindlm.cli import cli

from test_cli import _assert_clean_failure, _raw_input_file
from test_train import small_checkpoint

_PATH_METAVARS = ("FILE", "DIR", "FILE:COEF")


def _file_flags(parser=None, command=()) -> list:
    """(command words, flag, action) for every path-valued flag of the parser."""
    parser = parser or cli_module._build_parser()
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _file_flags(sub, command + (name,))
        elif action.metavar in _PATH_METAVARS:
            found.append((command, action.option_strings[-1], action))
    return found


def _is_output(action) -> bool:
    return getattr(action.type, "func", action.type) is cli_module._output_path


# the non-path arguments each command needs to run
_COMMANDS = {
    ("gen-data",): ["--caption-pairs", "1", "--caption-variants", "1", "--instruct-pairs", "2",
                    "--instruct-variants", "1", "--language-records", "1", "--hq-records", "1",
                    "--cache-variants", "1"],
    ("train",): ["--stage", "instruct"],
    ("generate",): ["--modality", "image", "--prompt", "hi", "--max-new", "1", "--k", "1"],
    ("cache", "build"): [],
    ("cache", "query"): ["--modality", "image", "--k", "1"],
    ("cache", "enhance"): ["--modality", "image", "--k", "1"],
    ("mix",): [],
    ("eval",): ["--suite", "yesno", "--k", "1"],
}

_FLAGS = _file_flags()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A working value for every input path flag, a plain file and an empty directory."""
    root = tmp_path_factory.mktemp("paths")
    data = root / "data"
    assert cli(["gen-data", "--out", str(data)] + _COMMANDS[("gen-data",)]) == 0
    ck = small_checkpoint()
    ck.provenance = ["pretrain:seed=0:steps=0"]
    save_checkpoint(ck, root / "ck.bnk")
    assert cli(["cache", "build", "--data", str(data), "--out", str(root / "c.bnc")]) == 0
    probe = _raw_input_file(root, data)
    (root / "plan.kv").write_text("epochs = 1\n")
    (root / "plain").write_text("not a directory\n")
    (root / "empty_dir").mkdir()
    valid = {
        "--data": str(data), "--ckpt": str(root / "ck.bnk"), "--init": str(root / "ck.bnk"),
        "--plan": str(root / "plan.kv"), "--input": str(probe), "--inputs": f"{probe}:1.0",
        "--cache": str(root / "c.bnc"), "--file": str(data / "eval_yesno.jsonl"),
    }
    return root, valid


def _argv(world, outputs, command, flag=None, value=None) -> list[str]:
    """The command with a working value for every path flag but flag, which gets
    value; every output goes into the directory outputs."""
    _, valid = world
    argv = list(command) + _COMMANDS[command]
    for cmd, f, action in _FLAGS:
        if cmd != command:
            continue
        if f == flag:
            argv += [f, value]
        elif _is_output(action):
            argv += [f, str(outputs / f.lstrip("-"))]
        elif f in valid:
            argv += [f, valid[f]]
    return argv


def test_every_file_flag_is_found():
    found = {f for _, f, _ in _FLAGS}
    assert found >= {"--ckpt", "--init", "--plan", "--input", "--inputs", "--cache", "--data",
                     "--file", "--out", "--history"}
    assert {cmd for cmd, _, _ in _FLAGS} == set(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS), ids=" ".join)
def test_each_command_runs_with_the_working_paths(world, tmp_path, capsys, command):
    assert cli(_argv(world, tmp_path, command)) == 0, capsys.readouterr().err


def _input_cases(root, flag, action, valid):
    """(label, path) of each bad input for the flag."""
    cases = [("missing", root / "missing" / "absent"), ("directory", root / "empty_dir")]
    if action.metavar == "DIR":
        bad = root / f"bad_manifest{flag}"
        bad.mkdir(exist_ok=True)
        (bad / "manifest.json").write_bytes(b'{"seed": \xff}')
        return cases[:1] + [("a file", root / "plain"), ("non-UTF-8 manifest", bad)]
    # a truncated and a non-UTF-8 copy of the working file (--inputs carries ":COEF")
    raw = Path(valid[flag].rsplit(":", 1)[0]).read_bytes() if flag in valid else b"[1.0]\n"
    truncated = root / f"truncated{flag}"
    truncated.write_bytes(raw[:len(raw) // 2])
    non_utf8 = root / f"non_utf8{flag}"
    non_utf8.write_bytes(b"\xff\xfe" + raw)
    return cases + [("truncated", truncated), ("non-UTF-8", non_utf8)]


_INPUTS = [(c, f, a) for c, f, a in _FLAGS if not _is_output(a)]
_OUTPUTS = [(c, f, a) for c, f, a in _FLAGS if _is_output(a)]


@pytest.mark.parametrize("command,flag,action", _INPUTS,
                         ids=[f"{' '.join(c)} {f}" for c, f, _ in _INPUTS])
def test_bad_input_path_is_data_error_naming_it(world, tmp_path, capsys, command, flag, action):
    root, valid = world
    for label, path in _input_cases(root, flag, action, valid):
        value = f"{path}:1.0" if action.metavar == "FILE:COEF" else str(path)
        code = cli(_argv(world, tmp_path, command, flag, value))
        err = capsys.readouterr().err
        assert (code, "Traceback" in err, str(path) in err) == (2, False, True), (label, err)


@pytest.mark.parametrize("command,flag,action", _OUTPUTS,
                         ids=[f"{' '.join(c)} {f}" for c, f, _ in _OUTPUTS])
def test_bad_output_path_is_usage_error_before_any_work(world, tmp_path, capsys, command, flag,
                                                         action):
    root, _ = world
    cases = [root / "plain" / "below"]
    if action.metavar == "DIR":  # gen-data makes its directory and any missing parents
        cases += [root / "plain"]
    else:
        cases += [root / "empty_dir", root / "missing" / "out"]
    for path in cases:
        code = cli(_argv(world, tmp_path, command, flag, str(path)))
        _assert_clean_failure(capsys, code, 1, flag, str(path))
        assert not any(tmp_path.iterdir())  # no other output was written


def test_non_utf8_corpus_named_by_the_manifest_is_data_error(world, tmp_path, capsys):
    _, valid = world
    data = tmp_path / "data"
    shutil.copytree(valid["--data"], data)
    for name in ("cache.jsonl", "instruct.jsonl"):
        (data / name).write_bytes(b"\xff" + (data / name).read_bytes())
    code = cli(["cache", "build", "--data", str(data), "--out", str(tmp_path / "c.bnc")])
    _assert_clean_failure(capsys, code, 2, str(data / "cache.jsonl"), "UTF-8")
    code = cli(_argv(world, tmp_path, ("train",), "--data", str(data)))
    _assert_clean_failure(capsys, code, 2, str(data / "instruct.jsonl"), "UTF-8")


def test_missing_cache_is_the_readers_error_not_errno_text(world, tmp_path, capsys):
    absent = tmp_path / "absent.bnc"
    code = cli(_argv(world, tmp_path, ("cache", "query"), "--cache", str(absent)))
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: {absent}: cannot read: No such file or directory\n"


def test_mix_of_a_huge_raw_input_warns_nothing(world, tmp_path, capsys):
    _, valid = world
    payload = json.loads(Path(valid["--input"]).read_text())
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(dict(payload, raw=[1e200] * len(payload["raw"]))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["mix", "--data", valid["--data"], "--inputs", f"{huge}:1.0"]) == 0
    assert "Warning" not in capsys.readouterr().err
