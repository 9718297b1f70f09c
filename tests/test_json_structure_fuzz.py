"""Structure-aware fuzz of every JSON document a command reads, and of the
training plan file, through the CLI.

Each document is walked: every object key, and every array's first element,
is deleted or replaced by a value of another kind. A plan file gets the same
values in each key's line, in a line with an unknown key and in a line
without `=`, plus an empty value. The mutants are enumerated in a fixed
order and run in-process through cli([...]). Each must exit 0, or exit 2
with one `error:` line naming the file; no exception may escape and no
Python type text may reach the output.
"""

import contextlib
import copy
import io
import json
import shutil

import pytest

from bindlm import peft
from bindlm.bind import BindConfig, bind_init
from bindlm.checkpoint import Checkpoint, save_checkpoint
from bindlm.cli import cli
from bindlm.encoders import EncoderConfig
from bindlm.lm import LMConfig, lm_init
from bindlm.tokenizer import default_tokenizer
from bindlm.train import PLAN_KEYS

# None deletes the node; any other entry is the JSON text put in its place
REPLACEMENTS = [None, "null", "true", "2.5", '"x"', "[]", "{}", "1e400", "1" + "0" * 400]

PYTHON_TEXT = ("object is not", "subscriptable", "indices must be", "argument after",
               "unexpected keyword", "has no attribute")

_HOLE = "\u0000mutant\u0000"


def node_paths(value, path=()):
    """The path of every object key and of every array's first element, depth first."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield path + (key,)
            yield from node_paths(child, path + (key,))
    elif isinstance(value, list) and value:
        yield path + (0,)
        yield from node_paths(value[0], path + (0,))


def mutate(doc, path, replacement) -> str:
    """The JSON text of doc with the node at path deleted or replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if replacement is None:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), replacement)


def mutants(doc):
    for path in node_paths(doc):
        for replacement in REPLACEMENTS:
            yield path, replacement, mutate(doc, path, replacement)


def test_the_walk_reaches_every_key_and_first_element():
    doc = {"a": [[1, 2], 3], "b": {"c": None}}
    assert list(node_paths(doc)) == [("a",), ("a", 0), ("a", 0, 0), ("b",), ("b", "c")]
    assert mutate(doc, ("a", 0, 0), None) == '{"a": [[2], 3], "b": {"c": null}}'
    assert mutate(doc, ("b", "c"), "1e400") == '{"a": [[1, 2], 3], "b": {"c": 1e400}}'
    assert len(list(mutants(doc))) == 5 * len(REPLACEMENTS)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny corpus, a small checkpoint with one adapter, a cache and a raw input file."""
    root = tmp_path_factory.mktemp("structure")
    data = root / "data"
    assert cli(["gen-data", "--out", str(data), "--seed", "3", "--caption-pairs", "2",
                "--caption-variants", "1", "--instruct-pairs", "2", "--instruct-variants", "1",
                "--language-records", "1", "--hq-records", "1", "--cache-variants", "1"]) == 0
    # 418 ids: the default tokenizer defines each of them, so any output decodes
    lm = lm_init(LMConfig(vocab_size=418, dim=16, layers=1, heads=2, max_seq=32, ffn_hidden=24), 0)
    peft.apply_peft(lm, rank=2, seed=0, targets=("wq",))
    bind = bind_init(BindConfig(dim_joint=64, dim_lm=16, dim_hidden=24), 0)
    ck = Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(seed=3), {}, 0,
                                ["pretrain:seed=0:steps=0"])
    save_checkpoint(ck, root / "ck.bnk")
    assert cli(["cache", "build", "--data", str(data), "--out", str(root / "c.bnc")]) == 0
    cache_line = json.loads((data / "cache.jsonl").read_text().splitlines()[0])
    (root / "probe.json").write_text(json.dumps({"modality": "image", "raw": cache_line["raw"]}))
    return root


def _checkpoint_config(world):
    """The config JSON of the checkpoint and a writer that splices a new one into it."""
    raw = (world / "ck.bnk").read_bytes()
    n = int.from_bytes(raw[8:12], "little")  # the config's length, after magic and version

    def write(path, text):
        body = text.encode()
        path.write_bytes(raw[:8] + len(body).to_bytes(4, "little") + body + raw[12 + n:])

    return json.loads(raw[12:12 + n]), write


def _first_line(name):
    def document(world):
        lines = (world / "data" / name).read_text().splitlines(keepends=True)

        def write(path, text):
            path.write_text(text + "\n" + "".join(lines[1:]))

        return json.loads(lines[0]), write
    return f"data/{name}", document


def _whole_file(name, value):
    def document(world):
        return value(world), lambda path, text: path.write_text(text)
    return name, document


def _raw_input(world):
    return json.loads((world / "probe.json").read_text())


# id -> (the file mutated, under the world; its document; the command run on it)
SITES = {
    "manifest": (*_whole_file("data/manifest.json",
                              lambda w: json.loads((w / "data" / "manifest.json").read_text())),
                 ["cache", "build", "--data", "{data}", "--out", "{root}/out.bnc"]),
    "config-generate": ("ck.bnk", _checkpoint_config,
                        ["generate", "--ckpt", "{root}/ck.bnk", "--modality", "image",
                         "--input", "{root}/probe.json", "--prompt", "hi", "--max-new", "2"]),
    "config-eval": ("ck.bnk", _checkpoint_config,
                    ["eval", "--suite", "yesno", "--ckpt", "{root}/ck.bnk", "--data", "{data}"]),
    "input-array": (*_whole_file("probe.json", lambda w: _raw_input(w)["raw"]),
                    ["cache", "query", "--cache", "{root}/c.bnc", "--data", "{data}",
                     "--modality", "image", "--input", "{root}/probe.json", "--k", "1"]),
    "input-object": (*_whole_file("probe.json", _raw_input),
                     ["cache", "query", "--cache", "{root}/c.bnc", "--data", "{data}",
                      "--modality", "image", "--input", "{root}/probe.json", "--k", "1"]),
    "mix-object": (*_whole_file("probe.json", _raw_input),
                   ["mix", "--data", "{data}", "--inputs", "{root}/probe.json:1.0"]),
    "captions.jsonl": (*_first_line("captions.jsonl"),
                       ["eval", "--suite", "perplexity", "--ckpt", "{root}/ck.bnk",
                        "--data", "{data}"]),
    "cache.jsonl": (*_first_line("cache.jsonl"),
                    ["cache", "build", "--data", "{data}", "--out", "{root}/out.bnc"]),
    **{name: (*_first_line(name),
              ["eval", "--suite", "yesno", "--ckpt", "{root}/ck.bnk", "--data", "{data}",
               "--file", name])
       for name in ("instruct.jsonl", "hq.jsonl", "eval_yesno.jsonl", "eval_yesno_audio.jsonl")},
}


def _faults(code, out, err, named) -> str | None:
    """Why one mutant's run breaks the contract, or None."""
    if any(text in out + err for text in PYTHON_TEXT):
        return f"Python type text: {err or out}"
    if code == 0:
        return None
    lines = err.splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error: "):
        return f"exit {code}: {err}"
    if not any(name in lines[0] for name in named):
        return f"the error does not name {named[0]}: {err}"
    return None


def _run(args):
    """cli(args)'s exit code, stdout and stderr; an escaping exception is a
    fault, recorded as exit None with its type and text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli(args)
        except Exception as exc:  # any escape is a fault; record it and go on
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("site", list(SITES))
def test_every_mutant_exits_cleanly_naming_the_file(world, tmp_path, site):
    name, document, command = SITES[site]
    root = tmp_path / "world"
    shutil.copytree(world, root)
    doc, write = document(root)
    target = root / name
    original = target.read_bytes()
    args = [a.format(root=root, data=root / "data") for a in command]
    failures = []
    for path, replacement, text in mutants(doc):
        write(target, text)
        code, out, err = _run(args)
        named = [str(target)]
        if site == "manifest" and path[0] == "files" and replacement == '"x"':
            named.append(str(root / "data" / "x"))  # the file the mutant names
        fault = _faults(code, out, err, named)
        if fault:
            failures.append(f"{'/'.join(map(str, path))} <- {replacement}: {fault}")
        target.write_bytes(original)
    assert failures == []


# a valid value for each plan key: one short epoch, so a mutant that trains
# ends in well under a second
_PLAN = {"epochs": "1", "batch_size": "1", "lr": "0.001", "warmup_epochs": "0", "seed": "0",
         "lora_rank": "2"}


def plan_mutants(stage):
    """(site, replacement, plan text): each of the stage's keys, an unknown
    key and a line without `=`, its line deleted (None) or holding each of
    REPLACEMENTS' texts or an empty value, the other keys valid."""
    keys = sorted(PLAN_KEYS if stage == "instruct" else PLAN_KEYS - {"lora_rank"})
    valid = {**_PLAN, "trainable": ", ".join(sorted(peft.STAGE_TRAINABLE[stage]))}
    for site in keys + ["colour", "no-equals"]:
        for replacement in REPLACEMENTS + [""]:
            lines = [f"{k} = {valid[k]}" for k in keys if k != site]
            if replacement is not None:
                lines.append(replacement if site == "no-equals" else f"{site} = {replacement}")
            yield site, replacement, "\n".join(lines) + "\n"


@pytest.mark.parametrize("stage", ["pretrain", "instruct"])
def test_every_plan_mutant_exits_cleanly_naming_the_plan_file(world, tmp_path, stage):
    command = ["train", "--stage", stage, "--data", str(world / "data"),
               "--out", str(tmp_path / "out.bnk")]
    if stage == "instruct":  # a small pretrain checkpoint without adapters to start from
        lm = lm_init(LMConfig(vocab_size=418, dim=16, layers=1, heads=2, max_seq=32,
                              ffn_hidden=24), 0)
        bind = bind_init(BindConfig(dim_joint=64, dim_lm=16, dim_hidden=24), 0)
        ck = Checkpoint.from_models(lm, bind, default_tokenizer(), EncoderConfig(seed=3), {},
                                    0, ["pretrain:seed=0:steps=0"])
        save_checkpoint(ck, tmp_path / "pre.bnk")
        command += ["--init", str(tmp_path / "pre.bnk")]
    plan = tmp_path / "plan.kv"
    failures, trained, sites = [], 0, set()
    for site, replacement, text in plan_mutants(stage):
        sites.add(site)
        plan.write_text(text)
        code, out, err = _run(command + ["--plan", str(plan)])
        trained += code == 0
        fault = _faults(code, out, err, [str(plan)])
        if fault:
            failures.append(f"{site} <- {replacement!r}: {fault}")
    assert failures == []
    keys = PLAN_KEYS if stage == "instruct" else PLAN_KEYS - {"lora_rank"}
    assert sites == keys | {"colour", "no-equals"}
    assert trained >= len(PLAN_KEYS)  # each deleted line at least falls back to a default
