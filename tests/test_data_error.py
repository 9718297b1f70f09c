"""Exit code 2 is decided by one base class, DataError.

Every exception class a bindlm module defines is a DataError, except the
three that have their own exit path: UsageError (exit 1), DivergenceError
(exit 3) and GradCheckError (grad_check's own report). The CLI turns any
DataError into one "error:" line and exit code 2.
"""

import importlib
import types
from pathlib import Path

import pytest

import bindlm
from bindlm import cache, checkpoint, cli, data, encoders, lm, peft, tensor, tokenizer, train
from bindlm.tensor import DataError

OWN_EXIT = {"UsageError", "DivergenceError", "GradCheckError"}

MODULES = sorted(p.stem for p in Path(bindlm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

INPUT_ERRORS = [
    data.IngestError,
    cache.CacheFormatError,
    cache.CacheRangeError,
    cache.CacheBuildError,
    cache.EmptyCacheError,
    checkpoint.CheckpointFormatError,
    tensor.ShapeError,
    tokenizer.VocabularyError,
    lm.TruncationError,
    encoders.DegenerateMixError,
    tensor.EmptyBatchError,
    tensor.NonFiniteError,
    train.PipelineError,
    encoders.EncoderConfigError,
    peft.ConfigurationError,
    lm.GenerationParamsError,
]


def outside_data_error(module: types.ModuleType) -> list[str]:
    """The exception classes module defines that are not a DataError and
    are not one of OWN_EXIT, in definition order."""
    return [name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
            and not issubclass(obj, DataError) and name not in OWN_EXIT]


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda c: c.__name__)
def test_every_input_error_exits_2_with_one_line(monkeypatch, capsys, tmp_path, cls):
    def command(args):
        raise cls("planted")

    monkeypatch.setitem(cli._COMMANDS, "gen-data", command)
    assert cli.cli(["gen-data", "--out", str(tmp_path / "d")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_non_finite_error_is_still_an_arithmetic_error():
    assert issubclass(tensor.NonFiniteError, ArithmeticError)


@pytest.mark.parametrize("name", MODULES)
def test_every_exception_is_a_data_error_or_has_its_own_exit(name):
    assert outside_data_error(importlib.import_module(f"bindlm.{name}")) == []


def test_an_exception_outside_data_error_is_found():
    module = types.ModuleType("planted")
    exec(
        "from bindlm.tensor import DataError\n"
        "class Kept(DataError):\n"
        "    pass\n"
        "class Escapes(ValueError):\n"
        "    pass\n"
        "class UsageError(Exception):\n"
        "    pass\n"
        "NOT_A_CLASS = ValueError('x')\n",
        vars(module),
    )
    assert outside_data_error(module) == ["Escapes"]
