"""check_fields is the one rule for every config: a value of the wrong kind,
a non-finite number or a size below its bound raises that config's own
error, naming the field."""

import pytest

from bindlm.bind import BindConfig
from bindlm.encoders import EncoderConfig, EncoderConfigError
from bindlm.lm import GenerationParams, GenerationParamsError, LMConfig
from bindlm.peft import LoraSpec
from bindlm.tensor import DataError, ShapeError, check_fields
from bindlm.train import PipelineError, default_plan


def _plan(**fields):
    return default_plan("pretrain", "data", **fields)


# config, its error, an int field, a float field (or None), a field with a
# bound and a value below that bound
CONFIGS = {
    "TrainPlan": (_plan, PipelineError, "epochs", "lr", "batch_size", 0),
    "EncoderConfig": (EncoderConfig, EncoderConfigError, "seed", "noise_scale", "dim_joint", 0),
    "GenerationParams": (GenerationParams, GenerationParamsError, "top_k", "temperature",
                         "max_new_tokens", -1),
    "LMConfig": (LMConfig, ShapeError, "heads", None, "layers", 0),
    "BindConfig": (BindConfig, ShapeError, "dim_lm", None, "dim_hidden", 0),
}

HUGE = 10 ** 400  # an int past float range


def _cases():
    for name, (make, error, int_field, float_field, low_field, low_value) in CONFIGS.items():
        bad = [(int_field, 2.0, "2.0"), (int_field, True, "True"), (int_field, HUGE, "10**400"),
               (low_field, low_value, str(low_value))]
        if float_field:
            bad += [(float_field, float("nan"), "nan"), (float_field, HUGE, "10**400")]
        for field, value, shown in bad:
            yield pytest.param(make, error, field, value, id=f"{name}-{field}={shown}")


@pytest.mark.parametrize("make,error,field,value", _cases())
def test_a_bad_field_raises_the_configs_error_naming_it(make, error, field, value):
    with pytest.raises(error) as info:
        make(**{field: value})
    assert info.value.field == field and str(info.value).startswith(f"{field} ")


@pytest.mark.parametrize("value,problem", [
    (1.5, "not an int"), (True, "not an int"), ("2", "not an int"), (None, "not an int"),
    (-HUGE, "not finite as a float"), (0, "below 1"),
])
def test_the_message_says_what_is_wrong(value, problem):
    with pytest.raises(DataError, match=f"^rank .*, which is {problem}$"):
        check_fields(LoraSpec(rank=value, scaling=1.0), DataError, rank=1)


@pytest.mark.parametrize("value", [1, 0.5, -2.0])
def test_an_int_or_a_float_passes_as_a_float_field(value):
    check_fields(LoraSpec(rank=1, scaling=value), DataError, rank=1)


def test_a_bool_field_takes_only_a_bool():
    assert LMConfig(shared_gate=True).shared_gate
    with pytest.raises(ShapeError, match="shared_gate 1, which is not a bool"):
        LMConfig(shared_gate=1)
