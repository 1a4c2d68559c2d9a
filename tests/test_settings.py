"""Declared setting domains: `check_settings` over the four config classes,
nested configs included, and the domain keywords on their own."""

import dataclasses
import re
from dataclasses import dataclass

import pytest

from dosids.alexclf import Hyperparameters
from dosids.aso import AsoConfig
from dosids.augment import GanConfig
from dosids.pipeline import PipelineConfig
from dosids.settings import check_settings, setting

# each config class with every nested config present
CONFIGS = (PipelineConfig(classifier_overrides=Hyperparameters(), skip_tune=True),
           GanConfig(), AsoConfig(), Hyperparameters())


def float_fields(config, prefix=""):
    """Dotted paths of the float fields of `config` and of the configs it holds."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from float_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, float):
            yield prefix + f.name


def with_value(config, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = with_value(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


FLOAT_CASES = [(config, path) for config in CONFIGS for path in float_fields(config)]


def test_every_config_class_has_its_float_fields_found():
    assert {(type(config).__name__, path) for config, path in FLOAT_CASES} >= {
        ("PipelineConfig", "aso.depth_weight"),
        ("PipelineConfig", "classifier_overrides.learning_rate"),
        ("AsoConfig", "multiplier_weight"), ("Hyperparameters", "weight_decay")}
    for config in CONFIGS:
        check_settings(config)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("config, path", FLOAT_CASES,
                         ids=[f"{type(c).__name__}.{p}" for c, p in FLOAT_CASES])
def test_check_settings_refuses_non_finite_floats(config, path, bad):
    """Refused as non-finite, whatever the field's domain, named by its config
    key (`classifier.*` for the overrides) or else its dotted path."""
    name = path.replace("classifier_overrides.", "classifier.")
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be finite"):
        check_settings(with_value(config, path, bad))


def test_domain_keywords_and_their_edges():
    @dataclass
    class Toy:
        count: int | None = setting(None, least=1)
        rate: float = setting(0.5, above=0.0, below=1.0)
        kind: str = setting("a", choices=("a", "b"))

    for good in (Toy(), Toy(count=1), Toy(rate=1e-300), Toy(kind="b")):
        check_settings(good)
    for bad, message in ((Toy(count=0), "count must be >= 1, got 0"),
                         (Toy(rate=0.0), "rate must be > 0.0, got 0.0"),
                         (Toy(rate=1.0), "rate must be < 1.0, got 1.0"),
                         (Toy(kind="c"), "kind must be in ('a', 'b'), got 'c'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_settings(bad)
