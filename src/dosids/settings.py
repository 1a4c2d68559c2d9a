"""Config fields that declare their allowed values beside their defaults.

`setting(default, least=..., above=..., below=..., choices=...)` is a field
whose metadata holds its domain; `check_settings` checks a config against them.
"""

import math
import operator
from dataclasses import field, fields, is_dataclass

_DOMAIN = {"least": (operator.ge, ">="), "above": (operator.gt, ">"),
           "below": (operator.lt, "<"), "choices": (lambda v, bound: v in bound, "in")}


def setting(default, **domain):
    """A dataclass field with `default` and the allowed values `domain` states."""
    return field(default=default, metadata={"domain": domain})


def check_settings(config, prefix: str = ""):
    """Raise ValueError, naming the dotted field path, for the first field
    of `config` (nested config dataclasses included) that is a non-finite
    float or lies outside its declared domain. A None value is unset."""
    for f in fields(config):
        value, path = getattr(config, f.name), prefix + f.name
        if is_dataclass(value):
            check_settings(value, path + ".")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path} must be finite, got {value}")
        elif value is not None:
            for keyword, bound in f.metadata.get("domain", {}).items():
                holds, relation = _DOMAIN[keyword]
                if not holds(value, bound):
                    raise ValueError(f"{path} must be {relation} {bound}, got {value!r}")
