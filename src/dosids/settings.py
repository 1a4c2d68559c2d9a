"""Config fields that declare their config key and allowed values beside their
defaults. A nesting field's key prefixes its config's settings: `gan` keys
GanConfig's `batch_size` as `gan.batch_size`. `config_keys` derives the key
table; `check_settings` checks a config against the declared domains."""

import math
import operator
from dataclasses import MISSING, field, fields, is_dataclass
from types import UnionType
from typing import get_args

_DOMAIN = {"least": (operator.ge, ">="), "above": (operator.gt, ">"),
           "below": (operator.lt, "<"), "choices": (lambda v, bound: v in bound, "in")}


def setting(default=MISSING, key=None, factory=MISSING, **domain):
    """A dataclass field with `default` (or `factory`), the config `key` that
    sets it, if one does, and the allowed values `domain` states."""
    return field(default=default, default_factory=factory,
                 metadata={"key": key, "domain": domain})


def _as_bool(v: str) -> bool:
    if v.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a boolean, got {v!r}")
    return v.lower() in ("1", "true", "yes", "on")


def _column_list(v: str) -> list[str]:
    return [c.strip() for c in v.split(",") if c.strip()]


_PARSERS = {bool: _as_bool, list[str]: _column_list}    # any other type parses its text


def config_keys(cls, prefix: str = "", path: str = "") -> dict:
    """config key -> (dotted field path, parser) for each field of `cls` that
    declares a key and, under a nesting field's prefix, each `setting` field.
    The parser comes from the annotation; `X | None` parses as `X`."""
    keys = {}
    for f in fields(cls):
        key = f.metadata.get("key") or ("key" in f.metadata and prefix and prefix + f.name)
        kind = get_args(f.type)[0] if isinstance(f.type, UnionType) else f.type
        if key and is_dataclass(kind):
            keys.update(config_keys(kind, key + ".", path + f.name + "."))
        elif key:
            keys[key] = (path + f.name, _PARSERS.get(kind, kind))
    return keys


def check_settings(config, prefix: str = ""):
    """Raise ValueError, naming the field by its config key or else its dotted
    path, for the first field of `config` (nested configs included) that is a
    non-finite float or lies outside its declared domain. None is unset."""
    for f in fields(config):
        value = getattr(config, f.name)
        name = f.metadata.get("key") or prefix + f.name
        if is_dataclass(value):
            check_settings(value, name + ".")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        elif value is not None:
            for keyword, bound in f.metadata.get("domain", {}).items():
                holds, relation = _DOMAIN[keyword]
                if not holds(value, bound):
                    raise ValueError(f"{name} must be {relation} {bound}, got {value!r}")
