"""Pipeline configuration with defaults from the ablation-optimal settings."""
from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from typing import Any

from .geometry import _FLOAT_MAX

# The Python types of the JSON values a scalar field takes; a bool is no number.
_JSON_SCALARS = {
    bool: ("true or false", (bool,)),
    int: ("a JSON integer", (int,)),
    float: ("a JSON number", (int, float)),
}


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """The field types of a dataclass, its string annotations evaluated once."""
    return typing.get_type_hints(cls)


def _from_json(name: str, value: Any, hint: Any) -> Any:
    """The JSON ``value`` of field ``name`` as its type ``hint`` takes it: a
    scalar as is, a tuple or a dataclass from an array of its items. A value
    of another JSON type raises TypeError naming the field."""
    if hint in _JSON_SCALARS:
        what, types = _JSON_SCALARS[hint]
        if type(value) not in types:
            raise TypeError(f"{name} must be {what}, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        return hint(*_from_json(name, value, tuple[tuple(_field_types(hint).values())]))
    items = typing.get_args(hint)  # a tuple[...] field
    if type(value) is not list or len(value) != len(items):
        raise TypeError(f"{name} must be an array of {len(items)} values, got {value!r}")
    return tuple(_from_json(f"{name}[{i}]", v, t) for i, (v, t) in enumerate(zip(value, items)))


_WORDS = {">=": "at least", ">": "greater than", "<=": "at most", "<": "less than",
          ">=0": "nonnegative", ">0": "positive"}  # a lower bound of 0 reads as a sign


@functools.cache
def _checks(cls: type) -> tuple[tuple[str, float, float, list], ...]:
    """Each real or bounded field of a config: its name, the closed interval [lo, hi] that
    it or each item of a tuple must lie in, and the rules (lo, hi, words) meeting there: finite,
    then ``cls._BOUNDS``, where a strict bound b (below 2**53) closes at the float next to b."""
    rules = {k: [(-_FLOAT_MAX, _FLOAT_MAX, "finite")]
             for k, t in _field_types(cls).items() if float in (t, *typing.get_args(t))}
    for name, op, b in cls._BOUNDS:
        closed = b if "=" in op else math.nextafter(b, math.inf if op == ">" else -math.inf)
        side = (closed, math.inf) if op[0] == ">" else (-math.inf, closed)
        rules.setdefault(name, []).append((*side, _WORDS.get(f"{op}{b}", f"{_WORDS[op]} {b}")))
    return tuple((k, max(r[0] for r in rs), min(r[1] for r in rs), rs) for k, rs in rules.items())


class DictConfig:
    """The dict form of a dataclass config, and the one check of its values' bounds."""

    _BOUNDS = ()  # (field, ">=", ">", "<=" or "<", constant); unannotated, so not a field

    def __post_init__(self) -> None:
        values = vars(self)
        for name, lo, hi, rules in _checks(type(self)):
            x = values[name]
            if not (all(lo <= v <= hi for v in x) if type(x) is tuple else lo <= x <= hi):
                xs = x if type(x) is tuple else (x,)
                words = next(w for a, b, w in rules if not all(a <= v <= b for v in xs))
                raise ValueError(f"{name} must be {words}, got {x}")

    def _check_counts(self, *products: tuple[str, ...]) -> None:
        """Refuse a product of int fields, given by their names, past 2**50. Each
        is an array's element count up to a small factor: 2**50 float64 are 8 PiB,
        and 1/1024 of the bytes NumPy's index type counts, so no factor overflows it."""
        get = vars(self).__getitem__
        for names in products:
            count = math.prod(map(get, names))
            if count > 2**50:
                raise ValueError(f"{' * '.join(names)} must be at most 2**50, got {count}")

    def to_dict(self) -> dict[str, Any]:
        """The dict ``from_dict`` reads, each tuple or dataclass field as a list."""
        return {k: list(v) if type(v) is tuple else v
                for k, v in zip(_field_types(type(self)), dataclasses.astuple(self))}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> Any:
        """The config from its dict form, each value checked against its
        field's type by ``_from_json``; an unknown key raises ValueError."""
        types = _field_types(cls)
        unknown = set(d) - types.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: _from_json(k, v, types[k]) for k, v in d.items()})


@dataclass
class PipelineConfig(DictConfig):
    """The five settings `pack` and `unpack` read; TrainConfig owns the rest."""

    beta: float = 1.5
    fixed_size: float = 96.0
    mosaic_width: float = 1333.0
    padding: float = 2.0
    nms_iou: float = 0.5

    _BOUNDS = (("beta", ">=", 1), ("fixed_size", ">", 0), ("mosaic_width", ">", 0),
               ("padding", ">=", 0), ("nms_iou", ">=", 0), ("nms_iou", "<=", 1))
