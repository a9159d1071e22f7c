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


@functools.cache
def _real_fields(cls: type) -> tuple[str, ...]:
    """The fields of a dataclass that hold a float, alone or in a tuple."""
    return tuple(k for k, t in _field_types(cls).items() if float in (t, *typing.get_args(t)))


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


class DictConfig:
    """The dict form of a dataclass config, and the check that its real values are finite."""

    def __post_init__(self) -> None:
        for name in _real_fields(type(self)):
            value = getattr(self, name)
            for v in value if type(value) is tuple else (value,):
                if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
                    raise ValueError(f"{name} must be finite, got {value}")

    def _check_counts(self, *products: tuple[str, ...]) -> None:
        """Refuse a product of int fields, given by their names, past 2**50. Each
        is an array's element count up to a small factor: 2**50 float64 are 8 PiB,
        and 1/1024 of the bytes NumPy's index type counts, so no factor overflows it."""
        for names in products:
            count = math.prod(map(self.__getattribute__, names))
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

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.fixed_size <= 0 or self.mosaic_width <= 0:
            raise ValueError("fixed_size and mosaic_width must be positive")
        if self.padding < 0:
            raise ValueError("padding must be nonnegative")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0,1], got {self.nms_iou}")
