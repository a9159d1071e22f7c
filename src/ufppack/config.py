"""Pipeline configuration with defaults from the ablation-optimal settings."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any


class DictConfig:
    """The dict form of a dataclass config, as its JSON file holds it."""

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> Any:
        """The config from its dict form; an unknown key raises ValueError."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class PipelineConfig(DictConfig):
    """The five settings `pack` and `unpack` read; TrainConfig owns the rest."""

    beta: float = 1.5
    fixed_size: float = 96.0
    mosaic_width: float = 1333.0
    padding: float = 2.0
    nms_iou: float = 0.5

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            # A NaN or infinity from JSON would reach the layout file as is.
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.fixed_size <= 0 or self.mosaic_width <= 0:
            raise ValueError("fixed_size and mosaic_width must be positive")
        if self.padding < 0:
            raise ValueError("padding must be nonnegative")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must be in [0,1], got {self.nms_iou}")
