"""Axis-aligned box arithmetic shared by every pipeline stage."""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

_FLOAT_MAX = sys.float_info.max  # NaN, ±inf and too-large ints are not within ±_FLOAT_MAX


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, finite corners (x1, y1) <= (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (-_FLOAT_MAX <= self.x1 <= self.x2 <= _FLOAT_MAX
                and -_FLOAT_MAX <= self.y1 <= self.y2 <= _FLOAT_MAX):
            raise ValueError(f"box corners must be finite with (x1, y1) <= (x2, y2), got {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def contains(self, other: "BBox", tol: float = 0.0) -> bool:
        return (
            self.x1 <= other.x1 + tol
            and self.y1 <= other.y1 + tol
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )


@dataclass(frozen=True)
class ImageExtent:
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0 < self.width <= _FLOAT_MAX and 0 < self.height <= _FLOAT_MAX):
            raise ValueError(f"extent must be positive and finite, got {self.width}x{self.height}")
        # Areas and foreground ratios divide by or compare against width * height.
        if not float(self.width) * float(self.height) <= _FLOAT_MAX:
            raise ValueError(f"extent area must be finite, got {self.width:g}x{self.height:g}")


def area(box: BBox) -> float:
    return box.width * box.height


def corners(boxes: Iterable[BBox]) -> np.ndarray:
    """The boxes' corners (x1, y1, x2, y2) as a float (n, 4) array; (0, 4) for none."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)
