"""Scale equalization of cluster regions and shelf packing into one mosaic.

The packer is a deterministic height-sorted shelf heuristic: rectangles are
sorted by scaled height (descending, ties by input order) and placed
left-to-right on the current shelf, opening a new shelf on width overflow.
Alternative packers can be swapped in as long as they honor the same
non-overlap / containment contract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import _FLOAT_MAX, BBox, area
from .regions import RegionSet


class UnpackableRegionError(ValueError):
    """A scaled region is too wide for the target strip."""


@dataclass(frozen=True)
class Placement:
    source: BBox
    scale: float
    dest_x: float
    dest_y: float

    def __post_init__(self) -> None:
        # Remapping divides by the scale and compares against the destination
        # box, so both must be usable numbers (a NaN fails the test too).
        if not (math.isfinite(self.scale) and self.scale > 0
                and math.isfinite(self.dest_x) and math.isfinite(self.dest_y)):
            raise ValueError(
                f"placement needs a positive finite scale and a finite origin, "
                f"got scale {self.scale} at ({self.dest_x},{self.dest_y})"
            )

    @property
    def width(self) -> float:
        return self.scale * self.source.width

    @property
    def height(self) -> float:
        return self.scale * self.source.height


@dataclass
class MosaicLayout:
    mosaic_width: float
    mosaic_height: float
    placements: list[Placement]


def equalize(regions: RegionSet, fixed_size: float) -> list[float]:
    """Enlarge small regions so the average region scale reaches fixed_size.

    Returns one scale factor (>= 1) per region. Region scale is sqrt(area).
    When the mean scale falls short of fixed_size, every region smaller than
    fixed_size grows by the common factor fixed_size / mean; all other
    regions keep scale 1.
    """
    if not 0 < fixed_size <= _FLOAT_MAX:  # written so that a NaN fails the test too
        raise ValueError(f"fixed_size must be {'finite' if fixed_size > 0 else 'positive'}, "
                         f"got {fixed_size}")
    if not regions.regions:
        return []
    scales = [math.sqrt(area(r)) for r in regions.regions]
    mean_scale = sum(scales) / len(scales)
    if mean_scale >= fixed_size or mean_scale == 0:
        return [1.0] * len(scales)
    factor = fixed_size / mean_scale
    return [factor if s < fixed_size else 1.0 for s in scales]


def pack(
    scaled: Sequence[tuple[BBox, float]], target_width: float, padding: float = 2.0
) -> MosaicLayout:
    """Shelf-pack (source box, scale) pairs into a strip of the given width."""
    # Written so that a NaN fails each test too; an infinite width fails the first.
    if not (math.isfinite(target_width) and target_width > 0):
        raise ValueError(f"target_width must be positive, got {target_width}")
    if not padding >= 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    widths = [scale * source.width for source, scale in scaled]
    heights = [scale * source.height for source, scale in scaled]
    for i, (source, scale) in enumerate(scaled):
        if widths[i] > target_width - 2 * padding:
            raise UnpackableRegionError(
                f"region {i} (source {source}, scale {scale}) is "
                f"{widths[i]:g} px wide; strip allows "
                f"{target_width - 2 * padding:g}"
            )

    placements = [None] * len(scaled)
    shelf_y = shelf_height = cursor_x = 0.0
    for i in sorted(range(len(scaled)), key=lambda i: (-heights[i], i)):
        source, scale = scaled[i]
        if cursor_x != 0.0 and cursor_x + widths[i] > target_width:
            shelf_y += shelf_height + padding
            cursor_x = 0.0
        if cursor_x == 0.0:
            shelf_height = heights[i]  # height-sorted order: first item on a shelf is tallest
        placements[i] = Placement(source, scale, cursor_x, shelf_y)
        cursor_x += widths[i] + padding
    return MosaicLayout(target_width, shelf_y + shelf_height, placements)


def waste_ratio(layout: MosaicLayout) -> float:
    """Mosaic area divided by the summed placed-rectangle area (>= 1)."""
    placed = sum(p.width * p.height for p in layout.placements)
    if not placed:
        raise ValueError("waste_ratio is undefined for an empty layout")
    return (layout.mosaic_width * layout.mosaic_height) / placed
