"""Greedy merging of coarse foreground boxes into cluster regions.

Starting from the smallest remaining box, a box B is absorbed whenever the
smallest box enclosing both covers no more area than the two boxes combined
(|A| + |B| >= |C|). The scan over remaining boxes repeats until a full pass
absorbs nothing, since each absorption grows A and may newly qualify boxes
that failed earlier.

The boxes are held as an (n, 4) coordinate array with an alive mask. One
scan step finds the first alive box after the cursor that qualifies against
the current region, so absorptions happen in the same order as a box-by-box
scan. The region itself grows through ``enclosing`` on the input boxes, which
keeps each coordinate's value and type exactly as the input gave it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BBox, ImageExtent, area, enclosing, expand


@dataclass
class RegionSet:
    regions: list[BBox] = field(default_factory=list)
    # For each region, the input indices of the boxes it absorbed, in
    # absorption order (seed box first).
    provenance: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.regions)


def _first_absorbable(
    coords: np.ndarray, areas: np.ndarray, alive: np.ndarray, region: BBox, cursor: int
) -> int:
    """Index of the first alive box at or after cursor that the region absorbs, or -1."""
    c = coords[cursor:]
    grown = (np.maximum(c[:, 2], region.x2) - np.minimum(c[:, 0], region.x1)) * (
        np.maximum(c[:, 3], region.y2) - np.minimum(c[:, 1], region.y1)
    )
    ok = alive[cursor:] & (area(region) + areas[cursor:] >= grown)
    return cursor + int(ok.argmax()) if ok.any() else -1


def merge(candidates: Sequence[BBox]) -> RegionSet:
    """Merge boxes into cluster regions; deterministic given input order."""
    boxes = list(candidates)
    coords = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    alive = np.ones(len(boxes), dtype=bool)
    out = RegionSet()
    while alive.any():
        # Smallest-area box seeds the next region; ties go to the lowest
        # input index.
        left = np.flatnonzero(alive)
        seed = int(left[np.argmin(areas[left])])
        alive[seed] = False
        current, absorbed = boxes[seed], [seed]
        changed = True
        while changed:
            changed = False
            cursor = 0
            while (j := _first_absorbable(coords, areas, alive, current, cursor)) >= 0:
                alive[j] = False
                current = enclosing(current, boxes[j])
                absorbed.append(j)
                changed = True
                cursor = j + 1
        out.regions.append(current)
        out.provenance.append(absorbed)
    return out


def expand_and_merge(detections: Sequence[BBox], beta: float, extent: ImageExtent) -> RegionSet:
    """Expand every detection by beta, then merge."""
    return merge([expand(b, beta, extent) for b in detections])
