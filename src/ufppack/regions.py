"""Greedy merging of coarse foreground boxes into cluster regions.

Starting from the smallest remaining box, a box B is absorbed whenever the
smallest box enclosing both covers no more area than the two boxes combined
(|A| + |B| >= |C|). The scan over remaining boxes repeats until a full pass
absorbs nothing, since each absorption grows A and may newly qualify boxes
that failed earlier.

The boxes are held as an (n, 4) coordinate array with an alive mask. Seeds
come from one stable sort of the areas. Before any seed, a table over blocks
of at most ``_BLOCK_PAIRS`` box pairs records for each box whether any other
box qualifies against it alone. Boxes only ever leave the alive set, so a
seed that no box qualifies against closes as a one-box region without a
scan. Every other seed runs the scan: one scan step finds the first alive box
after the cursor that qualifies against the current region, so absorptions
happen in the same order as a box-by-box scan. The region itself grows
through ``enclosing`` on the input boxes, which keeps each coordinate's value
and type exactly as the input gave it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BBox, ImageExtent, area, enclosing, expand

_BLOCK_PAIRS = 1 << 16  # most box pairs one table of ``_has_partner`` holds


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


def _has_partner(coords: np.ndarray, areas: np.ndarray, own: np.ndarray) -> np.ndarray:
    """For each box i, whether any other box j qualifies against box i alone.

    ``own`` holds each box's ``area`` as the region term, so every pair takes
    ``_first_absorbable``'s arithmetic with box i as the region.
    """
    n = len(coords)
    x1, y1, x2, y2 = coords.T
    has = np.zeros(n, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    for start in range(0, n, rows):
        r = slice(start, start + rows)
        # The grown area (max x2 - min x1) * (max y2 - min y1), in place.
        grown = np.maximum(x2, x2[r, None])
        grown -= np.minimum(x1, x1[r, None])
        h = np.maximum(y2, y2[r, None])
        h -= np.minimum(y1, y1[r, None])
        grown *= h
        ok = own[r, None] + areas >= grown
        np.fill_diagonal(ok[:, start:], False)  # a box is no partner of itself
        has[r] = ok.any(axis=1)
    return has


def merge(candidates: Sequence[BBox]) -> RegionSet:
    """Merge boxes into cluster regions; deterministic given input order."""
    boxes = list(candidates)
    coords = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    has = _has_partner(coords, areas, np.array([area(b) for b in boxes], dtype=float))
    alive = np.ones(len(boxes), dtype=bool)
    out = RegionSet()
    # Smallest-area box seeds the next region; ties go to the lowest input
    # index, and a NaN area (an overflowed side times 0) counts as smallest.
    for seed in np.argsort(np.where(np.isnan(areas), -np.inf, areas), kind="stable").tolist():
        if not alive[seed]:
            continue
        alive[seed] = False
        current, absorbed = boxes[seed], [seed]
        changed = bool(has[seed])
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
