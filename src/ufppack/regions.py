"""Greedy merging of coarse foreground boxes into cluster regions.

The input is one float (n, 4) array of corners (x1, y1, x2, y2), a row per
coarse detection. ``expand_and_merge`` scales every row by beta about its
center and clamps it to the image; a detection wholly outside the image
clamps to a reversed row and is refused with ValueError, which names its
index and the image size.

Starting from the smallest remaining box, a box B is absorbed whenever the
smallest box enclosing both covers no more area than the two boxes combined
(|A| + |B| >= |C|), the test ``_absorbs`` spells once. The scan over
remaining boxes repeats until a full pass absorbs nothing, since each
absorption grows A. Seeds come from one stable sort of the areas. A table
over blocks of at most ``_BLOCK_PAIRS`` box pairs first records which boxes
some other box qualifies against alone; boxes only ever leave the alive set,
so a seed without such a partner closes as a one-box region with no scan.
For every other seed, one scan step finds the first alive box after the
cursor that qualifies against the current region, in a box-by-box scan's
order. The region grows as four floats. Overflow is quiet, as in ``remap.nms``:
an overflowed |A| + |B| is +inf, so a box is absorbed exactly when the exact
test would absorb it whenever |C| is finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import _FLOAT_MAX, BBox, ImageExtent, corners

_BLOCK_PAIRS = 1 << 16  # most box pairs one table of ``_has_partner`` holds


@dataclass
class RegionSet:
    regions: list[BBox] = field(default_factory=list)
    # Per region, the input indices it absorbed in absorption order, seed first.
    provenance: list[list[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.regions)


def _absorbs(x1, y1, x2, y2, area, coords: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """``area + areas >= grown`` for each row of ``coords``, grown being the area
    enclosing it and the region x1..y2; region operands are floats or, for one
    table row per region, column vectors."""
    grown = np.maximum(coords[:, 2], x2)
    grown -= np.minimum(coords[:, 0], x1)
    h = np.maximum(coords[:, 3], y2)
    h -= np.minimum(coords[:, 1], y1)
    grown *= h
    return area + areas >= grown


def _has_partner(coords: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """For each box, whether another box qualifies against it alone as the region."""
    n = len(coords)
    has = np.zeros(n, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    for start in range(0, n, rows):
        r = slice(start, start + rows)
        ok = _absorbs(*coords[r].T[..., None], areas[r, None], coords, areas)
        np.fill_diagonal(ok[:, start:], False)  # a box is no partner of itself
        has[r] = ok.any(axis=1)
    return has


@np.errstate(over="ignore", invalid="ignore")
def _merge(coords: np.ndarray) -> RegionSet:
    """Merge the rows of a float (n, 4) corner array; deterministic given row order."""
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    has = _has_partner(coords, areas)
    rows = coords.tolist()
    alive = np.ones(len(rows), dtype=bool)
    out = RegionSet()
    # Smallest-area box seeds the next region; ties go to the lowest input
    # index, and a NaN area (an overflowed side times 0) counts as smallest.
    for seed in np.argsort(np.where(np.isnan(areas), -np.inf, areas), kind="stable").tolist():
        if not alive[seed]:
            continue
        alive[seed] = False
        (x1, y1, x2, y2), absorbed = rows[seed], [seed]
        changed = bool(has[seed])
        while changed:
            changed, cursor = False, 0
            while (ok := alive[cursor:] & _absorbs(x1, y1, x2, y2, (x2 - x1) * (y2 - y1),
                                                   coords[cursor:], areas[cursor:])).any():
                j = cursor + int(ok.argmax())
                alive[j] = False
                a1, b1, a2, b2 = rows[j]
                x1, y1, x2, y2 = min(x1, a1), min(y1, b1), max(x2, a2), max(y2, b2)
                absorbed.append(j)
                changed = True
                cursor = j + 1
        out.regions.append(BBox(x1, y1, x2, y2))
        out.provenance.append(absorbed)
    return out


def merge(candidates: Sequence[BBox]) -> RegionSet:
    """Merge boxes into cluster regions; deterministic given input order."""
    return _merge(corners(candidates))


def expand_and_merge(boxes: np.ndarray, beta: float, extent: ImageExtent) -> RegionSet:
    """Scale the (x1, y1, x2, y2) rows of ``boxes`` by beta about their
    centers, clamp them to the image, then merge them."""
    if not 1.0 <= beta <= _FLOAT_MAX:  # written so that a NaN fails the test too
        raise ValueError(f"beta must be finite, got {beta}" if beta > 1.0
                         else f"expansion ratio must be >= 1, got {beta}")
    lo, hi = np.hsplit(np.asarray(boxes, dtype=float).reshape(-1, 4), 2)
    size = np.array([extent.width, extent.height], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # clamped or refused below
        center = 0.5 * (lo + hi)
        half = 0.5 * beta * (hi - lo)
        # np.maximum(0.0, -0.0) is -0.0 where max(0.0, -0.0) is 0.0; adding
        # 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
        coords = np.hstack([np.maximum(0.0, center - half) + 0.0,
                            np.minimum(size, center + half)])
    # Written so that a NaN fails the test too.
    inside = (coords[:, :2] <= coords[:, 2:]).all(axis=1)
    if not inside.all():
        raise ValueError(f"detection {int(inside.argmin())} lies outside the "
                         f"{extent.width:g}x{extent.height:g} image")
    return _merge(coords)
