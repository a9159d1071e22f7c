"""Coordinate transfer between mosaic and source image, plus detection fusion.

A box is owned by the first placement in layout order whose box contains its
center, edges included; boxes straddling a seam are clipped to their owner.
Detections landing in the gutter between placements map to nothing and are
dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import BBox, corners
from .mosaic import MosaicLayout

_BLOCK_PAIRS = 1 << 16  # most detection pairs one IoU table of ``nms`` holds


@dataclass(frozen=True)
class Detection:
    box: BBox
    score: float
    category: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {self.score}")
        if self.category < 0:
            raise ValueError(f"category must be nonnegative, got {self.category}")


def to_source(det: Detection, layout: MosaicLayout) -> Optional[Detection]:
    """Map a mosaic-coordinate detection back to source-image coordinates.

    Returns None when the detection center falls in the gutter (no owning
    placement). The mapped box is clipped to the owner's source region.
    """
    cx, cy = det.box.center
    for p in layout.placements:  # the bounds of each placement's scaled box
        src = p.source
        if (p.dest_x <= cx <= p.dest_x + p.scale * (src.x2 - src.x1)
                and p.dest_y <= cy <= p.dest_y + p.scale * (src.y2 - src.y1)):
            break
    else:
        return None
    x1 = (det.box.x1 - p.dest_x) / p.scale + src.x1
    y1 = (det.box.y1 - p.dest_y) / p.scale + src.y1
    x2 = (det.box.x2 - p.dest_x) / p.scale + src.x1
    y2 = (det.box.y2 - p.dest_y) / p.scale + src.y1
    box = BBox(
        min(max(x1, src.x1), src.x2),
        min(max(y1, src.y1), src.y2),
        min(max(x2, src.x1), src.x2),
        min(max(y2, src.y1), src.y2),
    )
    return Detection(box, det.score, det.category)


def to_mosaic(box: BBox, layout: MosaicLayout) -> Optional[BBox]:
    """Forward-map a source-image box into mosaic coordinates.

    Ownership is by box center; returns None when the center lies inside no
    placement's source region.
    """
    cx, cy = box.center
    for p in layout.placements:
        src = p.source
        if src.x1 <= cx <= src.x2 and src.y1 <= cy <= src.y2:
            break
    else:
        return None
    return BBox(
        (box.x1 - src.x1) * p.scale + p.dest_x,
        (box.y1 - src.y1) * p.scale + p.dest_y,
        (box.x2 - src.x1) * p.scale + p.dest_x,
        (box.y2 - src.y1) * p.scale + p.dest_y,
    )


@np.errstate(over="ignore", invalid="ignore")
def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Per-category greedy NMS by descending score, deterministic tie-breaks.

    Detections are visited in (-score, category, input index) order. Each one
    that survives is kept and suppresses every later detection of its category
    whose IoU with it exceeds the threshold, so a detection is kept exactly
    when its IoU with every kept one of its category is <= the threshold. The
    IoU is intersection over union, 0 for disjoint boxes or a zero union.

    The sorted rows are taken in blocks of at most ``_BLOCK_PAIRS`` pairs: a
    block's rows not yet suppressed against every row from the block's start
    on. One table holds each pair's intersection width. Only a later row of
    the same category at a positive width can be a hit at a threshold >= 0,
    and only such pairs go on to the rest of the IoU, with the arithmetic of
    one row against its tail. The greedy walk through the block then marks
    each kept row's hits suppressed. ``iou_threshold`` must be in [0, 1].

    Overflow raises no warning, and a pair whose union is not finite is no
    hit: an infinite union gives IoU 0, an infinite intersection a NaN union.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    order = sorted(
        range(len(dets)), key=lambda i: (-dets[i].score, dets[i].category, i)
    )
    x1, y1, x2, y2 = corners(dets[i].box for i in order).T
    areas = (x2 - x1) * (y2 - y1)
    # Categories as small codes, so any int category fits the array.
    codes: dict[int, int] = {}
    cats = np.array([codes.setdefault(dets[i].category, len(codes)) for i in order])
    n = len(order)
    suppressed = np.zeros(n, dtype=bool)
    keep: list[Detection] = []
    start = 0
    while start < n:
        stop = start + max(1, _BLOCK_PAIRS // (n - start))
        rows = start + np.flatnonzero(~suppressed[start:stop])
        r, t = rows[:, None], slice(start, None)
        iw = np.minimum(x2[t], x2[r]) - np.maximum(x1[t], x1[r])
        # A pair with iw <= 0 or of two categories has no hit (its IoU is 0
        # and the threshold is >= 0), and a row suppresses only later rows,
        # so only the rest go on to the IoU.
        pr, pc = np.divmod(np.flatnonzero(iw > 0), n - start)
        live = (start + pc > rows[pr]) & (cats[start + pc] == cats[rows[pr]])
        pr, pc = pr[live], pc[live]
        iw, i, j = iw[pr, pc], rows[pr], start + pc
        ih = np.minimum(y2[j], y2[i]) - np.maximum(y1[j], y1[i])
        inter = iw * ih
        union = areas[i] + areas[j] - inter
        overlap = (ih > 0) & (union > 0)
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=overlap)
        hit = ~(iou <= iou_threshold)
        # Hits sorted by table row: row k's run is cols[bounds[k]:bounds[k + 1]].
        cols = j[hit]
        bounds = np.searchsorted(pr[hit], np.arange(len(rows) + 1)).tolist()
        for k, row in enumerate(rows.tolist()):
            if not suppressed[row]:
                keep.append(dets[order[row]])
                if bounds[k] < bounds[k + 1]:
                    suppressed[cols[bounds[k]:bounds[k + 1]]] = True
        start = stop
    return keep


def fuse(coarse: Sequence[Detection], fine: Sequence[Detection],
         iou_threshold: float) -> list[Detection]:
    """Concatenate coarse and fine detections and run per-category NMS;
    ``iou_threshold`` must be in [0, 1]."""
    return nms(list(coarse) + list(fine), iou_threshold)
