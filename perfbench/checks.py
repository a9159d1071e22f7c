"""Correctness checks on each operation's outputs.

Each check returns a list of error strings; an empty list is a pass. The
checks use NumPy directly rather than the program's own helpers, so a bug
shared by the program and its helpers cannot hide itself.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Any, Sequence

import numpy as np

TOL = 1e-6
_CHUNK = 128  # rows per block in the pairwise checks, to keep memory flat


def _dest_boxes(layout: Any) -> np.ndarray:
    return np.array(
        [[p.dest_x, p.dest_y, p.dest_x + p.scale * p.source.width,
          p.dest_y + p.scale * p.source.height] for p in layout.placements],
        dtype=float,
    ).reshape(-1, 4)


def layout_errors(layout: Any, provenance: Sequence[Sequence[int]], n_inputs: int,
                  padding: float, strip_width: float) -> list[str]:
    """A mosaic as wide as the configured strip, placements inside it, scales
    >= 1, pairwise gaps >= padding, and merge provenance covering each input
    box exactly once."""
    errors: list[str] = []
    if abs(layout.mosaic_width - strip_width) > TOL:
        errors.append(f"mosaic width {layout.mosaic_width} is not the strip width {strip_width}")
    boxes = _dest_boxes(layout)
    scales = np.array([p.scale for p in layout.placements], dtype=float)
    if np.any(scales < 1.0):
        errors.append(f"{int(np.sum(scales < 1.0))} placements have scale < 1")
    outside = ((boxes[:, 0] < -TOL) | (boxes[:, 1] < -TOL)
               | (boxes[:, 2] > strip_width + TOL)
               | (boxes[:, 3] > layout.mosaic_height + TOL))
    if np.any(outside):
        errors.append(f"placements {np.flatnonzero(outside)[:5].tolist()} leave the strip")
    n = len(boxes)
    for lo in range(0, n, _CHUNK):
        a = boxes[lo:lo + _CHUNK, None, :]
        gap_x = np.maximum(boxes[None, :, 0] - a[..., 2], a[..., 0] - boxes[None, :, 2])
        gap_y = np.maximum(boxes[None, :, 1] - a[..., 3], a[..., 1] - boxes[None, :, 3])
        tight = np.maximum(gap_x, gap_y) < padding - TOL
        rows = np.arange(lo, lo + len(a))
        tight[np.arange(len(a)), rows] = False  # a placement against itself
        if np.any(tight):
            i, j = np.argwhere(tight)[0]
            errors.append(f"placements {lo + i} and {j} are closer than padding {padding}")
            break
    covered = sorted(i for prov in provenance for i in prov)
    if covered != list(range(n_inputs)):
        errors.append(f"merge provenance covers {len(covered)} entries, "
                      f"not each of {n_inputs} inputs once")
    return errors


def remap_errors(fine: Sequence[Any], mapped: Sequence[Any], layout: Any) -> list[str]:
    """Each fine detection maps into the source region of the first placement
    whose destination holds its centre, or to None when no placement does."""
    if len(fine) != len(mapped):
        return [f"{len(mapped)} remap results for {len(fine)} detections"]
    if not fine:
        return []
    boxes = _dest_boxes(layout)
    centres = np.array([d.box.center for d in fine], dtype=float).reshape(-1, 2)
    inside = ((boxes[None, :, 0] <= centres[:, None, 0]) & (centres[:, None, 0] <= boxes[None, :, 2])
              & (boxes[None, :, 1] <= centres[:, None, 1]) & (centres[:, None, 1] <= boxes[None, :, 3]))
    owned = inside.any(axis=1)
    owner = inside.argmax(axis=1)
    errors: list[str] = []
    for i, m in enumerate(mapped):
        if not owned[i]:
            if m is not None:
                errors.append(f"detection {i} lies in a gutter but was kept")
            continue
        if m is None:
            errors.append(f"detection {i} has an owner but was dropped")
            continue
        src = layout.placements[owner[i]].source
        b = m.box
        if not (src.x1 - TOL <= b.x1 and src.y1 - TOL <= b.y1
                and b.x2 <= src.x2 + TOL and b.y2 <= src.y2 + TOL):
            errors.append(f"remapped detection {i} leaves its owner's source region")
        if len(errors) >= 5:
            break
    return errors


def fused_errors(fused: Sequence[Any], coarse: Sequence[Any], remapped: Sequence[Any],
                 iou_threshold: float) -> list[str]:
    """The fused output is a sub-multiset of coarse + remapped, and no two kept
    detections of one category overlap by more than the NMS threshold."""
    extra = Counter(fused) - Counter(list(coarse) + list(remapped))
    errors = [f"{sum(extra.values())} fused detections are in neither input"] if extra else []
    for cat in sorted({d.category for d in fused}):
        b = np.array([[d.box.x1, d.box.y1, d.box.x2, d.box.y2]
                      for d in fused if d.category == cat], dtype=float)
        area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        for lo in range(0, len(b), _CHUNK):
            a = b[lo:lo + _CHUNK, None, :]
            iw = np.minimum(a[..., 2], b[None, :, 2]) - np.maximum(a[..., 0], b[None, :, 0])
            ih = np.minimum(a[..., 3], b[None, :, 3]) - np.maximum(a[..., 1], b[None, :, 1])
            inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
            union = area[lo:lo + _CHUNK, None] + area[None, :] - inter
            iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
            iou[np.arange(len(a)), np.arange(lo, lo + len(a))] = 0.0
            if np.any(iou > iou_threshold + TOL):
                errors.append(f"category {cat}: kept detections overlap above IoU {iou_threshold}")
                break
    return errors


def record_errors(records: Sequence[dict[str, float]]) -> list[str]:
    """Every value of every training record is finite."""
    if not records:
        return ["train_sim returned no records"]
    bad = [i for i, r in enumerate(records) if not all(math.isfinite(v) for v in r.values())]
    return [f"records {bad[:5]} hold non-finite values"] if bad else []
