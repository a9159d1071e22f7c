"""Foreground-ratio and size-bucket statistics, plus a synthetic scene generator.

The generator produces VisDrone-like ground truth: a configurable mixture of
small / medium / large objects placed sparsely so the union coverage lands
near a target foreground ratio, together with jittered "coarse detections"
emulating an imperfect first-stage detector. It draws and rescales the sides
on arrays and tests each placement attempt only against the placed boxes in
the cells of a uniform grid that it meets, so placement time grows linearly
with the number of objects at a given box density. Only the attempt loop and
the jitter loop, whose random draws depend on what was accepted, run in
Python.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Sequence

import numpy as np

from .config import DictConfig
from .geometry import BBox, ImageExtent, corners
from .remap import Detection

SMALL_MAX_AREA = 32.0 * 32.0
MEDIUM_MAX_AREA = 96.0 * 96.0


class InfeasibleSpecError(ValueError):
    """The requested foreground ratio cannot be met at the given counts."""


def union_area(boxes: np.ndarray) -> float:
    """Exact area of the union of a float (n, 4) array of (x1, y1, x2, y2)
    rows, by x-sweep slab decomposition."""
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = boxes[(boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]) > 0]
    boxes = boxes[np.lexsort((boxes[:, 3], boxes[:, 1]))]
    x1s, x2s, spans = boxes[:, 0], boxes[:, 2], boxes[:, 1::2]
    xs = sorted(set(boxes[:, ::2].ravel().tolist()))  # np.unique would import numpy.ma
    total = 0.0
    for left, right in zip(xs, xs[1:]):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in spans[(x1s <= left) & (x2s >= right)].tolist():
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += (right - left) * covered
    return total


def foreground_ratio(boxes: Sequence[BBox], extent: ImageExtent) -> float:
    """Union area of the boxes, clipped to the image, divided by the image area."""
    return size_stats(boxes, extent.width, extent.height).fr


@dataclass
class SizeStats:
    fr: float
    small: float
    medium: float
    large: float


def size_stats(boxes: Sequence[BBox], width: float, height: float) -> SizeStats:
    """Foreground ratio of the boxes clipped to a width x height image, and
    COCO-style size proportions by each box's own area; all zeros when there
    are no boxes or no area."""
    if not boxes or width * height <= 0:
        return SizeStats(fr=0.0, small=0.0, medium=0.0, large=0.0)
    c = corners(boxes)
    with np.errstate(over="ignore"):  # an overflowed area is +inf, still large
        areas = (c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1])
    counts = np.bincount(np.digitize(areas, (SMALL_MAX_AREA, MEDIUM_MAX_AREA)), minlength=3)
    small, medium, large = (counts / len(boxes)).tolist()
    inside = np.clip(c, 0.0, [width, height, width, height])
    return SizeStats(union_area(inside) / (width * height), small, medium, large)


def scene_stats(boxes: Sequence[BBox], extent: ImageExtent) -> SizeStats:
    return size_stats(boxes, extent.width, extent.height)


@dataclass
class SceneSpec(DictConfig):
    extent: ImageExtent = field(default_factory=lambda: ImageExtent(2000, 1500))
    n_objects: int = 180
    proportions: tuple[float, float, float] = (0.6856, 0.2868, 0.0276)
    target_fr: float = 0.10
    seed: int = 0
    # coarse-detector imperfection model
    center_jitter: float = 0.05  # fraction of box side
    scale_jitter: float = 0.05
    drop_rate: float = 0.03

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.proportions) < 0:
            raise ValueError(f"proportions must be nonnegative, got {self.proportions}")
        if abs(sum(self.proportions) - 1.0) > 1e-6:
            raise ValueError(f"proportions must sum to 1, got {self.proportions}")
        if self.n_objects < 0:
            raise ValueError("n_objects must be nonnegative")
        self._check_counts(("n_objects",))
        if not 0.0 <= self.target_fr < 1.0:
            raise ValueError(f"target_fr must be in [0,1), got {self.target_fr}")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0,1], got {self.drop_rate}")
        for name in ("seed", "center_jitter", "scale_jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


# Per-bucket side ranges used by the generator, one (low, high) row per size
# bucket. Kept narrow at the small end so equalization has headroom to lift
# objects across the 32px threshold.
_SIDE_RANGES = np.array([(16.0, 30.0), (34.0, 70.0), (98.0, 150.0)])


def generate_scene(spec: SceneSpec) -> tuple[list[BBox], list[Detection]]:
    """Seeded synthetic scene: ground-truth boxes plus jittered coarse detections.

    The scalar draws of the attempt and jitter loops (origins, drops and
    scores) go through one bound ``rng.random``, each spelled as NumPy's
    ``uniform`` computes it, so the stream and the doubles are those of
    ``rng.uniform``.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.n_objects == 0:
        return [], []
    buckets = rng.choice(3, size=spec.n_objects, p=np.asarray(spec.proportions))
    lo, hi = _SIDE_RANGES[buckets].T
    sides = rng.uniform(lo, hi)
    root_aspects = np.sqrt(rng.uniform(0.7, 1.4, size=spec.n_objects))
    widths, heights = sides * root_aspects, sides / root_aspects

    # Rescale areas toward the target coverage, clamping sides to their
    # bucket ranges so the size mix survives the adjustment.
    width, height = spec.extent.width, spec.extent.height
    target_area = spec.target_fr * (width * height)
    for _ in range(8):
        cur = float(np.sum(widths * heights))
        sides = np.clip(sides * np.sqrt(target_area / cur), lo, hi)
        widths, heights = sides * root_aspects, sides / root_aspects
        if target_area > 0 and abs(np.sum(widths * heights) - target_area) / target_area < 0.02:
            break
    achieved = float(np.sum(widths * heights)) / (width * height)
    if abs(achieved - spec.target_fr) > 0.05 + 0.5 * spec.target_fr:
        raise InfeasibleSpecError(
            f"cannot reach foreground ratio {spec.target_fr} with "
            f"{spec.n_objects} objects of the requested sizes (got {achieved:.3f})"
        )
    oversized = np.flatnonzero((widths > width) | (heights > height))
    if oversized.size:
        i = oversized[0]
        raise InfeasibleSpecError(
            f"object {i} is {widths[i]:.2f}x{heights[i]:.2f}, larger than "
            f"the {width:g}x{height:g} extent"
        )

    # Placed boxes are kept in a uniform grid whose cells are at least as
    # wide as the largest side, so a box meets at most 2x2 cells, and each
    # attempt is tested only against the boxes in the cells it meets (spatial
    # hashing, Teschner et al., VMV 2003). An attempt is accepted when its
    # summed overlap with them is at most a tenth of its area; after 50
    # rejections the last one stays. The overlaps are added with Python floats
    # in placement order: builtin sum would compensate exact floats on 3.12+.
    # NumPy's scalar uniform(lo, hi) is lo + (hi - lo) * random(), and 0.0 + v
    # is v for v >= 0, so drawing through the bound random() gives the same
    # doubles from the same stream at a third of the cost.
    draw = rng.random
    cell = float(max(widths.max(), heights.max()))
    grid: dict[tuple[int, int], list[int]] = {}
    gt: list[tuple[float, float, float, float]] = []
    for w, h in zip(widths.tolist(), heights.tolist()):
        for _ in range(50):
            x = (width - w) * draw()
            y = (height - h) * draw()
            x2, y2 = x + w, y + h
            keys = [(c, r) for c in range(int(x / cell), int(x2 / cell) + 1)
                    for r in range(int(y / cell), int(y2 / cell) + 1)]
            if len(keys) == 1:
                near = grid.get(keys[0], ())
            else:
                near = sorted({j for key in keys for j in grid.get(key, ())})
            overlap = 0.0
            for j in near:
                bx1, by1, bx2, by2 = gt[j]
                iw = (x2 if x2 < bx2 else bx2) - (x if x > bx1 else bx1)
                ih = (y2 if y2 < by2 else by2) - (y if y > by1 else by1)
                if iw > 0 and ih > 0:
                    overlap += iw * ih
            if overlap <= 0.1 * ((x2 - x) * (y2 - y)):
                break
        for key in keys:
            grid.setdefault(key, []).append(len(gt))
        gt.append((x, y, x2, y2))

    # rng.normal(0, s) is 0.0 + s * z for a standard normal z, so one draw of
    # four z per kept box leaves the stream as it was.
    cj, sj = spec.center_jitter, spec.scale_jitter
    coarse: list[Detection] = []
    for i, (x1, y1, x2, y2) in enumerate(gt):
        if draw() < spec.drop_rate:
            continue
        zx, zy, zw, zh = rng.standard_normal(4).tolist()
        w, h = x2 - x1, y2 - y1
        cx = 0.5 * (x1 + x2) + (0.0 + cj * zx) * w
        cy = 0.5 * (y1 + y2) + (0.0 + cj * zy) * h
        w *= max(0.5, 1.0 + (0.0 + sj * zw))
        h *= max(0.5, 1.0 + (0.0 + sj * zh))
        if not (isfinite(cx) and isfinite(cy) and isfinite(w) and isfinite(h)):
            raise InfeasibleSpecError(
                f"the coarse detection of object {i} overflows at center_jitter {cj} "
                f"and scale_jitter {sj}"
            )
        x1 = min(max(cx - w / 2, 0.0), width)
        y1 = min(max(cy - h / 2, 0.0), height)
        x2 = min(max(cx + w / 2, x1), width)
        y2 = min(max(cy + h / 2, y1), height)
        coarse.append(Detection(BBox(x1, y1, x2, y2), 0.5 + 0.5 * draw(), 0))
    return [BBox(*b) for b in gt], coarse
