"""Foreground-ratio and size-bucket statistics, plus a synthetic scene generator.

The generator produces VisDrone-like ground truth: a configurable mixture of
small / medium / large objects placed sparsely so the union coverage lands
near a target foreground ratio, together with jittered "coarse detections"
emulating an imperfect first-stage detector.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BBox, ImageExtent, area
from .remap import Detection

SMALL_MAX_AREA = 32.0 * 32.0
MEDIUM_MAX_AREA = 96.0 * 96.0


class InfeasibleSpecError(ValueError):
    """The requested foreground ratio cannot be met at the given counts."""


def union_area(boxes: Sequence[BBox]) -> float:
    """Exact area of the union, by x-sweep slab decomposition."""
    boxes = [b for b in boxes if area(b) > 0]
    if not boxes:
        return 0.0
    xs = sorted({b.x1 for b in boxes} | {b.x2 for b in boxes})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            continue
        spans = sorted(
            (b.y1, b.y2) for b in boxes if b.x1 <= x0 and b.x2 >= x1
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return total


def foreground_ratio(boxes: Sequence[BBox], extent: ImageExtent) -> float:
    """Union area of the boxes divided by the image area."""
    return union_area(boxes) / (extent.width * extent.height)


@dataclass
class SizeStats:
    fr: float
    small: float
    medium: float
    large: float
    empty: bool = False


def size_buckets(boxes: Sequence[BBox]) -> SizeStats:
    """COCO-style size proportions by box area."""
    if not boxes:
        return SizeStats(fr=0.0, small=0.0, medium=0.0, large=0.0, empty=True)
    counts = [0, 0, 0]
    for b in boxes:
        a = area(b)
        if a < SMALL_MAX_AREA:
            counts[0] += 1
        elif a < MEDIUM_MAX_AREA:
            counts[1] += 1
        else:
            counts[2] += 1
    n = len(boxes)
    return SizeStats(fr=0.0, small=counts[0] / n, medium=counts[1] / n, large=counts[2] / n)


def scene_stats(boxes: Sequence[BBox], extent: ImageExtent) -> SizeStats:
    stats = size_buckets(boxes)
    stats.fr = foreground_ratio(boxes, extent)
    return stats


@dataclass
class SceneSpec:
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
        if abs(sum(self.proportions) - 1.0) > 1e-6:
            raise ValueError(f"proportions must sum to 1, got {self.proportions}")
        if self.n_objects < 0:
            raise ValueError("n_objects must be nonnegative")
        if not 0.0 <= self.target_fr < 1.0:
            raise ValueError(f"target_fr must be in [0,1), got {self.target_fr}")


# Per-bucket side ranges used by the generator. Kept narrow at the small end
# so equalization has headroom to lift objects across the 32px threshold.
_SIDE_RANGES = ((16.0, 30.0), (34.0, 70.0), (98.0, 150.0))


def generate_scene(spec: SceneSpec) -> tuple[list[BBox], list[Detection]]:
    """Seeded synthetic scene: ground-truth boxes plus jittered coarse detections."""
    rng = np.random.default_rng(spec.seed)
    if spec.n_objects == 0:
        return [], []
    buckets = rng.choice(3, size=spec.n_objects, p=np.asarray(spec.proportions))
    sides = np.array([rng.uniform(*_SIDE_RANGES[b]) for b in buckets])
    aspects = rng.uniform(0.7, 1.4, size=spec.n_objects)
    widths = sides * np.sqrt(aspects)
    heights = sides / np.sqrt(aspects)

    # Rescale areas toward the target coverage, clamping sides to their
    # bucket ranges so the size mix survives the adjustment.
    img_area = spec.extent.width * spec.extent.height
    target_area = spec.target_fr * img_area
    for _ in range(8):
        cur = float(np.sum(widths * heights))
        if cur <= 0:
            break
        ratio = np.sqrt(target_area / cur)
        sides = np.array(
            [np.clip(s * ratio, *_SIDE_RANGES[b]) for s, b in zip(sides, buckets)]
        )
        widths = sides * np.sqrt(aspects)
        heights = sides / np.sqrt(aspects)
        if abs(np.sum(widths * heights) - target_area) / target_area < 0.02:
            break
    achieved = float(np.sum(widths * heights)) / img_area
    if abs(achieved - spec.target_fr) > 0.05 + 0.5 * spec.target_fr:
        raise InfeasibleSpecError(
            f"cannot reach foreground ratio {spec.target_fr} with "
            f"{spec.n_objects} objects of the requested sizes (got {achieved:.3f})"
        )

    gt: list[BBox] = []
    for w, h in zip(widths, heights):
        placed = None
        for _ in range(50):
            x = rng.uniform(0, spec.extent.width - w)
            y = rng.uniform(0, spec.extent.height - h)
            cand = BBox(x, y, x + w, y + h)
            overlap = sum(
                _inter_area(cand, b) for b in gt if _inter_area(cand, b) > 0
            )
            if overlap <= 0.1 * area(cand):
                placed = cand
                break
        gt.append(placed if placed is not None else cand)

    coarse: list[Detection] = []
    for i, b in enumerate(gt):
        if rng.uniform() < spec.drop_rate:
            continue
        w, h = b.width, b.height
        cx, cy = b.center
        cx += rng.normal(0, spec.center_jitter) * w
        cy += rng.normal(0, spec.center_jitter) * h
        w *= max(0.5, 1.0 + rng.normal(0, spec.scale_jitter))
        h *= max(0.5, 1.0 + rng.normal(0, spec.scale_jitter))
        x1 = min(max(cx - w / 2, 0.0), spec.extent.width)
        y1 = min(max(cy - h / 2, 0.0), spec.extent.height)
        x2 = min(max(cx + w / 2, x1), spec.extent.width)
        y2 = min(max(cy + h / 2, y1), spec.extent.height)
        score = float(np.clip(rng.uniform(0.5, 1.0), 0.0, 1.0))
        coarse.append(Detection(BBox(x1, y1, x2, y2), score, 0))
    return gt, coarse


def _inter_area(a: BBox, b: BBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    return iw * ih if iw > 0 and ih > 0 else 0.0
