"""End-to-end glue: coarse detections -> merged regions -> equalized mosaic.

Also computes the mosaic-side statistics used to evaluate how packing shifts
foreground coverage and object size distribution.
"""
from __future__ import annotations

from typing import Sequence

from .config import PipelineConfig
from .geometry import BBox, ImageExtent, corners
from .metrics import SizeStats, size_stats
from .mosaic import MosaicLayout, equalize, pack
from .regions import RegionSet, expand_and_merge
from .remap import Detection, to_mosaic


def build_layout(
    detections: Sequence[Detection], extent: ImageExtent, config: PipelineConfig
) -> tuple[RegionSet, MosaicLayout]:
    """Expand, merge, equalize and pack coarse detections into one mosaic."""
    regions = expand_and_merge(corners(d.box for d in detections), config.beta, extent)
    scales = equalize(regions, config.fixed_size)
    layout = pack(list(zip(regions.regions, scales)), config.mosaic_width, config.padding)
    return regions, layout


def mosaic_stats(gt_boxes: Sequence[BBox], layout: MosaicLayout) -> SizeStats:
    """Foreground ratio and size buckets of ground-truth boxes inside the mosaic.

    Boxes whose center lies in no placement (missed by the coarse stage) do
    not appear in the mosaic and are excluded.
    """
    mapped = [m for b in gt_boxes if (m := to_mosaic(b, layout)) is not None]
    return size_stats(mapped, layout.mosaic_width, layout.mosaic_height)
