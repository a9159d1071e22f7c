"""Foreground packing pipeline and multi-proxy scoring core."""

from .config import PipelineConfig
from .geometry import BBox, ImageExtent
from .mosaic import MosaicLayout
from .regions import RegionSet
from .remap import Detection

__all__ = [
    "BBox",
    "Detection",
    "ImageExtent",
    "MosaicLayout",
    "PipelineConfig",
    "RegionSet",
]
