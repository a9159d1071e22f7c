from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import dest_box
from ufppack.geometry import BBox, area
from ufppack.mosaic import (
    MosaicLayout,
    UnpackableRegionError,
    equalize,
    pack,
    waste_ratio,
)
from ufppack.regions import RegionSet


def _region_set(sizes):
    regions = [BBox(0, 0, w, h) for w, h in sizes]
    return RegionSet(regions=regions, provenance=[[i] for i in range(len(sizes))])


class TestEqualize:
    def test_all_large_untouched(self):
        out = equalize(_region_set([(100, 100), (200, 150)]), 96)
        assert out == [1.0, 1.0]

    def test_mixed_global_factor(self):
        out = equalize(_region_set([(48, 48), (128, 128)]), 96)
        mean = (48 + 128) / 2
        factor = 96 / mean
        assert out[0] == pytest.approx(factor)
        assert out[1] == 1.0
        assert out[0] * 48 == pytest.approx(48 * factor)

    def test_single_small_region(self):
        out = equalize(_region_set([(32, 32)]), 96)
        assert out[0] == pytest.approx(3.0)
        assert out[0] * 32 == pytest.approx(96.0)

    def test_empty(self):
        assert equalize(RegionSet(), 96) == []

    def test_qualifying_regions_grow_by_common_factor(self):
        rs = _region_set([(20, 20), (50, 50), (120, 120)])
        out = equalize(rs, 96)
        small_scales = {s for r, s in zip(rs.regions, out) if math.sqrt(area(r)) < 96}
        assert len(small_scales) == 1
        assert min(out) >= 1.0  # regions are only enlarged


class TestPack:
    def test_single_region(self):
        lay = pack([(BBox(0, 0, 50, 50), 1.0)], 120, padding=0.0)
        assert (lay.mosaic_width, lay.mosaic_height) == (120, 50)
        assert (lay.placements[0].dest_x, lay.placements[0].dest_y) == (0, 0)

    def test_two_on_one_shelf(self):
        lay = pack([(BBox(0, 0, 50, 50), 1.0)] * 2, 120, padding=0.0)
        assert [(p.dest_x, p.dest_y) for p in lay.placements] == [(0, 0), (50, 0)]
        assert lay.mosaic_height == 50

    def test_two_shelves(self):
        lay = pack(
            [(BBox(0, 0, 60, 80), 1.0), (BBox(0, 0, 60, 40), 1.0)],
            70,
            padding=0.0,
        )
        assert lay.mosaic_height == 120
        assert lay.placements[1].dest_y == 80

    def test_shelf_padding_between(self):
        lay = pack([(BBox(0, 0, 50, 50), 1.0)] * 2, 120, padding=2.0)
        assert lay.placements[1].dest_x == 52

    def test_too_wide_raises(self):
        with pytest.raises(UnpackableRegionError):
            pack([(BBox(0, 0, 130, 10), 1.0)], 120, padding=0.0)

    def test_empty(self):
        lay = pack([], 120)
        assert lay.placements == [] and lay.mosaic_height == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        scaled = [
            (BBox(0, 0, rng.uniform(5, 60), rng.uniform(5, 60)), 1.0)
            for _ in range(30)
        ]
        a = pack(scaled, 200)
        b = pack(scaled, 200)
        assert a == b


def _random_pack(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    scaled = [
        (
            BBox(0, 0, rng.uniform(4, 80), rng.uniform(4, 80)),
            float(rng.uniform(1.0, 2.0)),
        )
        for _ in range(n)
    ]
    total = sum((s * b.width) * (s * b.height) for b, s in scaled)
    width = max(1.3 * math.sqrt(total), max(s * b.width for b, s in scaled) + 5)
    return pack(scaled, width, padding=2.0)


def check_layout_sound(lay: MosaicLayout, tol: float = 1e-9) -> None:
    rects = [dest_box(p) for p in lay.placements]
    for r in rects:
        assert r.x1 >= -tol and r.y1 >= -tol
        assert r.x2 <= lay.mosaic_width + tol
        assert r.y2 <= lay.mosaic_height + tol
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            iw = min(a.x2, b.x2) - max(a.x1, b.x1)
            ih = min(a.y2, b.y2) - max(a.y1, b.y1)
            assert iw <= tol or ih <= tol, f"placements {i},{j} overlap"


class TestPackSoundness:
    @pytest.mark.parametrize("seed", range(50))
    def test_no_overlap_contained_bounded_waste(self, seed):
        lay = _random_pack(seed)
        check_layout_sound(lay)
        assert waste_ratio(lay) <= 3.0


class TestWasteRatio:
    def test_exact_fill(self):
        lay = pack([(BBox(0, 0, 120, 50), 1.0)], 120, padding=0.0)
        assert waste_ratio(lay) == pytest.approx(1.0)

    def test_two_square_example(self):
        lay = pack([(BBox(0, 0, 50, 50), 1.0)] * 2, 120, padding=0.0)
        assert waste_ratio(lay) == pytest.approx(1.2)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            waste_ratio(MosaicLayout(100, 0, []))
