from __future__ import annotations

import math
import re

import numpy as np
import pytest

from oracles import dest_box, pack_ref
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox, area, corners
from ufppack.metrics import SceneSpec, generate_scene
from ufppack.mosaic import (
    MosaicLayout,
    UnpackableRegionError,
    equalize,
    pack,
    waste_ratio,
)
from ufppack.regions import RegionSet, expand_and_merge


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

    @pytest.mark.parametrize("fixed_size", [0.0, -1.0, float("nan")])
    def test_nonpositive_fixed_size_rejected(self, fixed_size):
        with pytest.raises(ValueError, match=r"^fixed_size must be positive, got "):
            equalize(_region_set([(10, 10)]), fixed_size)

    def test_infinite_fixed_size_rejected(self):
        with pytest.raises(ValueError, match=r"^fixed_size must be finite, got inf$"):
            equalize(_region_set([(4, 4)]), math.inf)

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

    @pytest.mark.parametrize("target_width", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_target_width_rejected(self, target_width):
        with pytest.raises(ValueError, match=r"^target_width must be positive, got "):
            pack([(BBox(0, 0, 5, 5), 1.0)], target_width)

    @pytest.mark.parametrize("padding", [-0.5, float("nan")])
    def test_bad_padding_rejected(self, padding):
        with pytest.raises(ValueError, match=r"^padding must be nonnegative, got "):
            pack([(BBox(0, 0, 5, 5), 1.0)], 100, padding=padding)

    def test_first_too_wide_region_named(self):
        scaled = [(BBox(0, 0, 5, 5), 1.0), (BBox(0, 0, 60, 5), 2.0), (BBox(0, 0, 200, 5), 1.0)]
        with pytest.raises(UnpackableRegionError) as want:
            pack_ref(scaled, 100, padding=0.5)
        with pytest.raises(UnpackableRegionError, match=f"^{re.escape(str(want.value))}$"):
            pack(scaled, 100, padding=0.5)
        assert str(want.value).startswith("region 1 ")

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        scaled = [
            (BBox(0, 0, rng.uniform(5, 60), rng.uniform(5, 60)), 1.0)
            for _ in range(30)
        ]
        a = pack(scaled, 200)
        b = pack(scaled, 200)
        assert a == b


def _random_scaled(rng, n):
    """Regions drawn half from a few sides, zero among them (ties in height,
    zero-width and zero-height regions), half from a continuous range."""
    sides = np.where(rng.random((n, 2)) < 0.5,
                     rng.choice([0.0, 4.0, 10.5, 25.0], size=(n, 2)),
                     rng.uniform(0, 40, size=(n, 2)))
    scales = rng.choice([1.0, 1.5, float(rng.uniform(1.0, 3.0))], size=n)
    return [(BBox(0, 0, float(w), float(h)), float(s))
            for (w, h), s in zip(sides.tolist(), scales.tolist())]


class TestPackMatchesReference:
    @pytest.mark.parametrize("padding", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_regions(self, seed, padding):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            scaled = _random_scaled(rng, int(rng.integers(0, 30)))
            widest = max((s * b.width for b, s in scaled), default=0.0)
            width = max(widest + 2 * padding + float(rng.choice([0.0, rng.uniform(0, 150)])), 1.0)
            while widest > width - 2 * padding:  # the sum rounded below the widest region
                width = math.nextafter(width, math.inf)
            assert pack(scaled, width, padding) == pack_ref(scaled, width, padding)

    def test_zero_width_regions_on_one_shelf(self):
        # With no padding, zero-width regions leave the cursor at the left
        # edge, so each of them sets the shelf height in turn.
        scaled = [(BBox(0, 0, 0, 30), 1.0), (BBox(0, 0, 0, 20), 1.0),
                  (BBox(0, 0, 10, 10), 1.0), (BBox(0, 0, 10, 0), 1.0)]
        for padding in (0.0, 0.5):
            assert pack(scaled, 12, padding) == pack_ref(scaled, 12, padding)

    @pytest.mark.parametrize("spec", [SceneSpec(seed=7),
                                      SceneSpec(seed=7, n_objects=1000, target_fr=0.3)])
    def test_scene_regions(self, spec):
        config = PipelineConfig()
        _, coarse = generate_scene(spec)
        regions = expand_and_merge(corners(d.box for d in coarse), config.beta, spec.extent)
        scaled = list(zip(regions.regions, equalize(regions, config.fixed_size)))
        assert (pack(scaled, config.mosaic_width, config.padding)
                == pack_ref(scaled, config.mosaic_width, config.padding))


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

    def test_zero_area_layout_rejected_as_empty(self):
        with pytest.raises(ValueError, match=r"^waste_ratio is undefined for an empty layout$"):
            waste_ratio(pack([(BBox(0, 0, 0, 5), 1.0)], 10))
