from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bbox_strategy
from oracles import random_boxes, scene_reference, union_area_mc, union_area_ref
from ufppack.geometry import BBox, ImageExtent, area, corners
from ufppack.metrics import (
    InfeasibleSpecError,
    SceneSpec,
    foreground_ratio,
    generate_scene,
    scene_stats,
    size_stats,
    union_area,
)


class TestForegroundRatio:
    def test_single_box(self):
        fr = foreground_ratio([BBox(0, 0, 20, 20)], ImageExtent(100, 100))
        assert fr == pytest.approx(0.04)

    def test_duplicate_boxes_union(self):
        b = BBox(10, 10, 30, 30)
        one = foreground_ratio([b], ImageExtent(100, 100))
        two = foreground_ratio([b, b], ImageExtent(100, 100))
        assert one == two

    def test_disjoint_sum(self):
        boxes = [BBox(0, 0, 10, 10), BBox(50, 50, 60, 60)]
        assert foreground_ratio(boxes, ImageExtent(100, 100)) == pytest.approx(0.02)

    @given(st.lists(bbox_strategy(max_coord=100), max_size=8), bbox_strategy(max_coord=100))
    def test_monotone_under_addition(self, boxes, extra):
        ext = ImageExtent(100, 100)
        assert foreground_ratio(boxes + [extra], ext) >= foreground_ratio(boxes, ext) - 1e-9
        assert foreground_ratio(boxes + [extra], ext) <= 1.0 + 1e-12

    def test_clipped_to_the_image(self):
        ext = ImageExtent(100, 100)
        assert foreground_ratio([BBox(50, 50, 150, 150)], ext) == 0.25
        assert foreground_ratio([BBox(-1e300, -1e300, 1e300, 1e300)], ext) == 1.0
        assert foreground_ratio([BBox(100, 0, 150, 50), BBox(-20, -20, 0, 0)], ext) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        raw = random_boxes(rng, 12, (200, 150))
        exact = union_area(np.array(raw))
        approx = union_area_mc(raw, (200, 150), n=200_000, seed=seed)
        assert abs(exact - approx) / (200 * 150) < 0.005


def _grid_boxes(rng, n, extent):
    """Boxes with corners on a coarse grid that overhangs the frame by 10 px,
    so shared edges, duplicates and zero-width or zero-height boxes are
    common, plus a few on continuous corners."""
    w, h = extent
    x = rng.choice(np.linspace(-10, w + 10, 9), size=(n, 2))
    y = rng.choice(np.linspace(-10, h + 10, 7), size=(n, 2))
    grid = np.column_stack([x.min(1), y.min(1), x.max(1), y.max(1)])
    free = np.sort(rng.uniform(-10, [w + 10, h + 10], size=(n, 2, 2)), axis=1)
    rows = np.where(rng.random((n, 1)) < 0.8, grid, free.reshape(n, 4))
    return [BBox(*r) for r in rows.tolist()]


class TestUnionAreaMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_boxes(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            boxes = _grid_boxes(rng, int(rng.integers(0, 25)), (60.0, 45.5))
            boxes += boxes[:int(rng.integers(0, 3))]  # duplicates
            assert union_area(corners(boxes)) == union_area_ref(boxes)

    def test_edge_cases(self):
        cases = [
            [],
            [BBox(0, 0, 0, 5), BBox(1, 1, 4, 1), BBox(2, 2, 2, 2)],  # zero area only
            [BBox(0, 0, 2, 2), BBox(2, 0, 4, 2), BBox(0, 2, 4, 3)],  # shared edges
            [BBox(0.1, 0.2, 0.7, 0.3)] * 3,  # duplicates
            [BBox(-5, -5, 1e9, 3), BBox(-1e300, 0, 1e300, 1)],  # far past any frame
            [BBox(-1e300, 0, 1e300, 1e300), BBox(-1e308, 5, 1e308, 5)],  # areas inf and nan
        ]
        for boxes in cases:
            assert union_area(corners(boxes)) == union_area_ref(boxes)


class TestSizeStatsMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_boxes(self, seed):
        rng = np.random.default_rng(seed)
        width, height = 60.0, 45.5
        for _ in range(40):
            boxes = _grid_boxes(rng, int(rng.integers(1, 25)), (width, height))
            got = size_stats(boxes, width, height)
            inside = [BBox(min(max(b.x1, 0.0), width), min(max(b.y1, 0.0), height),
                           min(max(b.x2, 0.0), width), min(max(b.y2, 0.0), height))
                      for b in boxes]
            assert got.fr == union_area_ref(inside) / (width * height)
            areas = [area(b) for b in boxes]
            assert got.small == sum(a < 32 * 32 for a in areas) / len(boxes)
            assert got.medium == sum(32 * 32 <= a < 96 * 96 for a in areas) / len(boxes)
            assert got.large == sum(a >= 96 * 96 for a in areas) / len(boxes)

    def test_overflowed_area_is_large(self):
        st_ = size_stats([BBox(-1e300, -1e300, 1e300, 1e300)], 100, 100)
        assert (st_.fr, st_.small, st_.medium, st_.large) == (1.0, 0.0, 0.0, 1.0)


class TestSizeBuckets:
    def test_small(self):
        st_ = size_stats([BBox(0, 0, 16, 16)], 1000, 1000)
        assert st_.small == 1.0

    def test_medium(self):
        st_ = size_stats([BBox(0, 0, 64, 64)], 1000, 1000)
        assert st_.medium == 1.0

    def test_large(self):
        st_ = size_stats([BBox(0, 0, 128, 128)], 1000, 1000)
        assert st_.large == 1.0

    def test_boundaries(self):
        assert size_stats([BBox(0, 0, 32, 32)], 1000, 1000).medium == 1.0
        assert size_stats([BBox(0, 0, 96, 96)], 1000, 1000).large == 1.0

    def test_bucket_by_own_area_fr_by_clipped_area(self):
        # 10000 px of the box (large), 2500 of them inside the image.
        st_ = size_stats([BBox(50, 50, 150, 150)], 100, 100)
        assert (st_.fr, st_.small, st_.medium, st_.large) == (0.25, 0.0, 0.0, 1.0)

    def test_empty(self):
        st_ = size_stats([], 1000, 1000)
        assert (st_.fr, st_.small, st_.medium, st_.large) == (0.0, 0.0, 0.0, 0.0)

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(0)
        boxes = [BBox(*b) for b in random_boxes(rng, 40, (500, 500))]
        st_ = size_stats(boxes, 1000, 1000)
        assert st_.small + st_.medium + st_.large == pytest.approx(1.0)


class TestGenerateScene:
    def test_targets_hit(self):
        spec = SceneSpec(seed=3)
        gt, _ = generate_scene(spec)
        stats = scene_stats(gt, spec.extent)
        assert abs(stats.fr - spec.target_fr) < 0.02
        assert abs(stats.small - spec.proportions[0]) < 0.02

    def test_zero_objects(self):
        gt, coarse = generate_scene(SceneSpec(n_objects=0, seed=0))
        assert gt == [] and coarse == []

    def test_deterministic(self):
        a = generate_scene(SceneSpec(seed=11))
        b = generate_scene(SceneSpec(seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = generate_scene(SceneSpec(seed=1))
        b, _ = generate_scene(SceneSpec(seed=2))
        assert a != b

    @pytest.mark.parametrize("spec", [
        SceneSpec(seed=4),
        SceneSpec(seed=8, n_objects=300, target_fr=0.25),
        SceneSpec(seed=9, n_objects=20, target_fr=0.3, extent=ImageExtent(640, 480),
                  proportions=(0.2, 0.5, 0.3), center_jitter=0.2, scale_jitter=0.4,
                  drop_rate=0.3),
        SceneSpec(seed=10, n_objects=3, target_fr=0.2, extent=ImageExtent(150.5, 99.25),
                  proportions=(0.0, 1.0, 0.0)),
        # An attempt of this crowded scene overlaps 11 placed boxes, whose
        # sum rounds by the order in which they are added.
        pytest.param(SceneSpec(seed=2, n_objects=60, target_fr=0.4, extent=ImageExtent(400, 300)),
                     id="eleven-overlaps"),
        # Four boxes are kept after 50 rejections, and 22 of the 30 meet 2x2
        # cells of the placement grid.
        pytest.param(SceneSpec(seed=1, n_objects=30, target_fr=0.6, extent=ImageExtent(300, 200),
                               proportions=(0.0, 1.0, 0.0)),
                     id="kept-after-50-rejections"),
        # 8 of the 12 boxes meet 2x2 cells of a 4x4 grid.
        pytest.param(SceneSpec(seed=0, n_objects=12, target_fr=0.5, extent=ImageExtent(100, 100),
                               proportions=(1.0, 0.0, 0.0)),
                     id="two-by-two-cells"),
        # Grid cell indices far past 2**63.
        pytest.param(SceneSpec(seed=0, n_objects=8, target_fr=0.0,
                               extent=ImageExtent(1e154, 1e154)),
                     id="huge-cell-indices"),
        # Every scalar draw is spelled through rng.random, so families that
        # reach each of them often: the paper default, coarse boxes clamped at
        # the border and at half their side, and most of them dropped.
        *[pytest.param(SceneSpec(seed=seed), id=f"paper-default-{seed}") for seed in range(30)],
        *[pytest.param(SceneSpec(seed=seed, n_objects=40, extent=ImageExtent(800, 600),
                                 center_jitter=0.5, scale_jitter=0.8), id=f"high-jitter-{seed}")
          for seed in range(10)],
        *[pytest.param(SceneSpec(seed=seed, n_objects=40, extent=ImageExtent(800, 600),
                                 drop_rate=0.6), id=f"high-drop-{seed}")
          for seed in range(10)],
    ])
    def test_matches_scalar_reference(self, spec):
        gt, coarse = generate_scene(spec)
        want_gt, want_coarse = scene_reference(spec)
        assert [(b.x1, b.y1, b.x2, b.y2) for b in gt] == want_gt
        assert [((d.box.x1, d.box.y1, d.box.x2, d.box.y2), d.score) for d in coarse] == want_coarse

    def test_zero_target_gives_smallest_sides(self):
        # A foreground ratio of 0 clamps every side to its bucket's lower bound.
        gt, _ = generate_scene(SceneSpec(target_fr=0.0, n_objects=2, seed=4))
        sides = sorted(np.sqrt(b.width * b.height) for b in gt)
        assert sides == pytest.approx([16.0, 34.0], rel=1e-12)

    def test_infeasible_spec_rejected(self):
        spec = SceneSpec(n_objects=2, target_fr=0.5, seed=0)
        with pytest.raises(InfeasibleSpecError):
            generate_scene(spec)

    def test_box_larger_than_extent_rejected(self):
        spec = SceneSpec(extent=ImageExtent(30, 14), n_objects=1, target_fr=0.6,
                         proportions=(1.0, 0.0, 0.0))
        with pytest.raises(InfeasibleSpecError,
                           match=r"object 0 is \d+\.\d\dx\d+\.\d\d, larger than the 30x14 extent"):
            generate_scene(spec)

    def test_boxes_within_extent(self):
        spec = SceneSpec(seed=5)
        gt, coarse = generate_scene(spec)
        for b in gt + [d.box for d in coarse]:
            assert 0 <= b.x1 <= b.x2 <= spec.extent.width
            assert 0 <= b.y1 <= b.y2 <= spec.extent.height

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(proportions=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("bad, message", [
        ({"n_objects": -1}, "^n_objects must be nonnegative$"),
        ({"target_fr": 1.0}, r"^target_fr must be in \[0,1\), got 1.0$"),
        ({"target_fr": -0.1}, r"^target_fr must be in \[0,1\), got -0.1$"),
        ({"seed": -1}, "^seed must be nonnegative, got -1$"),
        ({"n_objects": 2**50 + 1}, r"^n_objects must be at most 2\*\*50, got 1125899906842625$"),
    ])
    def test_bad_count_or_target_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SceneSpec(**bad)
