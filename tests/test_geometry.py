from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from conftest import bbox_strategy
from oracles import iou
from ufppack.geometry import BBox, ImageExtent, area, corners
from ufppack.regions import expand_and_merge


class TestBBox:
    def test_valid_construction(self):
        b = BBox(1, 2, 3, 4)
        assert (b.width, b.height) == (2, 2)
        assert b.center == (2, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 4, 10)
        with pytest.raises(ValueError):
            BBox(0, 5, 10, 4)

    def test_zero_size_allowed(self):
        assert area(BBox(3, 3, 3, 3)) == 0

    @pytest.mark.parametrize("coords", [
        (float("nan"), 0, 1, 1), (0, float("nan"), 1, 1),
        (0, 0, float("nan"), 1), (0, 0, 1, float("nan")),
        # a non-finite corner, and an int past the float range
        (0, 0, float("inf"), 1), (0, 0, 1, float("inf")), (float("-inf"), 0, 1, 1),
        (0, float("-inf"), 1, 1), (float("inf"), 0, float("inf"), 1), (0, 0, 10**400, 1),
    ])
    def test_nan_rejected(self, coords):
        with pytest.raises(ValueError):
            BBox(*coords)


class TestImageExtent:
    @pytest.mark.parametrize("wh", [
        (float("inf"), 10), (10, float("inf")), (float("nan"), 10), (10, float("nan")),
        (10**400, 10),
        # each side finite, the area width * height not
        (1e200, 1e200), (10**200, 10**200),
    ])
    def test_non_finite_rejected(self, wh):
        with pytest.raises(ValueError):
            ImageExtent(*wh)


class TestCorners:
    def test_values_and_dtype(self):
        got = corners([BBox(1, 2, 3, 4), BBox(0.5, 0, 0.5, 7)])
        assert got.dtype == np.float64
        assert got.tolist() == [[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 0.5, 7.0]]

    def test_empty_is_zero_by_four(self):
        got = corners([])
        assert got.shape == (0, 4) and got.dtype == np.float64

    def test_generator_input(self):
        boxes = [BBox(i, 0, i + 1, 2) for i in range(3)]
        assert corners(b for b in boxes).tolist() == corners(boxes).tolist()
        assert corners(b for b in []).shape == (0, 4)


def _expand_one(box: BBox, beta: float, extent: ImageExtent) -> BBox:
    """The region ``expand_and_merge`` makes of one box: the box expanded."""
    (region,) = expand_and_merge(np.array([(box.x1, box.y1, box.x2, box.y2)]), beta,
                                 extent).regions
    return region


class TestExpand:
    def test_center_scaling(self):
        got = _expand_one(BBox(10, 10, 20, 20), 1.5, ImageExtent(100, 100))
        assert got == BBox(7.5, 7.5, 22.5, 22.5)

    def test_identity_at_one(self):
        b = BBox(3, 4, 30, 40)
        assert _expand_one(b, 1.0, ImageExtent(100, 100)) == b

    def test_clamped_at_border(self):
        got = _expand_one(BBox(0, 0, 10, 10), 1.5, ImageExtent(100, 100))
        assert got == BBox(0, 0, 12.5, 12.5)

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValueError, match="expansion ratio must be >= 1"):
            _expand_one(BBox(0, 0, 10, 10), 0.9, ImageExtent(100, 100))
        with pytest.raises(ValueError, match="^expansion ratio must be >= 1, got nan$"):
            _expand_one(BBox(0, 0, 10, 10), float("nan"), ImageExtent(100, 100))

    @given(bbox_strategy(max_coord=100))
    def test_never_exceeds_extent(self, b):
        ext = ImageExtent(100, 100)
        got = _expand_one(b, 2.5, ext)
        assert 0 <= got.x1 <= got.x2 <= ext.width
        assert 0 <= got.y1 <= got.y2 <= ext.height


class TestArea:
    def test_square(self):
        assert area(BBox(0, 0, 10, 10)) == 100

    def test_zero_width(self):
        assert area(BBox(5, 0, 5, 10)) == 0

    def test_rectangle(self):
        assert area(BBox(0, 0, 15, 10)) == 150


class TestIou:
    def test_identical(self):
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 0, 30, 10)) == 0.0

    def test_half_overlap(self):
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_zero_area_pair(self):
        assert iou(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 0.0

    @given(bbox_strategy(), bbox_strategy())
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
