from __future__ import annotations

import numpy as np
import pytest

from oracles import iou, nms_reference, nms_row_reference
from ufppack import remap
from ufppack.geometry import BBox
from ufppack.mosaic import MosaicLayout, Placement, pack
from ufppack.remap import Detection, fuse, nms, to_mosaic, to_source


def _layout_one(src, scale, dest):
    p = Placement(src, scale, dest[0], dest[1])
    return MosaicLayout(1000, 1000, [p])


class TestToSource:
    def test_offset_only(self):
        lay = _layout_one(BBox(100, 200, 228, 328), 1.0, (0, 0))
        got = to_source(Detection(BBox(10, 10, 20, 20), 0.9, 1), lay)
        assert got.box == BBox(110, 210, 120, 220)
        assert (got.score, got.category) == (0.9, 1)

    def test_divide_by_scale(self):
        lay = _layout_one(BBox(0, 0, 48, 48), 2.0, (0, 0))
        got = to_source(Detection(BBox(0, 0, 96, 96), 0.5, 0), lay)
        assert got.box == BBox(0, 0, 48, 48)

    def test_gutter_hit_dropped(self):
        lay = _layout_one(BBox(0, 0, 48, 48), 1.0, (0, 0))
        assert to_source(Detection(BBox(200, 200, 210, 210), 0.5, 0), lay) is None

    def test_straddling_clipped_to_owner(self):
        lay = _layout_one(BBox(0, 0, 50, 50), 1.0, (0, 0))
        # center (47.5, 15) is inside the placement; the overhang is clipped
        got = to_source(Detection(BBox(35, 10, 60, 20), 0.5, 0), lay)
        assert got.box.x2 <= 50.0

    def test_center_in_gutter_dropped_even_if_overlapping(self):
        lay = _layout_one(BBox(0, 0, 50, 50), 1.0, (0, 0))
        assert to_source(Detection(BBox(40, 10, 70, 20), 0.5, 0), lay) is None


class TestOwner:
    """The first placement in layout order whose box holds the centre owns a
    box, edges included, in both directions."""

    @pytest.mark.parametrize("first, want", [(0, BBox(6, 6, 8, 8)), (1, BBox(101, 101, 103, 103))])
    def test_to_source_first_overlapping_placement_owns(self, first, want):
        # Both destination boxes, (0, 0)-(10, 10) and (5, 5)-(15, 15), hold the centre (7, 7).
        ps = [Placement(BBox(0, 0, 10, 10), 1.0, 0, 0), Placement(BBox(100, 100, 110, 110), 1.0, 5, 5)]
        lay = MosaicLayout(100, 100, ps if first == 0 else ps[::-1])
        assert to_source(Detection(BBox(6, 6, 8, 8), 0.5, 0), lay).box == want

    @pytest.mark.parametrize("first, want", [(0, BBox(6, 6, 8, 8)), (1, BBox(22, 2, 26, 6))])
    def test_to_mosaic_first_overlapping_placement_owns(self, first, want):
        # Both source regions, (0, 0)-(10, 10) and (5, 5)-(15, 15), hold the centre (7, 7).
        ps = [Placement(BBox(0, 0, 10, 10), 1.0, 0, 0), Placement(BBox(5, 5, 15, 15), 2.0, 20, 0)]
        lay = MosaicLayout(100, 100, ps if first == 0 else ps[::-1])
        assert to_mosaic(BBox(6, 6, 8, 8), lay) == want

    # Centres on each edge of the destination box (10, 20)-(110, 120) and of
    # the source region (0, 0)-(50, 50); half a pixel further out is no owner.
    EDGES = [(0, 0.5), (1, 0.5), (0.5, 0), (0.5, 1)]

    @pytest.mark.parametrize("fx, fy", EDGES)
    def test_to_source_centre_on_edge_owned(self, fx, fy):
        lay = _layout_one(BBox(0, 0, 50, 50), 2.0, (10, 20))
        cx, cy = 10 + 100 * fx, 20 + 100 * fy
        got = to_source(Detection(BBox(cx - 1, cy - 1, cx + 1, cy + 1), 0.5, 0), lay)
        assert BBox(0, 0, 50, 50).contains(got.box)
        ox, oy = fx - 0.5, fy - 0.5  # half a pixel out across the edge
        assert to_source(Detection(BBox(cx + ox - 1, cy + oy - 1, cx + ox + 1, cy + oy + 1),
                                   0.5, 0), lay) is None

    @pytest.mark.parametrize("fx, fy", EDGES)
    def test_to_mosaic_centre_on_edge_owned(self, fx, fy):
        lay = _layout_one(BBox(0, 0, 50, 50), 2.0, (10, 20))
        cx, cy = 50 * fx, 50 * fy
        got = to_mosaic(BBox(cx - 1, cy - 1, cx + 1, cy + 1), lay)
        assert got == BBox(2 * cx + 8, 2 * cy + 18, 2 * cx + 12, 2 * cy + 22)
        ox, oy = fx - 0.5, fy - 0.5  # half a pixel out across the edge
        assert to_mosaic(BBox(cx + ox - 1, cy + oy - 1, cx + ox + 1, cy + oy + 1), lay) is None

    def test_to_mosaic_centre_in_no_source_region(self):
        lay = MosaicLayout(100, 100, [Placement(BBox(0, 0, 10, 10), 1.0, 0, 0),
                                      Placement(BBox(20, 0, 30, 10), 1.0, 12, 0)])
        assert to_mosaic(BBox(12, 2, 18, 8), lay) is None  # between the two regions
        assert to_mosaic(BBox(5, 8, 15, 16), lay) is None  # overlaps one, centre outside
        assert to_mosaic(BBox(40, 40, 50, 50), lay) is None
        assert to_mosaic(BBox(0, 0, 1, 1), MosaicLayout(0, 0, [])) is None


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(30))
    def test_forward_inverse_identity(self, seed):
        rng = np.random.default_rng(seed)
        # disjoint source regions (one per grid cell) so ownership is unambiguous
        scaled = [
            (
                BBox(
                    x := col * 150 + rng.uniform(0, 40),
                    y := row * 150 + rng.uniform(0, 40),
                    x + rng.uniform(20, 100),
                    y + rng.uniform(20, 100),
                ),
                float(rng.uniform(1.0, 3.0)),
            )
            for row in range(3)
            for col in range(3)
        ]
        lay = pack(scaled, 600, padding=2.0)
        for p in lay.placements:
            src = p.source
            w, h = src.width, src.height
            bx1 = src.x1 + 0.2 * w
            by1 = src.y1 + 0.2 * h
            inner = BBox(bx1, by1, bx1 + 0.5 * w, by1 + 0.5 * h)
            fwd = to_mosaic(inner, lay)
            assert fwd is not None
            back = to_source(Detection(fwd, 1.0, 0), lay)
            for a, b in zip(
                (inner.x1, inner.y1, inner.x2, inner.y2),
                (back.box.x1, back.box.y1, back.box.x2, back.box.y2),
            ):
                assert abs(a - b) < 1e-6

    def test_result_inside_owner_region(self):
        lay = _layout_one(BBox(10, 10, 60, 60), 2.0, (0, 0))
        got = to_source(Detection(BBox(0, 0, 150, 150), 0.5, 0), lay)
        assert BBox(10, 10, 60, 60).contains(got.box)


class TestFuse:
    def test_fine_empty_is_nms_of_coarse(self):
        coarse = [
            Detection(BBox(0, 0, 10, 10), 0.9, 0),
            Detection(BBox(1, 1, 11, 11), 0.8, 0),
        ]
        got = fuse(coarse, [], iou_threshold=0.5)
        assert got == [coarse[0]]

    def test_identical_boxes_keep_best(self):
        a = Detection(BBox(0, 0, 10, 10), 0.9, 2)
        b = Detection(BBox(0, 0, 10, 10), 0.8, 2)
        assert fuse([a], [b], 0.5) == [a]

    def test_disjoint_boxes_survive(self):
        a = Detection(BBox(0, 0, 10, 10), 0.3, 0)
        b = Detection(BBox(50, 50, 60, 60), 0.9, 0)
        got = fuse([a], [b], 0.5)
        assert got == [b, a]  # sorted by descending score

    def test_different_categories_not_suppressed(self):
        a = Detection(BBox(0, 0, 10, 10), 0.9, 0)
        b = Detection(BBox(0, 0, 10, 10), 0.8, 1)
        assert len(fuse([a], [b], 0.5)) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_no_surviving_pair_above_threshold(self, seed):
        rng = np.random.default_rng(seed)
        dets = [
            Detection(
                BBox(
                    x := rng.uniform(0, 80),
                    y := rng.uniform(0, 80),
                    x + rng.uniform(5, 30),
                    y + rng.uniform(5, 30),
                ),
                float(rng.uniform(0, 1)),
                int(rng.integers(0, 3)),
            )
            for _ in range(30)
        ]
        got = fuse(dets[:15], dets[15:], 0.5)
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                if got[i].category == got[j].category:
                    assert iou(got[i].box, got[j].box) <= 0.5

    def test_permutation_invariant_outputs(self):
        rng = np.random.default_rng(3)
        dets = [
            Detection(
                BBox(x := rng.uniform(0, 50), y := rng.uniform(0, 50), x + 10, y + 10),
                round(float(rng.uniform(0, 1)), 3),
                0,
            )
            for _ in range(12)
        ]
        a = fuse(dets, [], 0.5)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        b = fuse(perm, [], 0.5)
        assert {(d.box, d.score) for d in a} == {(d.box, d.score) for d in b}


def _same_objects(got, want):
    return [id(d) for d in got] == [id(d) for d in want]


class TestNmsMatchesReference:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_iou_equal_to_threshold_is_kept(self):
        a = Detection(BBox(0, 0, 10, 10), 0.9, 0)
        b = Detection(BBox(0, 0, 10, 5), 0.8, 0)  # IoU exactly 0.5
        assert iou(a.box, b.box) == 0.5
        assert _same_objects(nms([a, b], 0.5), [a, b])
        assert _same_objects(nms([a, b], 0.49), [a])

    def test_exact_ties_keep_input_order(self):
        dets = [Detection(BBox(i, 0, i + 10, 10), 0.5, 0) for i in range(4)]
        got = nms(dets, 0.5)
        assert _same_objects(got, nms_reference(dets, 0.5))
        assert got[0] is dets[0]

    def test_duplicate_and_zero_area_boxes(self):
        box, dot = BBox(5, 5, 15, 15), BBox(3, 3, 3, 3)
        dets = [Detection(box, 0.7, 0), Detection(box, 0.7, 0),
                Detection(dot, 0.9, 0), Detection(dot, 0.9, 0),
                Detection(BBox(0, 3, 20, 3), 0.8, 0)]
        got = nms(dets, 0.5)
        assert _same_objects(got, nms_reference(dets, 0.5))
        assert got == [dets[2], dets[3], dets[4], dets[0]]

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_grid_boxes(self, seed, threshold):
        # Small integer boxes and quantised scores make score ties, duplicate
        # boxes, zero-area boxes and IoU values equal to the threshold common.
        rng = np.random.default_rng(seed)
        dets = []
        for _ in range(int(rng.integers(0, 60))):
            x, y = (int(v) for v in rng.integers(0, 12, 2))
            w, h = (int(v) for v in rng.integers(0, 6, 2))
            dets.append(Detection(BBox(x, y, x + w, y + h),
                                  int(rng.integers(0, 5)) / 4, int(rng.integers(0, 3))))
        assert _same_objects(nms(dets, threshold), nms_reference(dets, threshold))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_float_boxes(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dets = [
            Detection(
                BBox(x := rng.uniform(0, 60), y := rng.uniform(0, 60),
                     x + rng.uniform(0, 25), y + rng.uniform(0, 25)),
                float(rng.uniform(0, 1)),
                int(rng.integers(0, 4)),
            )
            for _ in range(int(rng.integers(0, 120)))
        ]
        assert _same_objects(nms(dets, 0.5), nms_reference(dets, 0.5))


class TestDetection:
    @pytest.mark.parametrize("score, category, message", [
        (1.5, 0, r"^score must be in \[0,1\], got 1.5$"),
        (0.5, -1, r"^category must be nonnegative, got -1$"),
    ])
    def test_refused(self, score, category, message):
        with pytest.raises(ValueError, match=message):
            Detection(BBox(0, 0, 1, 1), score, category)


class TestThreshold:
    PAIR = [Detection(BBox(0, 0, 10, 10), 0.9, 0), Detection(BBox(100, 100, 110, 110), 0.8, 0)]

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5, 1.5, float("inf"), float("-inf")])
    @pytest.mark.parametrize("run", [nms, lambda dets, t: fuse(dets, [], t)])
    def test_out_of_range_refused(self, run, threshold):
        with pytest.raises(ValueError, match=rf"^iou_threshold must be in \[0,1\], got {threshold}$"):
            run(self.PAIR, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    @pytest.mark.parametrize("run", [nms, lambda dets, t: fuse(dets, [], t)])
    def test_bounds_accepted(self, run, threshold):
        # Two disjoint boxes of one category are both kept.
        assert _same_objects(run(self.PAIR, threshold), self.PAIR)


def _grid_detections(rng, n, categories=(0, 1, 2), equal_scores=False):
    """Small integer boxes on a 40 x 40 grid, so duplicates, zero-area boxes
    and IoU values equal to a threshold are common."""
    dets = []
    for _ in range(n):
        x, y = (int(v) for v in rng.integers(0, 40, 2))
        w, h = (int(v) for v in rng.integers(0, 8, 2))
        score = 0.5 if equal_scores else int(rng.integers(0, 5)) / 4
        dets.append(Detection(BBox(x, y, x + w, y + h), score,
                              categories[int(rng.integers(0, len(categories)))]))
    return dets


class TestBlockedMatchesRowReference:
    # The first block holds 65536 // n rows of n columns: 255 rows take one
    # block just under _BLOCK_PAIRS = 2^16 pairs, 256 exactly one, 257 two
    # and 700 more than two.
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [255, 256, 257, 700])
    def test_block_boundaries(self, n, threshold):
        assert remap._BLOCK_PAIRS == 1 << 16
        dets = _grid_detections(np.random.default_rng(n), n, categories=(0, 1, 10 ** 30))
        assert _same_objects(nms(dets, threshold), nms_row_reference(dets, threshold))

    @pytest.mark.parametrize("threshold", [0.0, 1 / 3, 1.0])
    @pytest.mark.parametrize("n", [256, 700])
    def test_equal_scores_one_category(self, n, threshold):
        dets = _grid_detections(np.random.default_rng(n + 1), n, categories=(10 ** 30,),
                                equal_scores=True)
        assert _same_objects(nms(dets, threshold), nms_row_reference(dets, threshold))

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_overflowing_boxes(self, threshold):
        # Areas, intersections and unions past the float range raise no
        # warning, and a pair whose union is not finite is no hit: the four
        # huge boxes of category 0, two of them equal, are all kept.
        huge = [BBox(0, 0, 1e300, 1e300), BBox(-1e308, -1e308, 1e308, 1e308),
                BBox(0, 0, 1e300, 1), BBox(0, 0, 1e300, 1e300)]
        dets = [Detection(b, s, 0) for b, s in zip(huge, (0.9, 0.8, 0.7, 0.6))]
        dets += _grid_detections(np.random.default_rng(5), 30, categories=(1, 2))
        got = nms(dets, threshold)
        with np.errstate(over="ignore", invalid="ignore"):
            want = nms_row_reference(dets, threshold)
        assert _same_objects(got, want)
        assert all(any(g is d for g in got) for d in dets[:4])

    @pytest.mark.parametrize("block_pairs", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(10))
    def test_many_small_blocks(self, monkeypatch, seed, block_pairs):
        monkeypatch.setattr(remap, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(300 + seed)
        dets = _grid_detections(rng, int(rng.integers(0, 50)), equal_scores=seed % 2 == 1)
        for threshold in (0.0, 0.5, 1.0):
            assert _same_objects(nms(dets, threshold), nms_row_reference(dets, threshold))
