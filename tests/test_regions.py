from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import enclosing, expand_ref, merge_oracle, merge_scan_reference, random_boxes
from ufppack import regions
from ufppack.geometry import BBox, ImageExtent, area
from ufppack.regions import expand_and_merge, merge


def _boxes(tuples):
    return [BBox(*t) for t in tuples]


class TestMerge:
    def test_single_box_passthrough(self):
        rs = merge(_boxes([(0, 0, 10, 10)]))
        assert rs.regions == _boxes([(0, 0, 10, 10)])
        assert rs.provenance == [[0]]

    def test_pair_merges_far_box_survives(self):
        rs = merge(_boxes([(0, 0, 10, 10), (5, 0, 15, 10), (100, 100, 110, 110)]))
        assert rs.regions == _boxes([(0, 0, 15, 10), (100, 100, 110, 110)])
        assert rs.provenance == [[0, 1], [2]]

    def test_identical_boxes_collapse(self):
        b = BBox(2, 2, 8, 8)
        rs = merge([b, b])
        assert rs.regions == [b]
        assert rs.provenance == [[0, 1]]

    def test_empty_input(self):
        assert len(merge([])) == 0

    def test_rescan_absorbs_chain(self):
        # c qualifies only after a has absorbed b and grown.
        chain = _boxes([(0, 0, 10, 10), (8, 0, 18, 10), (16, 0, 26, 10)])
        rs = merge(chain)
        assert len(rs.regions) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        raw = random_boxes(rng, int(rng.integers(0, 13)), (200, 200))
        got = [(b.x1, b.y1, b.x2, b.y2) for b in merge(_boxes(raw)).regions]
        want = merge_oracle(raw)
        assert len(got) == len(want)
        assert np.allclose(np.array(got).reshape(-1, 4), np.array(want).reshape(-1, 4))

    @pytest.mark.parametrize("seed", range(20))
    def test_coverage_and_provenance(self, seed):
        rng = np.random.default_rng(100 + seed)
        raw = _boxes(random_boxes(rng, 10, (300, 300)))
        rs = merge(raw)
        seen = sorted(i for p in rs.provenance for i in p)
        assert seen == list(range(len(raw)))
        for region, prov in zip(rs.regions, rs.provenance):
            for i in prov:
                assert region.contains(raw[i], tol=1e-9)

    def test_single_pass_variant_can_differ(self):
        # The chain case distinguishes fixed-point rescan from a single scan
        # when the qualifying box precedes the enabler in scan order.
        raw = [(16.0, 0.0, 26.0, 10.0), (0.0, 0.0, 10.0, 10.0), (8.0, 0.0, 18.0, 10.0)]
        fixed_point = merge_oracle(raw, single_pass=False)
        one_pass = merge_oracle(raw, single_pass=True)
        assert len(fixed_point) == 1
        assert len(one_pass) == 2
        got = merge(_boxes(raw))
        assert len(got) == len(fixed_point)

    def test_overflowed_area_sum_absorbs(self):
        # Each area is 1.7e308; their sum overflows to +inf, which covers the
        # finite enclosing area as the exact sum does, with no warning.
        rs = merge([BBox(0, 0, 1e154, 1.7e154)] * 2)
        assert rs.regions == [BBox(0, 0, 1e154, 1.7e154)]
        assert rs.provenance == [[0, 1]]

    def test_zero_area_boxes_apart_merge(self):
        # Two zero-height boxes on one line qualify though they do not touch:
        # 0 + 0 >= 0. So touching is no necessary condition for absorption.
        raw = [(0, 5, 1, 5), (3, 5, 4, 5)]
        rs = merge(_boxes(raw))
        assert rs.regions == _boxes([(0, 5, 4, 5)])
        assert rs.provenance == [[0, 1]]
        assert merge_oracle(raw) == [(0, 5, 4, 5)]


def _corners(rs_regions):
    return [(b.x1, b.y1, b.x2, b.y2) for b in rs_regions]


def _assert_matches_scan_reference(boxes):
    got = merge(boxes)
    want_regions, want_provenance = merge_scan_reference(boxes)
    assert _corners(got.regions) == _corners(want_regions)
    assert got.provenance == want_provenance


def _mixed_boxes(rng, n, integer):
    """Random boxes of sides up to 16 on a 400 x 400 extent, so that some
    merge and many stay alone, with duplicates and zero-area boxes among
    them; int corners when ``integer``."""
    xy = rng.uniform(0, 400, (n, 2))
    raw = np.concatenate([xy, xy + rng.uniform(0, 16, (n, 2))], axis=1)
    boxes = _boxes(raw.astype(int).tolist() if integer else raw.tolist())
    for i in rng.choice(n, n // 8, replace=False):
        boxes[i] = boxes[int(rng.integers(0, n))]
    for i in rng.choice(n, n // 8, replace=False):
        b = boxes[i]
        boxes[i] = BBox(b.x1, b.y1, b.x2, b.y1) if i % 2 else BBox(b.x1, b.y1, b.x1, b.y1)
    return boxes


class TestBlockedMatchesScanReference:
    # 255^2 pairs are just under one block of _BLOCK_PAIRS = 2^16, 256^2 are
    # exactly one, 257 rows need two blocks and 600 six.
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_block_boundaries(self, n, integer):
        assert regions._BLOCK_PAIRS == 1 << 16
        _assert_matches_scan_reference(_mixed_boxes(np.random.default_rng(n), n, integer))

    @pytest.mark.parametrize("block_pairs", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(10))
    def test_many_small_blocks(self, monkeypatch, seed, block_pairs):
        monkeypatch.setattr(regions, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(200 + seed)
        _assert_matches_scan_reference(_mixed_boxes(rng, int(rng.integers(1, 40)), seed % 2 == 1))

    def test_nan_area_seeds_first(self):
        # An overflowed width times a zero height is a NaN area, which the
        # scan's argmin takes as the smallest.
        boxes = [BBox(0, 0, 1, 1), BBox(-1e308, 0, 1e308, 0)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert merge(boxes).provenance == [[1], [0]]
            _assert_matches_scan_reference(boxes)

    def test_empty_and_single(self):
        _assert_matches_scan_reference([])
        _assert_matches_scan_reference([BBox(1, 2, 3, 4)])


def _rows(tuples):
    return np.array(tuples, dtype=float).reshape(-1, 4)


def _bits(corners):
    return np.array(corners, dtype=float).view(np.uint64).tolist()


# Corners across and beyond a 200 x 150 image, so that boxes clamp at every
# edge and some lie wholly outside.
_COORD = st.floats(-60, 260)
_BOX = st.tuples(_COORD, _COORD, _COORD, _COORD).map(
    lambda t: (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])))
_ZERO_AREA_BOX = st.tuples(_COORD, _COORD, _COORD).map(
    lambda t: (min(t[0], t[2]), t[1], max(t[0], t[2]), t[1]))
_BETA = st.one_of(st.just(1.0), st.floats(1.0, 4.0))
_EXTENT = ImageExtent(200.0, 150.0)


class TestExpandMatchesScalarReference:
    @given(st.one_of(_BOX, _ZERO_AREA_BOX), _BETA)
    @example((10.0, 10.0, 30.0, 40.0), 1.0)
    @example((5.0, 7.0, 5.0, 7.0), 1.5)
    @example((-10.0, 50.0, 10.0, 60.0), 1.5)  # clamped at the left edge
    @example((50.0, -10.0, 60.0, 10.0), 1.5)  # top
    @example((190.0, 50.0, 210.0, 60.0), 1.5)  # right
    @example((50.0, 140.0, 60.0, 160.0), 1.5)  # bottom
    @example((-20.0, -20.0, 220.0, 170.0), 2.0)  # every edge
    @example((0.0, -5e-324, 0.0, 0.0), 1.0)  # its top clamps from -0.0 to 0.0
    def test_one_row_bit_for_bit(self, box, beta):
        try:
            want = expand_ref(BBox(*box), beta, _EXTENT)
        except ValueError:
            with pytest.raises(ValueError, match=r"^detection 0 lies outside the 200x150 image$"):
                expand_and_merge(_rows([box]), beta, _EXTENT)
            return
        (got,) = expand_and_merge(_rows([box]), beta, _EXTENT).regions
        assert _bits(_corners([got])) == _bits(_corners([want]))

    @given(st.lists(st.one_of(_BOX, _ZERO_AREA_BOX), max_size=16), _BETA)
    @example([(0.0, -5e-324, 0.0, 0.0)], 1.0)  # its top clamps from -0.0 to 0.0
    def test_array_matches_merge_of_scalar_expansion(self, raw, beta):
        kept, expanded = [], []
        for box in raw:
            try:
                expanded.append(expand_ref(BBox(*box), beta, _EXTENT))
            except ValueError:
                continue
            kept.append(box)
        got = expand_and_merge(_rows(kept), beta, _EXTENT)
        want = merge(expanded)
        assert _corners(got.regions) == _corners(want.regions)
        assert got.provenance == want.provenance
        # A one-box region is its expanded row.
        for region, prov in zip(got.regions, got.provenance):
            if len(prov) == 1:
                assert _bits(_corners([region])) == _bits(_corners([expanded[prov[0]]]))


class TestExpandAndMerge:
    def test_empty(self):
        assert len(expand_and_merge(_rows([]), 1.5, ImageExtent(100, 100))) == 0

    def test_single_detection(self):
        rs = expand_and_merge(_rows([(10, 10, 20, 20)]), 1.5, ImageExtent(100, 100))
        assert rs.regions == [BBox(7.5, 7.5, 22.5, 22.5)]

    def test_abutting_boxes_merge_after_expansion(self):
        rs = expand_and_merge(_rows([(0, 0, 10, 10), (10, 0, 20, 10)]), 1.5,
                              ImageExtent(100, 100))
        assert len(rs) == 1

    def test_regions_are_float(self):
        # An edge clamped to an int extent is the float 200.0, as every
        # other corner is.
        rs = expand_and_merge(_rows([(180, 40, 196, 60)]), 1.5, ImageExtent(200, 100))
        (region,) = rs.regions
        assert _corners([region]) == [(176.0, 35.0, 200.0, 65.0)]
        assert {type(v) for v in _corners([region])[0]} == {float}

    @pytest.mark.parametrize("off_image", [
        (700, 100, 720, 120), (-40, 100, -20, 120),  # right of and left of the image
        (100, 500, 120, 520), (100, -40, 120, -20),  # below and above it
    ])
    def test_detection_outside_image_refused(self, off_image):
        boxes = _rows([(10, 10, 20, 20), off_image, (30, 30, 40, 40)])
        with pytest.raises(ValueError, match=r"^detection 1 lies outside the 640x480 image$"):
            expand_and_merge(boxes, 1.5, ImageExtent(640, 480))

    @pytest.mark.parametrize("column", range(4))
    def test_nan_corner_refused(self, column):
        row = [10.0, 10.0, 20.0, 20.0]
        row[column] = float("nan")
        with pytest.raises(ValueError, match=r"^detection 1 lies outside"):
            expand_and_merge(_rows([(0, 0, 5, 5), row]), 1.5, ImageExtent(100, 100))

    def test_infinite_beta_refused_by_name(self):
        # A zero-area row would expand to NaN (0 * inf) and be named as outside.
        with pytest.raises(ValueError, match=r"^beta must be finite, got inf$"):
            expand_and_merge(_rows([(10, 10, 20, 20), (30, 30, 30, 30)]), float("inf"),
                             ImageExtent(100, 100))

    def test_edge_touching_detection_kept(self):
        # A box that starts at the right edge clamps to a zero-width row there.
        rs = expand_and_merge(_rows([(100, 10, 120, 20)]), 1.0, ImageExtent(100, 100))
        assert rs.regions == [BBox(100.0, 10.0, 100.0, 20.0)]

    def test_merge_soundness_replay(self):
        # Every absorption must have satisfied the area condition when taken.
        rng = np.random.default_rng(7)
        raw = _boxes(random_boxes(rng, 12, (200, 200)))
        rs = expand_and_merge(_rows(_corners(raw)), 1.5, ImageExtent(200, 200))
        expanded = [expand_ref(b, 1.5, ImageExtent(200, 200)) for b in raw]
        for prov in rs.provenance:
            acc = expanded[prov[0]]
            for i in prov[1:]:
                c = enclosing(acc, expanded[i])
                assert area(acc) + area(expanded[i]) >= area(c) - 1e-9
                acc = c
