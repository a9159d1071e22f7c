from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import merge_oracle, merge_scan_reference, random_boxes
from ufppack import io, regions
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox, ImageExtent, area, enclosing
from ufppack.pipeline import build_layout
from ufppack.regions import expand_and_merge, merge
from ufppack.remap import Detection


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

    def test_zero_area_boxes_apart_merge(self):
        # Two zero-height boxes on one line qualify though they do not touch:
        # 0 + 0 >= 0. So touching is no necessary condition for absorption.
        raw = [(0, 5, 1, 5), (3, 5, 4, 5)]
        rs = merge(_boxes(raw))
        assert rs.regions == _boxes([(0, 5, 4, 5)])
        assert rs.provenance == [[0, 1]]
        assert merge_oracle(raw) == [(0, 5, 4, 5)]


def _typed(rs_regions):
    return [tuple((v, type(v)) for v in (b.x1, b.y1, b.x2, b.y2)) for b in rs_regions]


def _assert_matches_scan_reference(boxes):
    got = merge(boxes)
    want_regions, want_provenance = merge_scan_reference(boxes)
    assert _typed(got.regions) == _typed(want_regions)
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

    def test_int_area_decides(self):
        # Past 2^53 an int corner rounds as a float, so a box's float area is
        # not its int area: box 2 is 1 x 2 as ints and 0 x 2 as floats. Box 1
        # qualifies against box 2 only by the int area, which is what the
        # scan adds for the region.
        big = 2 ** 53
        boxes = [BBox(big + 2, 1, big + 3, 1), BBox(big + 3, 3, big + 6, 4),
                 BBox(big + 3, 2, big + 4, 4)]
        assert merge(boxes).provenance == [[0], [2, 1]]
        _assert_matches_scan_reference(boxes)

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


class TestExpandAndMerge:
    def test_empty(self):
        assert len(expand_and_merge([], 1.5, ImageExtent(100, 100))) == 0

    def test_single_detection(self):
        rs = expand_and_merge([BBox(10, 10, 20, 20)], 1.5, ImageExtent(100, 100))
        assert rs.regions == [BBox(7.5, 7.5, 22.5, 22.5)]

    def test_abutting_boxes_merge_after_expansion(self):
        rs = expand_and_merge(
            [BBox(0, 0, 10, 10), BBox(10, 0, 20, 10)], 1.5, ImageExtent(100, 100)
        )
        assert len(rs) == 1

    def test_int_extent_edge_stays_int_in_layout(self, tmp_path):
        # The merged region is built from the input boxes, so an edge clamped
        # to an int extent is written as 200, not 200.0.
        dets = [Detection(BBox(180.0, 40.0, 196.0, 60.0), 0.9, 0),
                Detection(BBox(186.5, 45.0, 199.0, 58.0), 0.8, 0)]
        regions, layout = build_layout(dets, ImageExtent(200, 100), PipelineConfig())
        assert regions.provenance == [[1, 0]]
        path = tmp_path / "layout.json"
        io.save_layout(layout, path)
        (src,) = (p["src"] for p in json.loads(path.read_text())["placements"])
        assert src[2] == 200 and type(src[2]) is int

    def test_merge_soundness_replay(self):
        # Every absorption must have satisfied the area condition when taken.
        rng = np.random.default_rng(7)
        raw = _boxes(random_boxes(rng, 12, (200, 200)))
        rs = expand_and_merge(raw, 1.5, ImageExtent(200, 200))
        from ufppack.geometry import expand

        expanded = [expand(b, 1.5, ImageExtent(200, 200)) for b in raw]
        for prov in rs.provenance:
            acc = expanded[prov[0]]
            for i in prov[1:]:
                c = enclosing(acc, expanded[i])
                assert area(acc) + area(expanded[i]) >= area(c) - 1e-9
                acc = c
