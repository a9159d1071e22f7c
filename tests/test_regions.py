from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import merge_oracle, random_boxes
from ufppack import io
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
