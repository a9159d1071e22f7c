from __future__ import annotations

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from oracles import compose_affine_reference, detections_to_records, layout_to_dict, load_jsonl
from ufppack import io
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox, ImageExtent
from ufppack.metrics import SceneSpec, generate_scene
from ufppack.mosaic import MosaicLayout, Placement, pack
from ufppack.pipeline import build_layout
from ufppack.remap import Detection, to_mosaic
from ufppack.trainsim import TrainConfig


class TestDetectionsIO:
    def test_empty_array(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[]")
        assert io.load_detections(p) == {}

    def test_xywh_conversion(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"image_id": 7, "bbox": [10, 10, 10, 10], "score": 0.5,
                                  "category_id": 2}]))
        per_image = io.load_detections(p)
        assert per_image[7][0].box == BBox(10, 10, 20, 20)

    @pytest.mark.parametrize("image_id", [1, 1.0, True, "1", None])
    def test_one_id_keeps_its_json_type(self, image_id):
        """A JSON integer or string keys its records; any other id is refused."""
        rec = {"image_id": image_id, "bbox": [0, 0, 1, 1]}
        if image_id is None or isinstance(image_id, (bool, float)):
            with pytest.raises(io.ValidationError, match=r"indices \[0, 1\]$"):
                io.detections_from_records([rec, rec])
            return
        per_image = io.detections_from_records([rec, rec])
        [(key, dets)] = per_image.items()
        assert type(key) is type(image_id) and key == image_id and len(dets) == 2

    def test_ids_of_equal_value_and_different_type_rejected(self):
        records = [{"image_id": i, "bbox": [0, 0, 1, 1]} for i in (2, 1.0, 1, True)]
        with pytest.raises(io.ValidationError, match=r"indices \[1, 3\]$"):
            io.detections_from_records(records)

    def test_negative_extent_named(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"image_id": 0, "bbox": [0, 0, -1, 5], "score": 0.5,
                                  "category_id": 0}]))
        with pytest.raises(io.ValidationError, match=r"\[0\]"):
            io.load_detections(p)

    @pytest.mark.parametrize("bad", [
        {"bbox": [float("nan"), 0, 1, 1]}, {"bbox": [0, 0, float("inf"), 1]},
        {"bbox": [0, 0, 1, float("nan")]}, {"bbox": [0, 0, 1, 1], "score": float("nan")},
        # finite corners whose sum overflows, or numbers too large for a float
        {"bbox": [1e308, 5, 1e308, 10]}, {"bbox": [5, 1e308, 10, 1e308]},
        {"bbox": [10**400, 0, 1, 1]}, {"bbox": [0, 0, 1, 1], "category_id": float("inf")},
    ])
    def test_non_finite_rejected(self, bad):
        good = {"image_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0}
        with pytest.raises(io.ValidationError, match=r"\[1\]"):
            io.detections_from_records([good, {**good, **bad}])

    def test_negative_extent_below_an_ulp_rejected(self):
        """x + w rounds to x when -w is below half an ulp of x, a valid box;
        the sign of w is checked before the corners are added."""
        assert 1e20 + -1.0 == 1e20
        good = {"image_id": 0, "bbox": [0, 0, 1, 1]}
        with pytest.raises(io.ValidationError, match=r"indices \[1, 2\]$"):
            io.detections_from_records([good, {"bbox": [1e20, 0, -1, 1]},
                                        {"bbox": [0, 1e20, 1, -1]}])

    @pytest.mark.parametrize("bad", [
        {"category_id": 1.7}, {"category_id": 1.0}, {"category_id": "2"},
        {"category_id": True}, {"category_id": None}, {"score": "0.5"}, {"score": True},
        {"score": None}, {"score": [0.5]}, {"bbox": [True, 0, 1, 1]}, {"bbox": [0, 0, 1, False]},
        {"bbox": [0, "0", 1, 1]}, {"bbox": {"x": 0, "y": 0, "w": 1, "h": 1}},
    ])
    def test_wrong_json_type_rejected(self, bad):
        good = {"image_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0}
        with pytest.raises(io.ValidationError, match=r"indices \[1\]$"):
            io.detections_from_records([good, {**good, **bad}])

    def test_json_numbers_accepted(self):
        records = [{"bbox": [0, 0, 1, 1], "score": s, "category_id": 3} for s in (0, 1, 0.5)]
        records.append({"bbox": [0, 0, 1, 1]})
        dets = io.detections_from_records(records)[0]
        assert [(d.score, d.category) for d in dets] == [(0.0, 3), (1.0, 3), (0.5, 3), (1.0, 0)]
        assert all(type(d.score) is float and type(d.category) is int for d in dets)

    def test_malformed_json_position(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('[{"bbox": [0, 0, 1')
        with pytest.raises(io.ParseError, match="line"):
            io.load_detections(p)

    def test_not_utf8_named(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_bytes(b'[{"bbox": [0, 0, 1, 1], "category_id": 0}, "\xe9"]')
        message = f"^{re.escape(str(p))}: not UTF-8 text at byte 44$"
        with pytest.raises(io.ParseError, match=message):
            io.load_detections(p)

    def test_roundtrip(self, tmp_path):
        dets = [Detection(BBox(1.5, 2.25, 10.125, 20.0), 0.875, 3)]
        p = tmp_path / "d.json"
        io.save_detections(dets, p)
        assert io.load_detections(p)[0] == dets


class TestLayoutIO:
    def test_empty_layout(self, tmp_path):
        lay = pack([], 100)
        p = tmp_path / "l.json"
        io.save_layout(lay, p)
        doc = json.loads(p.read_text())
        assert doc["placements"] == []

    def test_roundtrip_identity(self, tmp_path):
        scaled = [
            (BBox(0.1, 0.2, 50.7, 50.9), 1.37),
            (BBox(3, 4, 33, 44), 1.0),
        ]
        lay = pack(scaled, 120.5, padding=2.0)
        p = tmp_path / "l.json"
        io.save_layout(lay, p)
        assert io.load_layout(p) == lay

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text('{"mosaic": {"width": 10')
        with pytest.raises(io.ParseError):
            io.load_layout(p)

    @pytest.mark.parametrize("field,value", [
        ("scale", -1.0), ("scale", 0.0), ("scale", float("nan")), ("dest", [float("inf"), 0.0]),
    ])
    def test_unusable_placement_rejected(self, tmp_path, field, value):
        placement = {"src": [0, 0, 10, 10], "scale": 1.0, "dest": [0.0, 0.0], field: value}
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 100, "height": 100},
                                 "placements": [placement]}))
        with pytest.raises(io.ParseError, match="scale"):
            io.load_layout(p)

    @pytest.mark.parametrize("field, value, error", [
        ("scale", 0.0, "placement needs a positive finite scale and a finite origin, "
                       "got scale 0.0 at (20.0,0.0)"),
        ("scale", -1.0, "placement needs a positive finite scale and a finite origin, "
                        "got scale -1.0 at (20.0,0.0)"),
        ("src", [10, 0, 0, 10], None),  # reversed corners
        ("src", [0, 0, 10**400, 10], None),  # past the float range
    ], ids=["scale-0", "scale-negative", "src-reversed", "src-overflow"])
    def test_unusable_placement_named(self, tmp_path, field, value, error):
        placements = [{"src": [0, 0, 10, 10], "scale": 1.0, "dest": [0.0, 0.0]},
                      {"src": [0, 0, 10, 10], "scale": 1.0, "dest": [20.0, 0.0], field: value}]
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 100, "height": 100},
                                 "placements": placements}))
        message = "^" + re.escape("invalid layout document: placement 1: ")
        if error is not None:
            message += re.escape(error) + "$"
        with pytest.raises(io.ParseError, match=message):
            io.load_layout(p)

    @pytest.mark.parametrize("width,height", [
        (100, float("nan")), (float("inf"), 100), (100, -1.0), (-0.5, 100), (10**400, 100),
        ("100", 100), (100, True), (None, 100),
    ], ids=["nan-height", "inf-width", "negative-height", "negative-width", "huge-width",
            "string-width", "bool-height", "null-width"])
    def test_unusable_mosaic_size_rejected(self, tmp_path, width, height):
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": width, "height": height},
                                 "placements": []}))
        with pytest.raises(io.ParseError, match="invalid layout document"):
            io.load_layout(p)

    @pytest.mark.parametrize("field, value", [
        ("src", ["0", 0, "10", 10]), ("src", [0, 0, 10]), ("src", [0, 0, 10, 10, 5]),
        ("scale", True), ("scale", "1.0"), ("dest", [0, 0, 0]), ("dest", [False, 0]),
        ("dest", None),
    ])
    def test_wrong_json_type_rejected(self, tmp_path, field, value):
        placement = {"src": [0, 0, 10, 10], "scale": 1.0, "dest": [0, 0], field: value}
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 100, "height": 100},
                                 "placements": [placement]}))
        message = ("placement 0 src, scale and dest must be 4, 1 and 2 JSON numbers, "
                   f"got {placement['src']!r}, {placement['scale']!r} and {placement['dest']!r}")
        with pytest.raises(io.ParseError, match=re.escape(message)):
            io.load_layout(p)

    @pytest.mark.parametrize("src, scale, dest", [
        ([0, 0, 1e308, 10], 10.0, [0, 0]),  # overflows to an infinite width
        ([0, 0, 10, 1e308], 10.0, [0, 0]),
        ([0, 0, 10, 10], 1.0, [95, 0]),
        ([0, 0, 10, 10], 1.0, [0, 95]),
        ([0, 0, 10, 10], 1.0, [-1, 0]),
        ([0, 0, 10, 10], 1.0, [0, -1]),
        ([0, 0, 10, 10], 10.5, [0, 0]),
    ], ids=["infinite-width", "infinite-height", "right", "bottom", "left", "top", "scaled"])
    def test_placement_outside_mosaic_rejected(self, tmp_path, src, scale, dest):
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 100, "height": 100},
                                 "placements": [{"src": src, "scale": scale, "dest": dest}]}))
        with pytest.raises(io.ParseError, match="placement 0 scaled box"):
            io.load_layout(p)

    def test_first_faulty_placement_named_whatever_its_fault(self):
        # Placement 0 lies outside the mosaic, placement 1 has a string scale.
        doc = {"mosaic": {"width": 100, "height": 100},
               "placements": [{"src": [0, 0, 10, 10], "scale": 1.0, "dest": [95, 0]},
                              {"src": [0, 0, 10, 10], "scale": "2", "dest": [0, 0]}]}
        with pytest.raises(io.ParseError,
                           match="^invalid layout document: placement 0 scaled box"):
            io.layout_from_dict(doc)

    def test_placement_on_the_mosaic_edge_accepted(self):
        doc = {"mosaic": {"width": 100, "height": 100},
               "placements": [{"src": [0, 0, 10, 10], "scale": 1.0, "dest": [90, 90]},
                              {"src": [5, 5, 15, 15], "scale": 10.0, "dest": [0, 0]}]}
        assert len(io.layout_from_dict(doc).placements) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_scene_layout_loads(self, tmp_path, seed):
        _, coarse = generate_scene(SceneSpec(seed=seed))
        _, lay = build_layout(coarse, SceneSpec().extent, PipelineConfig())
        io.save_layout(lay, tmp_path / "l.json")
        assert io.load_layout(tmp_path / "l.json") == lay

    def test_schema_violation(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 10, "height": 10}}))
        with pytest.raises(io.ParseError):
            io.load_layout(p)


class TestTemplateJsonWriters:
    """save_layout, save_detections and save_scene write the bytes of
    json.dumps(..., indent=1), which they build from per-record templates."""

    SPECIAL = [0, 7, 2**70, -0.0, 0.0, 1e-300, 5e-324, 1e300, 0.1, np.float64(2.5),
               np.float64(-0.0), np.float64(1e-300), np.float64(1 / 3)]

    def _value(self, rng: np.random.Generator, lo: float = -1e4):
        kind = int(rng.integers(4))
        if kind == 0:
            return self.SPECIAL[int(rng.integers(len(self.SPECIAL)))]
        if kind == 1:
            return int(rng.integers(-1000, 1000))
        if kind == 2:
            return np.float64(rng.uniform(lo, 1e4))
        return float(rng.uniform(lo, 1e4))

    def _box(self, rng: np.random.Generator) -> BBox:
        x, y = self._value(rng), self._value(rng)
        return BBox(x, y, x + abs(self._value(rng)), y + abs(self._value(rng)))

    def test_layout_bytes_equal_json_dumps(self, tmp_path):
        rng = np.random.default_rng(51)
        for n in [0, 0, 1, 2, 5, 30]:
            lay = MosaicLayout(self._value(rng), self._value(rng), [
                Placement(self._box(rng), abs(self._value(rng, 1e-3)) or 1.0,
                          self._value(rng), self._value(rng))
                for _ in range(n)])
            io.save_layout(lay, tmp_path / "l.json")
            want = json.dumps(layout_to_dict(lay), indent=1)
            assert (tmp_path / "l.json").read_text() == want

    @pytest.mark.parametrize("image_id", [0, 12, "img_7", "caf\u00e9 \"1\"", None, 2.5])
    def test_detection_bytes_equal_json_dumps(self, tmp_path, image_id):
        rng = np.random.default_rng(52)
        for n in [0, 1, 3, 40]:
            dets = [Detection(self._box(rng), float(rng.choice([0.0, 1.0, rng.random()])),
                              int(rng.integers(0, 5)))
                    for _ in range(n)]
            if image_id is None or isinstance(image_id, float):
                with pytest.raises(ValueError, match="image_id must be a JSON integer"):
                    io.save_detections(dets, tmp_path / "d.json", image_id=image_id)
                assert list(tmp_path.iterdir()) == []
                continue
            io.save_detections(dets, tmp_path / "d.json", image_id=image_id)
            want = json.dumps(detections_to_records(dets, image_id), indent=1)
            assert (tmp_path / "d.json").read_text() == want

    def test_scene_bytes_equal_json_dumps(self, tmp_path):
        rng = np.random.default_rng(53)
        for n_gt, n_coarse in [(0, 0), (1, 0), (3, 1), (40, 25)]:
            extent = (self._value(rng), self._value(rng))
            gt = [self._box(rng) for _ in range(n_gt)]
            coarse = [Detection(self._box(rng), float(rng.choice([0.0, 1.0, rng.random()])),
                                int(rng.integers(0, 5)))
                      for _ in range(n_coarse)]
            io.save_scene(extent, gt, coarse, tmp_path / "s.json")
            want = json.dumps({
                "image_size": list(extent),
                "ground_truth": detections_to_records([Detection(b, 1.0, 0) for b in gt]),
                "coarse": detections_to_records(coarse),
            }, indent=1)
            assert (tmp_path / "s.json").read_text() == want
        # Integer and special extents, and no coarse records.
        gt_records = detections_to_records([Detection(BBox(0, 0, 10, 10), 1.0, 0)])
        for extent in [(100, 80), *zip(self.SPECIAL, self.SPECIAL[::-1])]:
            io.save_scene(extent, [BBox(0, 0, 10, 10)], [], tmp_path / "s.json")
            assert (tmp_path / "s.json").read_text() == json.dumps({
                "image_size": list(extent), "ground_truth": gt_records, "coarse": []}, indent=1)

    def test_non_finite_and_unusual_values_are_rejected_without_a_file(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match="finite"):
            io.save_layout(MosaicLayout(40.0, float("inf"), []), out)
        assert list(tmp_path.iterdir()) == []
        good = [Detection(BBox(1.0, 2.0, 3.0, 4.0), 0.5, 1)]
        for dets, image_id in [(good, [1, 2]), (good, {"a": 1}), (good, float("nan")),
                               (good, True), ([], (1,))]:
            with pytest.raises(ValueError):
                io.save_detections(dets, out, image_id=image_id)
            assert list(tmp_path.iterdir()) == []


_BOX = BBox(1.0, 2.0, 3.0, 4.0)


class TestWriterRefusals:
    """Each writer checks a file's numbers in one pass and spells a value of
    another type by ``io._num``'s rule: a bool or a NumPy integer is no JSON
    number, so the writer raises ValueError and leaves no file."""

    @pytest.mark.parametrize("det", [
        Detection(_BOX, 0.5, True), Detection(_BOX, True, 1), Detection(_BOX, 0.5, np.int64(1)),
    ], ids=["bool-category", "bool-score", "int64-category"])
    def test_detection_writers(self, tmp_path, det):
        good = Detection(_BOX, 0.5, 1)
        for write in (lambda path: io.save_detections([good, det], path),
                      lambda path: io.save_scene((10.0, 10.0), [_BOX], [good, det], path)):
            with pytest.raises(ValueError, match="^not a finite JSON number: "):
                write(tmp_path / "out.json")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("origin", [(True, 0.0), (0.0, False)])
    def test_bool_placement_origin(self, tmp_path, origin):
        layout = MosaicLayout(10.0, 10.0, [Placement(_BOX, 1.0, 0.0, 0.0),
                                           Placement(_BOX, 1.0, *origin)])
        with pytest.raises(ValueError, match="^not a finite JSON number: "):
            io.save_layout(layout, tmp_path / "out.json")
        assert list(tmp_path.iterdir()) == []

    def test_int_past_float_range_is_written(self, tmp_path):
        """An int that ``math.isfinite`` cannot take is still a JSON number."""
        big = 10**400
        layout = MosaicLayout(big, 10.0, [Placement(_BOX, 1.0, 0.0, 0.0)])
        io.save_layout(layout, tmp_path / "l.json")
        assert (tmp_path / "l.json").read_text() == json.dumps(layout_to_dict(layout), indent=1)
        dets = [Detection(_BOX, 0.5, big)]
        io.save_detections(dets, tmp_path / "d.json")
        assert (tmp_path / "d.json").read_text() == json.dumps(detections_to_records(dets),
                                                               indent=1)

    def test_percent_in_image_id(self, tmp_path):
        """The image_id is spelled into the file's template; its "%" stays literal."""
        dets = [Detection(_BOX, 0.5, 1), Detection(_BOX, 1.0, 0)]
        io.save_detections(dets, tmp_path / "d.json", image_id="50%s %d")
        assert (tmp_path / "d.json").read_text() == json.dumps(
            detections_to_records(dets, "50%s %d"), indent=1)


class TestConfigRoundtrip:
    def test_identity(self):
        cfg = PipelineConfig(beta=1.7, padding=9.0)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(beta=1.7, padding=9.0), TrainConfig(steps=5, lr=0.2, use_ot=False),
        SceneSpec(extent=ImageExtent(640, 480.5), proportions=(0.5, 0.25, 0.25), seed=3),
    ])
    def test_json_roundtrip(self, cfg):
        """``to_dict`` gives what a JSON config file holds: a tuple or a
        dataclass field as an array, which ``from_dict`` reads back."""
        assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("cfg", [PipelineConfig(), TrainConfig(seed=7)])
    def test_flat_config_dict_unchanged(self, cfg):
        """A config of scalar fields writes the bytes ``dataclasses.asdict`` did."""
        assert json.dumps(cfg.to_dict()) == json.dumps(dataclasses.asdict(cfg))

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"betaa": 1.5})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PipelineConfig(beta=0.5)
        with pytest.raises(ValueError):
            PipelineConfig(nms_iou=1.5)
        for bad in ({"fixed_size": 0.0}, {"mosaic_width": -1.0}):
            with pytest.raises(ValueError, match="^fixed_size and mosaic_width must be positive$"):
                PipelineConfig(**bad)
        with pytest.raises(ValueError, match="^padding must be nonnegative$"):
            PipelineConfig(padding=-0.5)


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        io.write_ppm(img, p)
        assert np.array_equal(io.read_ppm(p), img)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "img.ppm"
        pixels = bytes(range(12))
        p.write_bytes(b"P6\n# a comment\n2 2\n255\n" + pixels)
        img = io.read_ppm(p)
        assert img.shape == (2, 2, 3)

    def test_whitespace_and_comment_before_magic(self, tmp_path):
        p = tmp_path / "img.ppm"
        pixels = bytes(range(12))
        p.write_bytes(b" \n\t# made by hand\n  P6 2 2 255\n" + pixels)
        assert io.read_ppm(p).tobytes() == pixels

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(io.ParseError):
            io.read_ppm(p)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(io.ParseError):
            io.read_ppm(p)

    # 10 KB runs past any first read; with FIRST_READ - 6 the width token
    # "12" starts on the last byte of the first read and ends in the next.
    @pytest.mark.parametrize("comment_len", [10_000, io._PPM_FIRST_READ - 6])
    def test_header_longer_than_first_read(self, tmp_path, comment_len):
        p = tmp_path / "img.ppm"
        pixels = bytes(range(36))
        p.write_bytes(b"P6\n#" + b"x" * comment_len + b"\n12 1\n# another\n255\n" + pixels)
        assert io.read_ppm(p).tobytes() == pixels

    def test_trailing_bytes_accepted(self, tmp_path):
        p = tmp_path / "img.ppm"
        pixels = bytes(range(12))
        p.write_bytes(b"P6\n2 2\n255\n" + pixels + b"\n\x00trailing")
        assert io.read_ppm(p).tobytes() == pixels

    @pytest.mark.parametrize("data", [
        b"", b"P6", b"P6\n4 4", b"P6\n4 4\n", b"P6\n4 4\n255", b"P6 4 4 # 255\n",
        b"P6\n4 x\n255\n", b"P6\n4 4\n65535\n", b"P6\n-4 -4\n255\n" + bytes(48),
        b"P6\n4000 4000\n255\n" + bytes(100),
        # 3 TB claimed: refused from the file size, before any allocation
        b"P6\n1000000 1000000\n255\n" + bytes(100),
    ], ids=["empty", "magic-only", "cut-before-maxval", "cut-after-height", "no-space-after-maxval",
            "maxval-in-comment", "bad-height", "16-bit", "negative-size", "short-pixels",
            "huge-claim"])
    def test_malformed_header_rejected(self, tmp_path, data):
        p = tmp_path / "img.ppm"
        p.write_bytes(data)
        with pytest.raises(io.ParseError):
            io.read_ppm(p)

    @staticmethod
    def _read_pipe(data: bytes) -> np.ndarray:
        """read_ppm of a pipe that holds data (small enough for the pipe
        buffer) and whose write end is closed."""
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            w = -1
            return io.read_ppm(f"/dev/fd/{r}")
        finally:
            os.close(r)
            if w >= 0:
                os.close(w)

    # 2x2 lies inside the header read; 40x30 runs past it.
    @pytest.mark.parametrize("shape", [(2, 2, 3), (30, 40, 3)])
    def test_pipe_reads_as_a_file(self, tmp_path, shape):
        img = np.random.default_rng(1).integers(0, 256, size=shape, dtype=np.uint8)
        p = tmp_path / "img.ppm"
        io.write_ppm(img, p)
        got = self._read_pipe(p.read_bytes() + b"trailing")
        assert np.array_equal(got, io.read_ppm(p)) and np.array_equal(got, img)

    @pytest.mark.parametrize("cut", [1, 12, 3000])
    def test_cut_pipe_rejected(self, cut):
        data = b"P6\n40 30\n255\n" + bytes(40 * 30 * 3 - cut)
        with pytest.raises(io.ParseError, match="truncated pixel data$"):
            self._read_pipe(data)

    def test_array_owns_writable_memory(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes(range(6)))
        img = io.read_ppm(p)
        assert img.base is None and img.flags.writeable and img.flags.c_contiguous
        img[0, 0, 0] = 9


def assert_within_one(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes, and every channel value within one grey level."""
    assert got.shape == want.shape
    assert np.abs(got.astype(int) - want.astype(int)).max(initial=0) <= 1


def rounded_boxes(lay: MosaicLayout) -> list[tuple[int, int, int, int]]:
    """Each placement's rounded destination box (x1, y1, x2, y2), unclipped."""
    return [(round(p.dest_x), round(p.dest_y), round(p.dest_x + p.width),
             round(p.dest_y + p.height)) for p in lay.placements]


class TestComposeMosaic:
    def test_identity_placement_byte_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        lay = pack([(BBox(0, 0, 40, 40), 1.0)], 40, padding=0.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        assert np.array_equal(io.read_ppm(out), img)

    def test_scale_two_constant_crop(self, tmp_path):
        img = np.full((20, 20, 3), 77, dtype=np.uint8)
        lay = pack([(BBox(0, 0, 10, 10), 2.0)], 20, padding=0.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        got = io.read_ppm(out)
        assert np.all(got[:20, :20] == 77)

    @pytest.mark.parametrize("placements", [
        [], [Placement(BBox(0, 0, 4, 4), 0.1, 0.0, 0.0)],  # 0.4 px wide: no pixel drawn
    ], ids=["empty", "rounds-to-no-pixel"])
    def test_nothing_drawn_is_black(self, tmp_path, placements):
        img = np.full((10, 10, 3), 200, dtype=np.uint8)
        io.compose_mosaic(MosaicLayout(12, 8, placements), img, tmp_path / "m.ppm")
        got = io.read_ppm(tmp_path / "m.ppm")
        assert got.shape == (8, 12, 3) and not got.any()

    def test_out_of_raster_rejected(self, tmp_path):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        lay = pack([(BBox(0, 0, 40, 40), 1.0)], 60, padding=0.0)
        message = "placement 0 source region (0,0,40,40) outside raster 10x10"
        with pytest.raises(io.CompositionError, match="^" + re.escape(message) + "$"):
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert not (tmp_path / "m.ppm").exists()

    @pytest.mark.parametrize("placements, message", [
        ([Placement(BBox(0, 0, 4, 4), 1.0, 0.0, 0.0),
          Placement(BBox(2.5, 3.5, 10.2, 8), 1.0, 9.0, 0.0)],
         "placement 1 source region (2,3,11,8) outside raster 10x10"),
        ([Placement(BBox(12, 3, 12, 8), 1.0, 0.0, 0.0)],
         "placement 0 source region (12,3,12,8) outside raster 10x10"),
        ([Placement(BBox(0, 0, 40, 40), 1.0, 0.0, 0.0),
          Placement(BBox(0, 0, 4, 4), 1.0, 50.0, 0.0)],
         "placement 0 source region (0,0,40,40) outside raster 10x10"),
        ([Placement(BBox(0, 0, 4, 4), 1.0, 0.0, 25.5),
          Placement(BBox(0, 0, 40, 40), 1.0, 0.0, 0.0)],
         "placement 0 destination (0,26) outside mosaic 30x20"),
        ([Placement(BBox(0, 0, 4, 4), 1.0, 0.0, 0.0),
          Placement(BBox(-0.5, 0, 4, 4), 1.0, 9.0, 0.0),
          Placement(BBox(3, 3, 3, 8), 1.0, 20.0, 0.0)],
         "placement 1 source region (-1,0,4,4) outside raster 10x10"),
    ], ids=["second-placement", "outside-and-empty", "source-before-later-destination",
            "destination-before-later-source", "first-of-two-faults"])
    def test_first_faulty_placement_named(self, tmp_path, placements, message):
        """The first placement with any fault is named, by its first fault in
        the order raster, pixel coverage, destination."""
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        lay = MosaicLayout(30.0, 20.0, placements)
        with pytest.raises(io.CompositionError, match="^" + re.escape(message) + "$"):
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert not (tmp_path / "m.ppm").exists()

    def test_gutter_black(self, tmp_path):
        img = np.full((30, 30, 3), 200, dtype=np.uint8)
        lay = pack([(BBox(0, 0, 10, 10), 1.0)] * 2, 30, padding=4.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        got = io.read_ppm(out)
        assert np.all(got[:, 11:13] == 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_packed_layouts(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(50, 60, 3), dtype=np.uint8)
        regions = []
        for _ in range(int(rng.integers(3, 9))):
            w, h = rng.uniform(1, 15, size=2)
            x, y = rng.uniform(0, 60 - w), rng.uniform(0, 50 - h)
            scale = 1.0 if rng.random() < 0.25 else float(rng.uniform(1, 3))
            regions.append((BBox(x, y, x + w, y + h), scale))
        lay = pack(regions, 50, padding=float(rng.choice([0.0, 1.0])))
        io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert_within_one(io.read_ppm(tmp_path / "m.ppm"), compose_affine_reference(lay, img))

    def test_overhang_overlap_and_edge_clip_match_reference(self, tmp_path):
        img = np.random.default_rng(7).integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        lay = MosaicLayout(30.0, 20.0, [
            # drawn 12 px wide from a 9.8 px source at scale 1.2: overhangs
            # into the next placement, which is drawn over it
            Placement(BBox(2.6, 3.5, 12.4, 9.9), 1.2, 0.0, 0.0),
            Placement(BBox(20.0, 20.0, 26.0, 26.0), 1.0, 11.0, 0.0),
            # reaches past the right and bottom canvas edges: clipped
            Placement(BBox(5.2, 15.1, 14.7, 24.9), 1.6, 22.0, 8.0),
        ])
        io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        got = io.read_ppm(tmp_path / "m.ppm")
        assert_within_one(got, compose_affine_reference(lay, img))
        assert np.array_equal(got[0:6, 11:17], img[20:26, 20:26])

    def test_downscaled_and_raster_edge_placements_match_reference(self, tmp_path):
        img = np.random.default_rng(8).integers(0, 256, size=(40, 50, 3), dtype=np.uint8)
        lay = MosaicLayout(60.0, 30.0, [
            Placement(BBox(3.3, 1.7, 41.9, 29.2), 0.37, 0.0, 0.0),
            Placement(BBox(0.0, 0.0, 50.0, 40.0), 0.5, 20.2, 3.6),
            # samples past the raster edge: neighbours clamp to the last pixel
            Placement(BBox(44.5, 33.25, 50.0, 40.0), 2.6, 46.0, 10.4),
        ])
        io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert_within_one(io.read_ppm(tmp_path / "m.ppm"), compose_affine_reference(lay, img))

    def test_strided_source_view_renders_like_its_copy(self, tmp_path):
        big = np.random.default_rng(9).integers(0, 256, size=(60, 80, 3), dtype=np.uint8)
        view = big[1::2, 3::2]
        lay = pack([(BBox(2.5, 4.25, 20.5, 19.0), 1.7),
                    (BBox(10, 10, 30, 25), 1.0)], 70)
        io.compose_mosaic(lay, view, tmp_path / "a.ppm")
        io.compose_mosaic(lay, view.copy(), tmp_path / "b.ppm")
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    # (29.5, 0.0) rounds half to even, to column 30.
    @pytest.mark.parametrize("dest", [(-1.0, 0.0), (0.0, -2.0), (30.0, 0.0), (0.0, 20.0),
                                      (29.6, 0.0), (45.0, 3.0), (3.0, 25.0), (29.5, 0.0)])
    def test_destination_outside_canvas_rejected(self, tmp_path, dest):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        lay = MosaicLayout(30.0, 20.0, [Placement(BBox(0, 0, 4, 4), 1.5, *dest)])
        with pytest.raises(io.CompositionError, match="destination"):
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert not (tmp_path / "m.ppm").exists()

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize("source", [BBox(3, 3, 3, 8), BBox(3, 3, 8, 3)])
    def test_empty_source_crop_rejected(self, tmp_path, scale, source):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        lay = MosaicLayout(20.0, 20.0, [Placement(BBox(0, 0, 4, 4), 1.0, 10.0, 10.0),
                                        Placement(source, scale, 0.0, 0.0)])
        with pytest.raises(io.CompositionError, match="placement 1 .* covers no pixel"):
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert not (tmp_path / "m.ppm").exists()


class TestComposeAffineRule:
    """Where the pixels land: each placement's exact affine image, inside its
    rounded destination box and nowhere else."""

    def test_bright_pixel_lands_where_to_mosaic_maps_it(self, tmp_path):
        rng = np.random.default_rng(31)
        for case in range(60):
            scale = 1.0 if case % 5 == 0 else float(rng.uniform(1, 3))
            x, y = rng.uniform(0, 20, size=2)
            w, h = rng.uniform(3, 12, size=2)
            dx, dy = rng.uniform(0, 10, size=2)
            # a source pixel whose centre lies at least 1 px inside the region
            px = int(rng.integers(math.ceil(x + 0.5), math.floor(x + w - 1.5) + 1))
            py = int(rng.integers(math.ceil(y + 0.5), math.floor(y + h - 1.5) + 1))
            img = np.zeros((40, 40, 3), dtype=np.uint8)
            img[py, px] = 255
            lay = MosaicLayout(dx + scale * w + 3, dy + scale * h + 3,
                               [Placement(BBox(x, y, x + w, y + h), scale, dx, dy)])
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")
            got = io.read_ppm(tmp_path / "m.ppm").sum(axis=2)
            r, c = np.unravel_index(np.argmax(got), got.shape)
            centre = to_mosaic(BBox(px + 0.5, py + 0.5, px + 0.5, py + 0.5), lay)
            assert abs(c + 0.5 - centre.x1) <= 1 and abs(r + 0.5 - centre.y1) <= 1, (
                case, (r, c), centre)

    @pytest.mark.parametrize("seed", range(6))
    def test_writes_exactly_the_rounded_destination_boxes(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        img = rng.integers(1, 256, size=(50, 60, 3), dtype=np.uint8)  # no black pixel
        regions = []
        for _ in range(int(rng.integers(3, 12))):
            w, h = rng.uniform(1, 15, size=2)
            x, y = rng.uniform(0, 60 - w), rng.uniform(0, 50 - h)
            scale = 1.0 if rng.random() < 0.25 else float(rng.uniform(1, 3))
            regions.append((BBox(x, y, x + w, y + h), scale))
        lay = pack(regions, 50, padding=float(rng.choice([0.0, 1.0, 2.5])))
        io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        inside = np.zeros((math.ceil(lay.mosaic_height), 50), dtype=bool)
        for x1, y1, x2, y2 in rounded_boxes(lay):
            inside[y1:y2, x1:x2] = True
        assert np.array_equal(io.read_ppm(tmp_path / "m.ppm").any(axis=2), inside)

    def test_packed_rounded_boxes_are_disjoint(self):
        rng = np.random.default_rng(41)
        layouts = []
        for _ in range(40):
            regions = []
            for _ in range(int(rng.integers(2, 30))):
                w, h = rng.uniform(0.5, 30, size=2)
                x, y = rng.uniform(0, 100, size=2)
                regions.append((BBox(x, y, x + w, y + h), float(rng.uniform(1, 3))))
            layouts.append(pack(regions, 100, padding=float(rng.uniform(1, 4))))
        spec = SceneSpec(seed=5)
        layouts.append(build_layout(generate_scene(spec)[1], spec.extent, PipelineConfig())[1])
        for lay in layouts:
            b = np.array(rounded_boxes(lay))
            overlap = ((b[:, None, 0] < b[None, :, 2]) & (b[None, :, 0] < b[:, None, 2])
                       & (b[:, None, 1] < b[None, :, 3]) & (b[None, :, 1] < b[:, None, 3]))
            np.fill_diagonal(overlap, False)
            assert not overlap.any()


class TestAtomicWrites:
    def test_no_partial_file_on_error(self, tmp_path, monkeypatch):
        import os

        target = tmp_path / "out.json"

        class Boom(Exception):
            pass

        def exploding_replace(*a, **k):
            raise Boom

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(Boom):
            io.save_layout(pack([], 100), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up too

    def test_text_and_buffer_parts_in_order(self, tmp_path):
        target = tmp_path / "out.bin"
        pixels = np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
        io.atomic_write(target, "hé\n", b"\x00", pixels)
        assert target.read_bytes() == "hé\n".encode() + b"\x00" + bytes(range(6))

    def test_ppm_of_strided_view(self, tmp_path):
        img = np.random.default_rng(5).integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
        view = img[::2, ::3]
        io.write_ppm(view, tmp_path / "v.ppm")
        assert np.array_equal(io.read_ppm(tmp_path / "v.ppm"), view)


class TestJsonl:
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_rejected_without_file(self, tmp_path, bad):
        target = tmp_path / "r.jsonl"
        with pytest.raises(ValueError):
            io.save_jsonl([{"a": 1.0}, {"a": bad}], target)
        assert list(tmp_path.iterdir()) == []

    def test_none_written_as_null(self, tmp_path):
        target = tmp_path / "r.jsonl"
        io.save_jsonl([{"a": None, "b": 0.5}], target)
        assert target.read_text() == '{"a": null, "b": 0.5}\n'
        assert load_jsonl(target) == [{"a": None, "b": 0.5}]

class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        gt = [BBox(0, 0, 10, 10)]
        coarse = [Detection(BBox(1, 1, 9, 9), 0.75, 0)]
        p = tmp_path / "scene.json"
        io.save_scene((100, 80), gt, coarse, p)
        (w, h), gt2, coarse2, image_id = io.load_scene(p)
        assert (w, h) == (100, 80) and image_id == 0
        assert [d.box for d in gt2] == gt and coarse2 == coarse

    @staticmethod
    def _scene(tmp_path, gt_id, coarse_id):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({
            "image_size": [100, 80],
            "ground_truth": [{"image_id": gt_id, "bbox": [0, 0, 10, 10]}],
            "coarse": [{"image_id": coarse_id, "bbox": [1, 1, 8, 8], "score": 0.75}],
        }))
        return p

    def test_scene_of_one_nonzero_id_loads(self, tmp_path):
        _, gt, coarse, image_id = io.load_scene(self._scene(tmp_path, 5, 5))
        assert image_id == 5 and gt == [Detection(BBox(0, 0, 10, 10), 1.0, 0)]
        assert coarse == [Detection(BBox(1, 1, 9, 9), 0.75, 0)]

    def test_one_parser_behind_both_readers(self, tmp_path):
        p = self._scene(tmp_path, 5, 5)
        _, gt, coarse, _ = io.load_scene(p)
        assert io.load_detections_or_scene(p, "ground_truth") == {5: gt}
        assert io.load_detections_or_scene(p, "coarse", ImageExtent(100, 80)) == {5: coarse}
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps(json.loads(p.read_text())["coarse"]))
        assert io.load_detections_or_scene(dets, "coarse") == io.load_detections(dets)

    @pytest.mark.parametrize("part", ["coarse", "ground_truth"])
    def test_scene_of_no_records_names_no_image(self, tmp_path, part):
        p = tmp_path / "scene.json"
        io.save_scene((100, 80), [], [], p)
        assert io.load_detections_or_scene(p, part) == {}

    def test_detection_reader_refuses_scene(self, tmp_path):
        with pytest.raises(io.ParseError, match="expected an array of detection records"):
            io.load_detections(self._scene(tmp_path, 0, 0))

    @pytest.mark.parametrize("records", [
        {"ground_truth": None}, {"ground_truth": {"bbox": [0, 0, 1, 1]}}, {"coarse": 3},
        {"coarse": {}}])
    def test_records_not_an_array_rejected(self, tmp_path, records):
        p = self._scene(tmp_path, 0, 0)
        doc = {**json.loads(p.read_text()), **records}
        p.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        with pytest.raises(io.ParseError, match="ground_truth array and an optional coarse"):
            io.load_scene(p)

    @pytest.mark.parametrize("gt_id, coarse_id", [(0, 1), (0, 0.0), (False, 0)])
    def test_scene_of_two_ids_rejected(self, tmp_path, gt_id, coarse_id):
        if type(gt_id) is type(coarse_id):
            message = (f"ground truth detections are of image_id {gt_id!r}, "
                       f"coarse detections of image_id {coarse_id!r}")
        else:  # the id that is not a JSON integer is refused by its record
            message = r"invalid detection records at indices \[0\]"
        with pytest.raises(io.ValidationError, match=message):
            io.load_scene(self._scene(tmp_path, gt_id, coarse_id))

    @pytest.mark.parametrize("gt_id, coarse_id, array", [
        (False, 0, "ground_truth"), (0, 0.0, "coarse")])
    def test_bad_record_names_its_array(self, tmp_path, gt_id, coarse_id, array):
        p = self._scene(tmp_path, gt_id, coarse_id)
        with pytest.raises(io.ValidationError) as e:
            io.load_scene(p)
        assert str(e.value) == f"{p}: {array}: invalid detection records at indices [0]"

    @pytest.mark.parametrize("size", [
        None, [100], [100, 80, 3], "100x80", {"w": 100, "h": 80}, [math.nan, 80],
        [100, math.inf], [0, 80], [100, -1.5], ["100", 80], [True, 80], [10**400, 80],
    ])
    def test_bad_image_size_rejected(self, tmp_path, size):
        p = self._scene(tmp_path, 0, 0)
        doc = json.loads(p.read_text())
        if size is None:
            del doc["image_size"]
        else:
            doc["image_size"] = size
        p.write_text(json.dumps(doc))
        with pytest.raises(io.ParseError, match="image_size must be a pair of finite positive"):
            io.load_scene(p)

    def test_float_image_size_loads(self, tmp_path):
        p = self._scene(tmp_path, 0, 0)
        p.write_text(p.read_text().replace("[100, 80]", "[100.5, 1e-3]"))
        (w, h), _, _, _ = io.load_scene(p)
        assert (w, h) == (100.5, 1e-3) and type(w) is float
