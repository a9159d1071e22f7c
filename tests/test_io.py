from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import bilinear_reference
from ufppack import io
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox
from ufppack.mosaic import ScaledRegion, pack
from ufppack.remap import Detection


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

    def test_negative_extent_named(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps([{"image_id": 0, "bbox": [0, 0, -1, 5], "score": 0.5,
                                  "category_id": 0}]))
        with pytest.raises(io.ValidationError, match=r"\[0\]"):
            io.load_detections(p)

    @pytest.mark.parametrize("bad", [
        {"bbox": [float("nan"), 0, 1, 1]}, {"bbox": [0, 0, float("inf"), 1]},
        {"bbox": [0, 0, 1, float("nan")]}, {"bbox": [0, 0, 1, 1], "score": float("nan")},
    ])
    def test_non_finite_rejected(self, bad):
        good = {"image_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0}
        with pytest.raises(io.ValidationError, match=r"\[1\]"):
            io.detections_from_records([good, {**good, **bad}])

    def test_malformed_json_position(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('[{"bbox": [0, 0, 1')
        with pytest.raises(io.ParseError, match="line"):
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
            ScaledRegion(BBox(0.1, 0.2, 50.7, 50.9), 1.37),
            ScaledRegion(BBox(3, 4, 33, 44), 1.0),
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

    def test_schema_violation(self, tmp_path):
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"mosaic": {"width": 10, "height": 10}}))
        with pytest.raises(io.ParseError):
            io.load_layout(p)


class TestConfigRoundtrip:
    def test_identity(self):
        cfg = PipelineConfig(beta=1.7, seed=9)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"betaa": 1.5})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            PipelineConfig(beta=0.5)
        with pytest.raises(ValueError):
            PipelineConfig(nms_iou=1.5)


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


class TestBilinear:
    def test_identity(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        assert np.array_equal(io.bilinear_resize(img, 5, 7), img)

    def test_constant_field(self):
        img = np.full((4, 4, 3), 99, dtype=np.uint8)
        out = io.bilinear_resize(img, 8, 8)
        assert np.all(out == 99)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
        got = io.bilinear_resize(img, 4, 4)
        want = bilinear_reference(img, 4, 4)
        assert np.array_equal(got, want)

    def test_matches_reference_nonuniform(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        assert np.array_equal(io.bilinear_resize(img, 13, 7), bilinear_reference(img, 13, 7))


class TestComposeMosaic:
    def test_identity_placement_byte_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        lay = pack([ScaledRegion(BBox(0, 0, 40, 40), 1.0)], 40, padding=0.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        assert np.array_equal(io.read_ppm(out), img)

    def test_scale_two_constant_crop(self, tmp_path):
        img = np.full((20, 20, 3), 77, dtype=np.uint8)
        lay = pack([ScaledRegion(BBox(0, 0, 10, 10), 2.0)], 20, padding=0.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        got = io.read_ppm(out)
        assert np.all(got[:20, :20] == 77)

    def test_out_of_raster_rejected(self, tmp_path):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        lay = pack([ScaledRegion(BBox(0, 0, 40, 40), 1.0)], 60, padding=0.0)
        with pytest.raises(io.CompositionError):
            io.compose_mosaic(lay, img, tmp_path / "m.ppm")

    def test_gutter_black(self, tmp_path):
        img = np.full((30, 30, 3), 200, dtype=np.uint8)
        lay = pack([ScaledRegion(BBox(0, 0, 10, 10), 1.0)] * 2, 30, padding=4.0)
        out = tmp_path / "m.ppm"
        io.compose_mosaic(lay, img, out)
        got = io.read_ppm(out)
        assert np.all(got[:, 11:13] == 0)


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


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        gt = [BBox(0, 0, 10, 10)]
        coarse = [Detection(BBox(1, 1, 9, 9), 0.75, 0)]
        p = tmp_path / "scene.json"
        io.save_scene((100, 80), gt, coarse, p)
        (w, h), gt2, coarse2 = io.load_scene(p)
        assert (w, h) == (100, 80)
        assert gt2 == gt and coarse2 == coarse
