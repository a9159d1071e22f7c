from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import bilinear_reference, compose_reference
from ufppack import io
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox
from ufppack.mosaic import MosaicLayout, Placement, ScaledRegion, pack
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

    def test_array_owns_writable_memory(self, tmp_path):
        p = tmp_path / "img.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes(range(6)))
        img = io.read_ppm(p)
        assert img.base is None and img.flags.writeable and img.flags.c_contiguous
        img[0, 0, 0] = 9


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

    def test_matches_reference_seeded_property(self):
        """Up- and down-scaling, 1-4 channels, strided crop views, size-1
        edges and 0/255 checkerboards, all bit-identical to the scalar loop."""
        rng = np.random.default_rng(21)
        for case in range(300):
            in_h, in_w = (int(v) for v in rng.integers(1, 10, size=2))
            out_h, out_w = (int(v) for v in rng.integers(1, 16, size=2))
            channels = int(rng.integers(1, 5))
            if case % 3 == 0:
                yy, xx = np.indices((in_h, in_w))
                img = np.repeat((255 * ((yy + xx) % 2)).astype(np.uint8)[..., None],
                                channels, axis=2)
            else:
                img = rng.integers(0, 256, size=(in_h, in_w, channels), dtype=np.uint8)
            if case % 2:  # a crop view with row and column strides, as compose takes
                big = rng.integers(0, 256, size=(2 * in_h + 3, 3 * in_w + 2, channels),
                                   dtype=np.uint8)
                big[1:1 + 2 * in_h:2, 2:2 + 3 * in_w:3] = img
                img = big[1:1 + 2 * in_h:2, 2:2 + 3 * in_w:3]
            got = io.bilinear_resize(img, out_h, out_w)
            want = bilinear_reference(img, out_h, out_w)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), (case, img.shape, out_h, out_w)

    def test_non_uint8_image_rounded_and_clipped_like_reference(self):
        img = np.random.default_rng(23).normal(128, 150, size=(6, 5, 3))
        assert np.array_equal(io.bilinear_resize(img, 11, 4), bilinear_reference(img, 11, 4))

    def test_empty_output(self):
        img = np.zeros((4, 5, 3), dtype=np.uint8)
        assert io.bilinear_resize(img, 0, 3).shape == (0, 3, 3)
        assert io.bilinear_resize(img, 2, 0).shape == (2, 0, 3)

    def test_two_dimensional_image(self):
        img = np.random.default_rng(22).integers(0, 256, size=(5, 8), dtype=np.uint8)
        got = io.bilinear_resize(img, 9, 3)
        assert got.shape == (9, 3)
        assert np.array_equal(got, bilinear_reference(img[..., None], 9, 3)[..., 0])


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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_packed_layouts(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(50, 60, 3), dtype=np.uint8)
        regions = []
        for _ in range(int(rng.integers(3, 9))):
            w, h = rng.uniform(1, 15, size=2)
            x, y = rng.uniform(0, 60 - w), rng.uniform(0, 50 - h)
            scale = 1.0 if rng.random() < 0.25 else float(rng.uniform(1, 3))
            regions.append(ScaledRegion(BBox(x, y, x + w, y + h), scale))
        lay = pack(regions, 50, padding=float(rng.choice([0.0, 1.0])))
        io.compose_mosaic(lay, img, tmp_path / "m.ppm")
        assert np.array_equal(io.read_ppm(tmp_path / "m.ppm"), compose_reference(lay, img))

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
        assert np.array_equal(got, compose_reference(lay, img))
        assert np.array_equal(got[0:6, 11:17], img[20:26, 20:26])

    @pytest.mark.parametrize("dest", [(-1.0, 0.0), (0.0, -2.0), (30.0, 0.0), (0.0, 20.0),
                                      (29.6, 0.0), (45.0, 3.0), (3.0, 25.0)])
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
        assert io.load_jsonl(target) == [{"a": None, "b": 0.5}]

class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        gt = [BBox(0, 0, 10, 10)]
        coarse = [Detection(BBox(1, 1, 9, 9), 0.75, 0)]
        p = tmp_path / "scene.json"
        io.save_scene((100, 80), gt, coarse, p)
        (w, h), gt2, coarse2 = io.load_scene(p)
        assert (w, h) == (100, 80)
        assert gt2 == gt and coarse2 == coarse
