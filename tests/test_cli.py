from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ufppack
from oracles import load_jsonl
from ufppack import io
from ufppack.cli import main
from ufppack.geometry import BBox
from ufppack.metrics import SceneSpec
from ufppack.mosaic import pack
from ufppack.remap import Detection


def _write_detections(path, records):
    # JSON has no infinity; an infinite float is written as 1e400, a number
    # that a JSON reader overflows to infinity.
    path.write_text(json.dumps(records).replace("Infinity", "1e400"))
    return str(path)


def _det_record(x, y, w, h, score=0.9, cat=0):
    return {"image_id": 0, "bbox": [x, y, w, h], "score": score, "category_id": cat}


@pytest.fixture
def three_box_file(tmp_path):
    return _write_detections(
        tmp_path / "dets.json",
        [
            _det_record(0, 0, 10, 10),
            _det_record(5, 0, 10, 10),
            _det_record(100, 100, 10, 10),
        ],
    )


class TestPackCommand:
    def test_three_box_pipeline(self, tmp_path, three_box_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 1.0, "fixed_size": 1.0}))
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", three_box_file, "--image-size", "200x200",
            "--config", str(cfg), "--out-layout", str(out),
        ])
        assert rc == 0
        layout = io.load_layout(out)
        assert len(layout.placements) == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main([
            "pack", "--detections", str(tmp_path / "nope.json"),
            "--image-size", "100x100", "--out-layout", str(tmp_path / "o.json"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_record_exit_1(self, tmp_path, capsys):
        bad = _write_detections(tmp_path / "bad.json", [_det_record(0, 0, -5, 10)])
        rc = main([
            "pack", "--detections", bad, "--image-size", "100x100",
            "--out-layout", str(tmp_path / "o.json"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"category_id": 1.7}, {"category_id": "2"}, {"category_id": True},
        {"score": "0.5"}, {"score": True}, {"image_id": None}, {"image_id": 1.0},
        {"image_id": True}, {"image_id": [1]}, {"image_id": math.inf},
        {"bbox": [True, 10, 20, 20]}, {"bbox": [20, 0, "10", 10]},
    ])
    def test_wrong_json_type_exit_1_without_output(self, tmp_path, capsys, bad):
        records = [_det_record(0, 0, 10, 10), {**_det_record(20, 0, 10, 10), **bad}]
        dets = _write_detections(tmp_path / "bad.json", records)
        out = tmp_path / "layout.json"
        rc = main(["pack", "--detections", dets, "--image-size", "100x100",
                   "--out-layout", str(out)])
        assert rc == 1 and not out.exists()
        captured = capsys.readouterr()
        assert "invalid detection records at indices [1]" in captured.err
        assert captured.out == ""

    def test_nan_record_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('[{"image_id": 0, "bbox": [NaN, 0, 10, 10], "score": 0.9}]')
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", str(bad), "--image-size", "100x100",
            "--out-layout", str(out),
        ])
        assert rc == 1 and not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("off_image", [(4995, 4995, 5, 5), (-30, 10, 20, 20)])
    def test_detection_outside_image_exit_1_without_output(self, tmp_path, capsys, off_image):
        dets = _write_detections(tmp_path / "dets.json", [
            _det_record(300, 200, 40, 30), _det_record(*off_image), _det_record(10, 10, 5, 5),
        ])
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", dets, "--image-size", "640x480", "--out-layout", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and not out.exists() and captured.out == ""
        assert captured.err == "error: detection 1 lies outside the 640x480 image\n"

    def test_image_without_out_mosaic_writes_nothing(self, tmp_path, three_box_file):
        image = tmp_path / "in.ppm"
        io.write_ppm(np.zeros((200, 200, 3), dtype=np.uint8), image)
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", three_box_file, "--image-size", "200x200",
            "--out-layout", str(out), "--image", str(image),
        ])
        assert rc == 1 and not out.exists()

    def test_out_mosaic_without_image_writes_nothing(self, tmp_path, capsys, three_box_file):
        out, mosaic = tmp_path / "layout.json", tmp_path / "mosaic.ppm"
        rc = main([
            "pack", "--detections", three_box_file, "--image-size", "200x200",
            "--out-layout", str(out), "--out-mosaic", str(mosaic),
        ])
        captured = capsys.readouterr()
        assert rc == 1 and "--image and --out-mosaic" in captured.err
        assert captured.out == "" and not out.exists() and not mosaic.exists()

    def test_raster_smaller_than_image_size_writes_nothing(self, tmp_path, capsys):
        dets = _write_detections(tmp_path / "dets.json", [
            _det_record(300, 200, 40, 30), _det_record(500, 400, 60, 50),
        ])
        image = tmp_path / "in.ppm"
        io.write_ppm(np.zeros((100, 100, 3), dtype=np.uint8), image)
        layout, mosaic = tmp_path / "layout.json", tmp_path / "mosaic.ppm"
        rc = main([
            "pack", "--detections", dets, "--image-size", "640x480",
            "--out-layout", str(layout), "--image", str(image), "--out-mosaic", str(mosaic),
        ])
        assert rc == 1 and "outside raster" in capsys.readouterr().err
        assert not layout.exists() and not mosaic.exists()

    def test_unwritable_layout_leaves_no_mosaic(self, tmp_path, three_box_file):
        image = tmp_path / "in.ppm"
        io.write_ppm(np.zeros((200, 200, 3), dtype=np.uint8), image)
        mosaic = tmp_path / "mosaic.ppm"
        rc = main([
            "pack", "--detections", three_box_file, "--image-size", "200x200",
            "--out-layout", str(tmp_path / "missing" / "layout.json"),
            "--image", str(image), "--out-mosaic", str(mosaic),
        ])
        assert rc == 2 and not mosaic.exists()

    @pytest.mark.parametrize("bad", [
        '{"mosaic_width": Infinity}', '{"mosaic_width": NaN}', '{"fixed_size": NaN}',
        '{"beta": NaN}', '{"beta": Infinity}',
        pytest.param('{"padding": %d}' % 10**400, id="padding-past-the-float-range"),
    ])
    def test_non_finite_config_exit_1_without_output(self, tmp_path, capsys,
                                                     three_box_file, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(bad)
        image = tmp_path / "in.ppm"
        io.write_ppm(np.zeros((200, 200, 3), dtype=np.uint8), image)
        layout, mosaic = tmp_path / "layout.json", tmp_path / "mosaic.ppm"
        args = ["pack", "--detections", three_box_file, "--image-size", "200x200",
                "--config", str(cfg), "--out-layout", str(layout)]
        for render in ([], ["--image", str(image), "--out-mosaic", str(mosaic)]):
            assert main(args + render) == 1
            assert "error:" in capsys.readouterr().err
            assert not layout.exists() and not mosaic.exists()

    def test_no_output_on_parse_error(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("[{")
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", str(broken), "--image-size", "100x100",
            "--out-layout", str(out),
        ])
        assert rc == 2 and not out.exists()


class TestUnpackCommand:
    def test_empty_fine_equals_nms_of_coarse(self, tmp_path):
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        fine = _write_detections(tmp_path / "fine.json", [])
        coarse = _write_detections(
            tmp_path / "coarse.json",
            [_det_record(0, 0, 10, 10, 0.9), _det_record(1, 0, 10, 10, 0.8)],
        )
        out = tmp_path / "fused.json"
        rc = main([
            "unpack", "--fine", fine, "--layout", str(layout),
            "--coarse", coarse, "--out", str(out),
        ])
        assert rc == 0
        fused = io.load_detections(out)[0]
        assert len(fused) == 1 and fused[0].score == 0.9

    def test_remap_and_fuse(self, tmp_path):
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(100, 100, 150, 150), 2.0)], 120), layout)
        fine = _write_detections(tmp_path / "fine.json", [_det_record(0, 0, 20, 20, 0.7)])
        coarse = _write_detections(tmp_path / "coarse.json", [])
        out = tmp_path / "fused.json"
        assert main([
            "unpack", "--fine", fine, "--layout", str(layout),
            "--coarse", coarse, "--out", str(out),
        ]) == 0
        fused = io.load_detections(out)[0]
        assert fused[0].box == BBox(100, 100, 110, 110)

    @staticmethod
    def _unpack_ids(tmp_path, fine_id, coarse_id):
        # One fine detection remapped into the source, one coarse detection
        # apart from it; an id of None makes that file empty.
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(100, 100, 150, 150), 2.0)], 120), layout)
        fine = _write_detections(tmp_path / "fine.json", [] if fine_id is None else [
            {**_det_record(0, 0, 20, 20, 0.7), "image_id": fine_id}])
        coarse = _write_detections(tmp_path / "coarse.json", [] if coarse_id is None else [
            {**_det_record(0, 0, 10, 10, 0.9), "image_id": coarse_id}])
        out = tmp_path / "fused.json"
        rc = main(["unpack", "--fine", fine, "--layout", str(layout),
                   "--coarse", coarse, "--out", str(out)])
        return rc, out

    @pytest.mark.parametrize("fine_id, coarse_id, want", [
        (7, 7, 7), ("img-3", "img-3", "img-3"), (None, 9, 9), (7, None, 7), (None, None, 0)])
    def test_writes_the_inputs_image_id(self, tmp_path, fine_id, coarse_id, want):
        rc, out = self._unpack_ids(tmp_path, fine_id, coarse_id)
        assert rc == 0
        records = json.loads(out.read_text())
        assert len(records) == (fine_id is not None) + (coarse_id is not None)
        assert all(r["image_id"] == want for r in records)

    def test_mismatched_image_ids_exit_1_without_output(self, tmp_path, capsys):
        rc, out = self._unpack_ids(tmp_path, 7, 9)
        assert rc == 1
        captured = capsys.readouterr()
        assert "fine detections are of image_id 7, coarse detections of image_id 9" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("fine_id, coarse_id", [(True, 1.0), (True, 1), (1, 1.0), (0, False)])
    def test_ids_of_different_json_type_exit_1_without_output(self, tmp_path, capsys,
                                                              fine_id, coarse_id):
        rc, out = self._unpack_ids(tmp_path, fine_id, coarse_id)
        assert rc == 1
        captured = capsys.readouterr()
        assert "invalid detection records at indices [0]" in captured.err
        assert captured.out == "" and not out.exists()

    def test_out_directory_exit_2_without_temp_file(self, tmp_path, capsys, three_box_file):
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "fused"
        out.mkdir()
        before = sorted(tmp_path.iterdir())
        assert main(["unpack", "--fine", three_box_file, "--layout", str(layout),
                     "--coarse", three_box_file, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before and not any(out.iterdir())

    @pytest.mark.parametrize("height", ["NaN", "Infinity", "-1", '"100"', "true"])
    def test_unusable_mosaic_size_exit_2_without_output(self, tmp_path, capsys,
                                                        three_box_file, height):
        layout = tmp_path / "layout.json"
        layout.write_text('{"mosaic": {"width": 100, "height": %s}, "placements": []}' % height)
        out = tmp_path / "fused.json"
        assert main(["unpack", "--fine", three_box_file, "--layout", str(layout),
                     "--coarse", three_box_file, "--out", str(out)]) == 2
        assert "invalid layout document" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowingBox:
    """A record whose corners are finite but whose x + w or y + h overflows is
    rejected by its index: exit 1, no output."""

    @pytest.mark.parametrize("bbox", [[1e308, 5, 1e308, 10], [5, 1e308, 10, 1e308]])
    @pytest.mark.parametrize("command", ["pack", "unpack-coarse", "unpack-fine", "stats"])
    def test_exit_1_without_output(self, tmp_path, capsys, three_box_file, command, bbox):
        bad = _write_detections(tmp_path / "bad.json",
                                [_det_record(0, 0, 10, 10), _det_record(*bbox)])
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        args = {
            "pack": ["pack", "--detections", bad, "--image-size", "200x200",
                     "--out-layout", str(out)],
            "unpack-coarse": ["unpack", "--fine", three_box_file, "--layout", str(layout),
                              "--coarse", bad, "--out", str(out)],
            "unpack-fine": ["unpack", "--fine", bad, "--layout", str(layout),
                            "--coarse", three_box_file, "--out", str(out)],
            "stats": ["stats", "--boxes", bad, "--image-size", "200x200"],
        }[command]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "invalid detection records at indices [1]" in captured.err
        assert captured.out == "" and not out.exists()


class TestHugeImageSize:
    """An image whose area is past the float range is refused at the argument:
    exit 2 and no output. A huge box otherwise runs without overflow warnings."""

    @pytest.mark.parametrize("command", ["pack", "stats"])
    def test_infinite_area_exit_2_without_output(self, tmp_path, capsys, command):
        dets = _write_detections(tmp_path / "dets.json", [
            _det_record(0, 0, 1e160, 1e160), _det_record(5e199, 5e199, 1e160, 1e160)])
        out = tmp_path / "layout.json"
        args = {"pack": ["pack", "--detections", dets, "--out-layout", str(out)],
                "stats": ["stats", "--boxes", dets]}[command]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--image-size", "1e200x1e200"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "extent area must be finite, got 1e+200x1e+200" in captured.err
        assert captured.out == "" and not out.exists()

    def test_too_wide_region_refusal_prints_short_widths(self, tmp_path, capsys):
        dets = _write_detections(tmp_path / "dets.json", [_det_record(0, 0, 1e300, 1e-300)])
        out = tmp_path / "layout.json"
        assert main(["pack", "--detections", dets, "--image-size", "1e300x1e-300",
                     "--out-layout", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith(" is 9.6e+301 px wide; strip allows 1329\n")
        assert captured.out == "" and not out.exists()

    def test_overflowed_area_sum_reaches_the_strip_refusal(self, tmp_path, capsys):
        # Two regions of area 1.7e308 merge (their area sum overflows) into
        # one region too wide for the strip.
        dets = _write_detections(tmp_path / "dets.json", [_det_record(0, 0, 1e154, 1.7e154)] * 2)
        out = tmp_path / "layout.json"
        assert main(["pack", "--detections", dets, "--image-size", "1e154x1.7e154",
                     "--out-layout", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: region 0 ")
        assert captured.err.endswith(" is 1e+154 px wide; strip allows 1329\n")
        assert captured.out == "" and not out.exists()

    def test_unpack_huge_coarse_box(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        fine = _write_detections(tmp_path / "fine.json", [])
        coarse = _write_detections(tmp_path / "coarse.json", [_det_record(0, 0, 1e300, 1e300)])
        out = tmp_path / "fused.json"
        assert main(["unpack", "--fine", fine, "--layout", str(layout),
                     "--coarse", coarse, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "fused 1 coarse + 0 remapped fine -> 1 detections\n"
        assert io.load_detections(out)[0][0].box == BBox(0, 0, 1e300, 1e300)


class TestRemovedConfigKeys:
    """Keys of settings that no command reads fail loudly."""

    @pytest.mark.parametrize("key", ["seed", "sinkhorn_epsilon", "dbscan_eps"])
    @pytest.mark.parametrize("command", ["pack", "unpack"])
    def test_exit_1_without_output(self, tmp_path, capsys, three_box_file, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 1.5, key: 1}))
        out = tmp_path / "out.json"
        if command == "pack":
            args = ["pack", "--detections", three_box_file, "--image-size", "200x200",
                    "--out-layout", str(out)]
        else:
            layout = tmp_path / "layout.json"
            io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
            args = ["unpack", "--fine", three_box_file, "--layout", str(layout),
                    "--coarse", three_box_file, "--out", str(out)]
        assert main(args + ["--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("train-sim", "proxy_init"), ("synth", "bogus")])
    def test_train_config_or_spec_exit_1_without_output(self, tmp_path, capsys, command, key):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"steps": 3, key: "kmeans"} if command == "train-sim"
                                  else {"n_objects": 10, key: 1}))
        out = tmp_path / "out.json"
        flag = "--config" if command == "train-sim" else "--spec"
        assert main([command, flag, str(doc), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"unknown config keys: [{key!r}]" in captured.err
        assert captured.out == "" and not out.exists()


class TestWrongJsonTypeConfig:
    """A config or spec value of the wrong JSON type fails with exit 1 and
    its field: an int field takes an integer, a float field a number, a bool
    field true or false, and a bool is no number. A spec value that is not
    finite or is out of its range fails the same way."""

    @pytest.mark.parametrize("bad, message", [
        ({"beta": True}, "beta must be a JSON number, got True"),
        ({"padding": "2"}, "padding must be a JSON number, got '2'"),
        ({"nms_iou": None}, "nms_iou must be a JSON number, got None"),
    ])
    @pytest.mark.parametrize("command", ["pack", "unpack"])
    def test_pipeline_config_exit_1_without_output(self, tmp_path, capsys, three_box_file,
                                                   command, bad, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "out.json"
        if command == "pack":
            args = ["pack", "--detections", three_box_file, "--image-size", "200x200",
                    "--out-layout", str(out)]
        else:
            layout = tmp_path / "layout.json"
            io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
            args = ["unpack", "--fine", three_box_file, "--layout", str(layout),
                    "--coarse", three_box_file, "--out", str(out)]
        assert main(args + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("bad, message", [
        ({"seed": True}, "seed must be a JSON integer, got True"),
        ({"n_objects": 10.0}, "n_objects must be a JSON integer, got 10.0"),
        ({"extent": "2000x1500"}, "extent must be an array of 2 values, got '2000x1500'"),
        ({"extent": [2000, 1500, 3]}, "extent must be an array of 2 values, got [2000, 1500, 3]"),
        ({"extent": [2000, "1500"]}, "extent[1] must be a JSON number, got '1500'"),
        ({"proportions": [True, False, False]}, "proportions[0] must be a JSON number, got True"),
        ({"target_fr": False}, "target_fr must be a JSON number, got False"),
        ({"scale_jitter": math.nan}, "scale_jitter must be finite, got nan"),
        ({"center_jitter": math.inf}, "center_jitter must be finite, got inf"),
        ({"drop_rate": math.nan}, "drop_rate must be finite, got nan"),
        ({"target_fr": -math.inf}, "target_fr must be finite, got -inf"),
        ({"proportions": [0.5, math.nan, 0.5]}, "proportions must be finite, got (0.5, nan, 0.5)"),
        ({"drop_rate": 2.0}, "drop_rate must be at most 1, got 2.0"),
        ({"drop_rate": -1}, "drop_rate must be nonnegative, got -1"),
        ({"center_jitter": -0.1}, "center_jitter must be nonnegative, got -0.1"),
        ({"scale_jitter": -0.1}, "scale_jitter must be nonnegative, got -0.1"),
        pytest.param({"target_fr": 10**400}, f"target_fr must be finite, got {10**400}",
                     id="target_fr-past-the-float-range"),
        pytest.param({"extent": [10**400, 100]},
                     f"extent must be positive and finite, got {10**400}x100",
                     id="extent-past-the-float-range"),
        pytest.param({"proportions": [1.5, -0.5, 0]},
                     "proportions must be nonnegative, got (1.5, -0.5, 0)",
                     id="negative-proportion-summing-to-1"),
        pytest.param({"n_objects": 10**20}, f"n_objects must be at most 2**50, got {10**20}",
                     id="n_objects-past-uint64"),
        pytest.param({"n_objects": 2**63}, f"n_objects must be at most 2**50, got {2**63}",
                     id="n_objects-past-int64"),
        pytest.param({"seed": -1}, "seed must be nonnegative, got -1", id="negative-seed"),
    ])
    def test_synth_spec_exit_1_without_output(self, tmp_path, capsys, bad, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_objects": 10, **bad}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()


class TestMultiImageInput:
    """A detection file with more than one image_id is refused, not flattened
    into one layout: exit 1, no output."""

    @pytest.mark.parametrize("command", ["pack", "unpack-coarse", "unpack-fine", "stats"])
    def test_exit_1_without_output(self, tmp_path, capsys, three_box_file, command):
        two = _write_detections(tmp_path / "two.json", [
            {**_det_record(0, 0, 10, 10), "image_id": 1},
            {**_det_record(50, 50, 10, 10), "image_id": 2},
        ])
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        args = {
            "pack": ["pack", "--detections", two, "--image-size", "200x200",
                     "--out-layout", str(out)],
            "unpack-coarse": ["unpack", "--fine", three_box_file, "--layout", str(layout),
                              "--coarse", two, "--out", str(out)],
            "unpack-fine": ["unpack", "--fine", two, "--layout", str(layout),
                            "--coarse", three_box_file, "--out", str(out)],
            "stats": ["stats", "--boxes", two, "--image-size", "200x200",
                      "--layout", str(layout)],
        }[command]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "detections of 2 images" in captured.err
        assert captured.out == "" and not out.exists()


class TestImageIdTypes:
    """An ``image_id`` is a JSON integer or string: a record with any other
    id exits 1 with its index, without output."""

    @pytest.mark.parametrize("ids", [(1.0, 1), (1, True), (1, None), (1, [1]), (1, math.inf)])
    @pytest.mark.parametrize("command", ["pack", "unpack-coarse", "unpack-fine", "stats"])
    def test_mixed_file_exit_1_without_output(self, tmp_path, capsys, three_box_file,
                                              command, ids):
        mixed = _write_detections(tmp_path / "mixed.json", [
            {**_det_record(0, 0, 10, 10), "image_id": ids[0]},
            {**_det_record(50, 50, 10, 10), "image_id": ids[1]},
        ])
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        args = {
            "pack": ["pack", "--detections", mixed, "--image-size", "200x200",
                     "--out-layout", str(out)],
            "unpack-coarse": ["unpack", "--fine", three_box_file, "--layout", str(layout),
                              "--coarse", mixed, "--out", str(out)],
            "unpack-fine": ["unpack", "--fine", mixed, "--layout", str(layout),
                            "--coarse", three_box_file, "--out", str(out)],
            "stats": ["stats", "--boxes", mixed, "--image-size", "200x200"],
        }[command]
        assert main(args) == 1
        captured = capsys.readouterr()
        index = 0 if isinstance(ids[0], float) else 1
        assert f"invalid detection records at indices [{index}]" in captured.err
        assert captured.out == "" and not out.exists()


class TestLayoutOutsideMosaic:
    """A placement whose scaled box is not finite or leaves its mosaic, or
    whose scale is not positive, makes the layout unreadable: exit 2, no
    output, the placement named by its index."""

    WIDE = {"mosaic": {"width": 100, "height": 100},
            "placements": [{"src": [0, 0, 1e308, 10], "scale": 10.0, "dest": [0, 0]}]}

    def test_stats_exit_2_without_output(self, tmp_path, capsys, three_box_file):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(self.WIDE))
        assert main(["stats", "--boxes", three_box_file, "--image-size", "200x200",
                     "--layout", str(layout)]) == 2
        captured = capsys.readouterr()
        assert "is not inside the 100x100 mosaic" in captured.err
        assert captured.out == ""

    def test_unpack_exit_2_without_output(self, tmp_path, capsys, three_box_file):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(self.WIDE))
        out = tmp_path / "fused.json"
        assert main(["unpack", "--fine", three_box_file, "--layout", str(layout),
                     "--coarse", three_box_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "is not inside the 100x100 mosaic" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("scale", [0, -1])
    def test_unpack_bad_scale_exit_2_names_placement(self, tmp_path, capsys, three_box_file,
                                                     scale):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"mosaic": {"width": 100, "height": 100}, "placements": [
            {"src": [0, 0, 10, 10], "scale": 1, "dest": [0, 0]},
            {"src": [0, 0, 10, 10], "scale": scale, "dest": [20, 0]}]}))
        out = tmp_path / "fused.json"
        assert main(["unpack", "--fine", three_box_file, "--layout", str(layout),
                     "--coarse", three_box_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "invalid layout document: placement 1: " in captured.err
        assert "positive finite scale" in captured.err
        assert captured.out == "" and not out.exists()


class TestStatsCommand:
    def test_fr_printout(self, tmp_path, capsys):
        boxes = _write_detections(tmp_path / "b.json", [_det_record(0, 0, 20, 20)])
        rc = main(["stats", "--boxes", boxes, "--image-size", "100x100"])
        assert rc == 0
        assert "FR 4.00%" in capsys.readouterr().out

    @pytest.mark.parametrize("record, fr", [
        ((50, 50, 100, 100), "25.00%"), ((0, 0, 1e300, 1e300), "100.00%"),
        ((100, 0, 5, 5), "0.00%"),
    ], ids=["overhanging", "huge", "beyond-the-edge"])
    def test_fr_counts_only_the_image(self, tmp_path, capsys, record, fr):
        boxes = _write_detections(tmp_path / "b.json", [_det_record(*record)])
        assert main(["stats", "--boxes", boxes, "--image-size", "100x100"]) == 0
        assert capsys.readouterr().out.startswith(f"source: FR {fr}  ")

    def test_mosaic_line(self, tmp_path, capsys):
        # One 50x50 region at scale 2 fills a 100-wide strip at (0, 0); the
        # 20x20 box inside it becomes 40x40 of the 100x100 mosaic.
        boxes = _write_detections(tmp_path / "b.json", [_det_record(10, 10, 20, 20)])
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 2.0)], 100, padding=0.0), layout)
        rc = main(["stats", "--boxes", boxes, "--image-size", "100x100",
                   "--layout", str(layout)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("source: FR 4.00%")
        assert lines[1] == "mosaic: FR 16.00%  small 0.00%  medium 100.00%  large 0.00%"

    def test_mosaic_of_no_area_prints_zeros(self, tmp_path, capsys):
        # A zero-width placement in a zero-width mosaic still owns the
        # zero-width box at its centre.
        boxes = _write_detections(tmp_path / "b.json", [_det_record(5, 5, 0, 3)])
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"mosaic": {"width": 0, "height": 10}, "placements": [
            {"src": [5, 5, 5, 8], "scale": 1.0, "dest": [0, 0]}]}))
        assert main(["stats", "--boxes", boxes, "--image-size", "100x100",
                     "--layout", str(layout)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "mosaic: FR 0.00%  small 0.00%  medium 0.00%  large 0.00%"

    def test_scene_file_takes_ground_truth(self, tmp_path, capsys):
        # The 180 ground-truth boxes of the seed-0 scene, not its 177 coarse
        # detections, which give FR 9.57%.
        spec, scene = tmp_path / "spec.json", tmp_path / "scene.json"
        spec.write_text(json.dumps({"seed": 0}))
        assert main(["synth", "--spec", str(spec), "--out", str(scene)]) == 0
        capsys.readouterr()
        assert main(["stats", "--boxes", str(scene), "--image-size", "2000x1500"]) == 0
        assert capsys.readouterr().out.startswith("source: FR 9.99%  ")

    def test_nan_mosaic_size_exit_2(self, tmp_path, capsys):
        boxes = _write_detections(tmp_path / "b.json", [_det_record(0, 0, 20, 20)])
        layout = tmp_path / "layout.json"
        layout.write_text('{"mosaic": {"width": 100, "height": NaN}, "placements": []}')
        rc = main(["stats", "--boxes", boxes, "--image-size", "100x100",
                   "--layout", str(layout)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "invalid layout document" in captured.err
        assert "mosaic:" not in captured.out

    @pytest.mark.parametrize("size", ["100", "100x", "axb", "100x100x3"])
    def test_malformed_image_size_exit_2(self, tmp_path, capsys, size):
        boxes = _write_detections(tmp_path / "b.json", [_det_record(0, 0, 20, 20)])
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--boxes", boxes, "--image-size", size])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"expected WxH, got {size!r}" in captured.err and captured.out == ""


class TestSceneFileInput:
    """A scene file given for detections is read as ``load_scene`` reads it:
    one that it refuses, one given to ``unpack --fine``, or one whose
    image_size is not ``--image-size``, leaves no output."""

    @pytest.mark.parametrize("command, edit, code, message", [
        pytest.param("pack", {"image_size": [200]}, 2,
                     "image_size must be a pair of finite positive", id="pack-size-of-one"),
        pytest.param("pack", {"image_size": "200x200"}, 2,
                     "image_size must be a pair of finite positive", id="pack-size-string"),
        pytest.param("pack", {"ground_truth": None}, 2,
                     "expected a scene object with a ground_truth array", id="pack-no-truth"),
        pytest.param("pack", {"ground_truth": [{**_det_record(0, 0, 10, 10), "image_id": 1}]}, 1,
                     "ground truth detections are of image_id 1, coarse detections of "
                     "image_id 0", id="pack-two-ids"),
        pytest.param("pack-400", {}, 1,
                     "scene image_size 200x200 differs from --image-size 400x400",
                     id="pack-other-size"),
        pytest.param("unpack-coarse", {"ground_truth": None}, 2,
                     "expected a scene object with a ground_truth array", id="unpack-no-truth"),
        pytest.param("unpack-fine", {}, 2, "expected an array of detection records",
                     id="unpack-fine-scene"),
        pytest.param("stats", {"image_size": [200, 0]}, 2,
                     "image_size must be a pair of finite positive", id="stats-zero-height"),
        pytest.param("stats-400", {}, 1,
                     "scene image_size 200x200 differs from --image-size 400x400",
                     id="stats-other-size"),
    ])
    def test_refused_without_output(self, tmp_path, capsys, three_box_file,
                                    command, edit, code, message):
        doc = {"image_size": [200, 200], "ground_truth": [_det_record(0, 0, 10, 10, 1.0)],
               "coarse": [_det_record(1, 1, 8, 8)], **edit}
        scene = _write_detections(tmp_path / "scene.json",
                                  {k: v for k, v in doc.items() if v is not None})
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        args = {
            "pack": ["pack", "--detections", scene, "--image-size", "200x200",
                     "--out-layout", str(out)],
            "pack-400": ["pack", "--detections", scene, "--image-size", "400x400",
                         "--out-layout", str(out)],
            "unpack-coarse": ["unpack", "--fine", three_box_file, "--layout", str(layout),
                              "--coarse", scene, "--out", str(out)],
            "unpack-fine": ["unpack", "--fine", scene, "--layout", str(layout),
                            "--coarse", three_box_file, "--out", str(out)],
            "stats": ["stats", "--boxes", scene, "--image-size", "200x200"],
            "stats-400": ["stats", "--boxes", scene, "--image-size", "400x400"],
        }[command]
        assert main(args) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not out.exists()

    def test_overflowing_area_exit_2(self, tmp_path, capsys, three_box_file):
        """A scene size whose area overflows is refused as ``--image-size``
        refuses it, also where no ``--image-size`` is given."""
        scene = _write_detections(tmp_path / "scene.json", {
            "image_size": [1e200, 1e200], "ground_truth": [], "coarse": [_det_record(1, 1, 8, 8)]})
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        assert main(["unpack", "--fine", three_box_file, "--layout", str(layout),
                     "--coarse", scene, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {scene}: image_size must be a pair of finite positive "
                                f"numbers, got [1e+200, 1e+200]: extent area must be finite, "
                                f"got 1e+200x1e+200\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("size, flag, spelled", [
        ([2000.0000001, 1500], "2000x1500",
         "2000.0000001x1500 differs from --image-size 2000x1500"),
        ([2**53 + 1, 1], "9007199254740993x1",
         "9007199254740993x1 differs from --image-size 9007199254740992x1"),
    ], ids=["near-float", "int-past-float-precision"])
    def test_different_sizes_spelled_apart(self, tmp_path, capsys, size, flag, spelled):
        scene = _write_detections(tmp_path / "near.json", {
            "image_size": size, "ground_truth": [], "coarse": [_det_record(1, 1, 8, 8)]})
        out = tmp_path / "out.json"
        assert main(["pack", "--detections", scene, "--image-size", flag,
                     "--out-layout", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {scene}: scene image_size {spelled}\n"
        assert captured.out == "" and not out.exists()


class TestMalformedJsonFile:
    """A config or spec file that is not JSON, or whose top level is not an
    object, and any JSON input that is not UTF-8 text, fails as a parse error
    naming the file: exit 2, no output."""

    @pytest.mark.parametrize("text, message", [
        ("{bad", "invalid JSON at line 1 column 2"), ("[]", "expected a"), ("3", "expected a"),
        ('{"seed": 1' + "0" * 5000 + "}", f"integer of more than {sys.get_int_max_str_digits()}"),
    ], ids=["invalid", "array", "number", "long-integer"])
    @pytest.mark.parametrize("command", ["pack", "unpack", "train-sim", "synth"])
    def test_exit_2_without_output(self, tmp_path, capsys, three_box_file,
                                   command, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        layout = tmp_path / "layout.json"
        io.save_layout(pack([(BBox(0, 0, 50, 50), 1.0)], 100), layout)
        out = tmp_path / "out.json"
        args = {
            "pack": ["pack", "--detections", three_box_file, "--image-size", "200x200",
                     "--out-layout", str(out), "--config", str(bad)],
            "unpack": ["unpack", "--fine", three_box_file, "--layout", str(layout),
                       "--coarse", three_box_file, "--out", str(out), "--config", str(bad)],
            "train-sim": ["train-sim", "--config", str(bad), "--out", str(out)],
            "synth": ["synth", "--spec", str(bad), "--out", str(out)],
        }[command]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: {message}")
        assert captured.out == "" and not out.exists()

    def test_long_integer_id_exit_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"image_id": 1' + "0" * 5000 + ', "bbox": [0, 0, 10, 10]}]')
        out = tmp_path / "out.json"
        assert main(["pack", "--detections", str(bad), "--image-size", "200x200",
                     "--out-layout", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: integer of more than "
                                f"{sys.get_int_max_str_digits()} digits\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag", ["--detections", "--config"])
    def test_not_utf8_exit_2_without_output(self, tmp_path, capsys, three_box_file, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe[]")
        out = tmp_path / "out.json"
        args = ["pack", "--image-size", "200x200", "--out-layout", str(out), flag, str(bad)]
        if flag == "--config":
            args += ["--detections", three_box_file]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: not UTF-8 text at byte 0\n"
        assert captured.out == "" and not out.exists()


class TestSynthCommand:
    def test_generates_scene(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "n_objects": 40, "target_fr": 0.05}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        _, gt, coarse, _ = io.load_scene(out)
        assert len(gt) == 40 and len(coarse) > 0

    @pytest.mark.parametrize("edit", [{}, {"extent": [640, 480.5], "n_objects": 20}],
                             ids=["default", "640x480.5"])
    def test_scene_size_is_spec_extent(self, tmp_path, edit):
        """A scene's image_size reads back as the ImageExtent of its spec."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 0, **edit}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        want = SceneSpec.from_dict(json.loads(spec.read_text())).extent
        assert io.load_scene(out).image_size == want

    def test_module_entry_point(self, tmp_path):
        """``python -m ufppack.cli`` exits with main's return code."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "n_objects": 10, "target_fr": 0.05}))
        out = tmp_path / "scene.json"
        src = str(Path(ufppack.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        ok = subprocess.run([sys.executable, "-m", "ufppack.cli", "synth", "--spec", str(spec),
                             "--out", str(out)], env=env, capture_output=True, text=True,
                            timeout=120)
        assert ok.returncode == 0 and ok.stdout.startswith("generated 10 objects")
        assert out.exists()
        missing = subprocess.run([sys.executable, "-m", "ufppack.cli", "synth", "--spec",
                                  str(tmp_path / "nope.json"), "--out", str(out)],
                                 env=env, capture_output=True, text=True, timeout=120)
        assert missing.returncode == 2 and missing.stderr.startswith("error:")

    def test_infinite_extent_exit_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "n_objects": 10, "extent": [Infinity, 100]}')
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert not out.exists()

    def test_box_larger_than_extent_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extent": [30, 14], "n_objects": 1, "target_fr": 0.6,
                                    "proportions": [1, 0, 0]}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "larger than the 30x14 extent" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("jitter", [
        {"center_jitter": 1e308, "scale_jitter": 1e308},
        {"center_jitter": 1e308},
        {"scale_jitter": 1e308},
    ])
    def test_overflowing_jitter_exit_1_naming_it(self, tmp_path, capsys, jitter):
        """A jittered centre or side past the float range is refused by the
        settings' names, not as a NaN box."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 0, **jitter}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        cj, sj = jitter.get("center_jitter", 0.05), jitter.get("scale_jitter", 0.05)
        assert captured.err == (f"error: the coarse detection of object 1 overflows at "
                                f"center_jitter {cj} and scale_jitter {sj}\n")
        assert captured.out == "" and not out.exists()

    def test_huge_finite_scale_jitter_runs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 0, "scale_jitter": 1e300}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert len(io.load_scene(out)[2]) == 177


class TestTrainSimCommand:
    def test_writes_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "use_ot": False}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
        records = load_jsonl(out)
        assert len(records) == 4
        assert records[-1]["step"] == 3

    def test_reports_unconverged_calls(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "sinkhorn_max_iters": 2}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
        out = capsys.readouterr().out
        assert "8 of 8 Sinkhorn calls did not converge" in out
        assert "; at most 2 solver steps in a call; worst marginal violation " in out

    def test_reports_solver_steps_and_violation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 5, "seed": 0}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
        line = capsys.readouterr().out
        assert "0 of 12 Sinkhorn calls did not converge; at most " in line
        steps = int(line.split("at most ")[1].split()[0])
        violation = float(line.split("worst marginal violation ")[1])
        assert 0 < steps <= 150 and 0 <= violation < 1e-6

    def test_single_proxy_writes_null_separation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 2, "seed": 0, "proxies_per_class": 1}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0

        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        records = [json.loads(line, parse_constant=reject)
                   for line in out.read_text().splitlines()]
        assert len(records) == 3
        for r in records:
            assert r["min_proxy_distance"] is None and r["max_proxy_similarity"] is None
        assert ("final min proxy distance n/a; 0 of 6 Sinkhorn calls did not converge; "
                "at most 0 solver steps in a call; worst marginal violation 0.0e+00"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("bad", [
        {"marginal_cadence": 0}, {"sinkhorn_epsilon": 0.0}, {"sinkhorn_tol": -1.0},
        {"sinkhorn_tol": 0.0}, {"sinkhorn_max_iters": -1}, {"gamma": 0.0},
        {"vocab_capacity": 0}, {"lr": float("nan")}, {"lr": float("inf")},
        {"mode_noise": float("nan")}, {"mode_noise": float("inf")},
        {"steps": -1}, {"batch_size": 0}, {"lr": 0.0}, {"n_classes": 0},
        {"proxies_per_class": 0}, {"feature_dim": 1}, {"modes_per_class": 0},
        {"use_ot": "false"}, {"use_ot": 0}, {"steps": True}, {"steps": 3.0},
        {"lr": "0.1"}, {"lr": True}, {"seed": None},
        {"gamma": float("inf")}, {"sinkhorn_epsilon": float("inf")},
        {"sinkhorn_tol": float("inf")}, {"lr": 10**400},
    ])
    def test_invalid_config_exit_1_without_records(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, **bad}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {next(iter(bad))} must be" in capsys.readouterr().err
        assert not out.exists()

    # Each is one line naming the field, where NumPy's own error named none.
    @pytest.mark.parametrize("bad, message", [
        ({"batch_size": 10**20, "vocab_insert": 1}, "n_classes * n_classes * batch_size * "
         f"proxies_per_class must be at most 2**50, got {12 * 10**20}"),
        ({"n_classes": 10**20}, "n_classes * n_classes * batch_size * proxies_per_class must "
         f"be at most 2**50, got {48 * 10**40}"),
        ({"proxies_per_class": 10**20}, "n_classes * n_classes * batch_size * "
         f"proxies_per_class must be at most 2**50, got {64 * 10**20}"),
        ({"feature_dim": 10**20},
         f"n_classes * batch_size * feature_dim must be at most 2**50, got {32 * 10**20}"),
        ({"modes_per_class": 10**20},
         f"n_classes * modes_per_class * feature_dim must be at most 2**50, got {32 * 10**20}"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
    ], ids=["batch_size", "n_classes", "proxies_per_class", "feature_dim", "modes_per_class",
            "seed"])
    def test_count_past_numpy_exit_1_without_records(self, tmp_path, capsys, bad, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 1, "seed": 0, **bad}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_seed_past_int64_runs(self, tmp_path):
        spec, cfg = tmp_path / "spec.json", tmp_path / "cfg.json"
        spec.write_text(json.dumps({"seed": 10**41, "n_objects": 5, "target_fr": 0.01}))
        cfg.write_text(json.dumps({"steps": 1, "seed": 10**41}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "scene.json")]) == 0
        assert main(["train-sim", "--config", str(cfg), "--out", str(tmp_path / "r.jsonl")]) == 0

    @pytest.mark.parametrize("insert", [0, -1, 17])
    def test_vocab_insert_outside_batch_exit_1(self, tmp_path, capsys, insert):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "vocab_insert": insert}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert "vocab_insert" in capsys.readouterr().err
        assert not out.exists()

    # A marginal violation is at most 1, so a tolerance of 1 or more passed
    # every plan as converged; a negative mode_noise drew features as a
    # positive one does. Both used to run and exit 0.
    @pytest.mark.parametrize("bad, message", [
        ({"sinkhorn_tol": 1}, "sinkhorn_tol must be less than 1, got 1"),
        ({"sinkhorn_tol": 1.0}, "sinkhorn_tol must be less than 1, got 1.0"),
        ({"sinkhorn_tol": 1e308}, "sinkhorn_tol must be less than 1, got 1e+308"),
        ({"mode_noise": -1}, "mode_noise must be nonnegative, got -1"),
        ({"mode_noise": -1e-300}, "mode_noise must be nonnegative, got -1e-300"),
    ])
    def test_tolerance_or_noise_out_of_range_exit_1_without_records(self, tmp_path, capsys,
                                                                    bad, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, **bad}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    # These overflowed a squared row norm: gamma and lr ended in a misleading
    # "zero-norm proxy row", mode_noise in "Probabilities contain NaN".
    @pytest.mark.parametrize("bad, message", [
        ({"gamma": 1e308}, "gamma must be at most 1e+75, got 1e+308"),
        ({"lr": 1e200}, "lr must be at most 1e+75, got 1e+200"),
        ({"mode_noise": 1e308}, "mode_noise must be at most 1e+100, got 1e+308"),
    ], ids=["gamma", "lr", "mode_noise"])
    def test_setting_past_its_cap_exit_1_without_records(self, tmp_path, capsys, bad, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, **bad}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestDeterminism:
    def test_train_sim_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 30, "seed": 3, "marginal_cadence": 10}))
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pack_byte_identical(self, tmp_path, three_box_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "pack", "--detections", three_box_file, "--image-size", "200x200",
                "--out-layout", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
