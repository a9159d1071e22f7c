from __future__ import annotations

import json

import numpy as np
import pytest

from ufppack import io
from ufppack.cli import main
from ufppack.geometry import BBox
from ufppack.remap import Detection


def _write_detections(path, records):
    path.write_text(json.dumps(records))
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

    def test_image_without_out_mosaic_writes_nothing(self, tmp_path, three_box_file):
        image = tmp_path / "in.ppm"
        io.write_ppm(np.zeros((200, 200, 3), dtype=np.uint8), image)
        out = tmp_path / "layout.json"
        rc = main([
            "pack", "--detections", three_box_file, "--image-size", "200x200",
            "--out-layout", str(out), "--image", str(image),
        ])
        assert rc == 1 and not out.exists()

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
        from ufppack.mosaic import ScaledRegion, pack

        io.save_layout(pack([ScaledRegion(BBox(0, 0, 50, 50), 1.0)], 100), layout)
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
        from ufppack.mosaic import ScaledRegion, pack

        layout = tmp_path / "layout.json"
        io.save_layout(pack([ScaledRegion(BBox(100, 100, 150, 150), 2.0)], 120), layout)
        fine = _write_detections(tmp_path / "fine.json", [_det_record(0, 0, 20, 20, 0.7)])
        coarse = _write_detections(tmp_path / "coarse.json", [])
        out = tmp_path / "fused.json"
        assert main([
            "unpack", "--fine", fine, "--layout", str(layout),
            "--coarse", coarse, "--out", str(out),
        ]) == 0
        fused = io.load_detections(out)[0]
        assert fused[0].box == BBox(100, 100, 110, 110)


class TestStatsCommand:
    def test_fr_printout(self, tmp_path, capsys):
        boxes = _write_detections(tmp_path / "b.json", [_det_record(0, 0, 20, 20)])
        rc = main(["stats", "--boxes", boxes, "--image-size", "100x100"])
        assert rc == 0
        assert "FR 4.00%" in capsys.readouterr().out


class TestSynthCommand:
    def test_generates_scene(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "n_objects": 40, "target_fr": 0.05}))
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        (w, h), gt, coarse = io.load_scene(out)
        assert len(gt) == 40 and len(coarse) > 0

    def test_infinite_extent_exit_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "n_objects": 10, "extent": [Infinity, 100]}')
        out = tmp_path / "scene.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert not out.exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "n_objects": 30, "target_fr": 0.05}))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("UFPPACK_SEED", "99")
        assert main(["synth", "--spec", str(spec), "--out", str(out_a)]) == 0
        monkeypatch.delenv("UFPPACK_SEED")
        spec.write_text(json.dumps({"seed": 99, "n_objects": 30, "target_fr": 0.05}))
        assert main(["synth", "--spec", str(spec), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestTrainSimCommand:
    def test_writes_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "use_ot": False}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
        records = io.load_jsonl(out)
        assert len(records) == 4
        assert records[-1]["step"] == 3

    def test_reports_unconverged_calls(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "sinkhorn_max_iters": 2}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 0
        assert "8 of 8 Sinkhorn calls did not converge" in capsys.readouterr().out

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
        assert ("final min proxy distance n/a; 0 of 6 Sinkhorn calls did not converge"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("bad", [
        {"marginal_cadence": 0}, {"sinkhorn_epsilon": 0.0}, {"sinkhorn_tol": -1.0},
        {"sinkhorn_tol": 0.0}, {"sinkhorn_max_iters": -1}, {"gamma": 0.0},
        {"vocab_capacity": 0},
    ])
    def test_invalid_config_exit_1_without_records(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, **bad}))
        out = tmp_path / "report.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "use_ot": False}))
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        monkeypatch.setenv("UFPPACK_SEED", "7")
        assert main(["train-sim", "--config", str(cfg), "--out", str(out_a)]) == 0
        monkeypatch.delenv("UFPPACK_SEED")
        cfg.write_text(json.dumps({"steps": 3, "seed": 7, "use_ot": False}))
        assert main(["train-sim", "--config", str(cfg), "--out", str(out_b)]) == 0
        cfg.write_text(json.dumps({"steps": 3, "seed": 0, "use_ot": False}))
        out_c = tmp_path / "c.jsonl"
        assert main(["train-sim", "--config", str(cfg), "--out", str(out_c)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes() != out_c.read_bytes()


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
