"""Byte-level pins on the synth -> pack -> unpack path through the CLI, on
one mosaic rendered at workload scale, and on the scene files of the
generator.

The layout and fused digests are those of the scalar merge, NMS and owner
lookup, which the array forms reproduce exactly. The mosaic digests are those
of the exact-affine renderer, which is within one grey level of the scalar
float64 oracle in tests/oracles.py. A change that moves any output byte must
update them on purpose.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from ufppack import io
from ufppack.cli import main
from ufppack.config import PipelineConfig
from ufppack.metrics import SceneSpec, generate_scene
from ufppack.pipeline import build_layout

WIDTH, HEIGHT = 640, 480
GOLDEN = {
    "layout.json": "01c9b68f840f320df46f92023834c6de8ae70848faef7f8653dfc0e5069c83e0",
    "mosaic.ppm": "1d51062723bfac83a84edf5b51208e35a3876912e1a4aac79e83a078db3b4c4c",
    "fused.json": "dea18ec0dae1a82c02e54b7142a2384608382ece52ed10d2be299166e90b249b",
}


def _fine_records(layout: dict, rng: np.random.Generator) -> list[dict]:
    """Two mosaic-space detections per placement: one inside it, one across
    its right edge; plus one in the gutter below the last shelf."""
    records = []
    for p in layout["placements"]:
        (sx1, sy1, sx2, sy2), scale, (dx, dy) = p["src"], p["scale"], p["dest"]
        w, h = scale * (sx2 - sx1), scale * (sy2 - sy1)
        x, y = dx + rng.uniform(0, 0.3) * w, dy + rng.uniform(0, 0.3) * h
        records.append({"image_id": 0, "bbox": [x, y, 0.6 * w, 0.6 * h],
                        "score": float(rng.uniform(0.3, 1.0)),
                        "category_id": int(rng.integers(0, 2))})
        records.append({"image_id": 0, "bbox": [dx + 0.7 * w, dy + 0.2 * h, 0.5 * w, 0.5 * h],
                        "score": float(rng.uniform(0.3, 1.0)), "category_id": 0})
    height = layout["mosaic"]["height"]
    records.append({"image_id": 0, "bbox": [10.0, height + 5.0, 8.0, 8.0],
                    "score": 0.9, "category_id": 0})
    return records


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("golden")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 3, "n_objects": 60, "target_fr": 0.1,
                                "extent": [WIDTH, HEIGHT]}))
    scene = tmp_path / "scene.json"
    assert main(["synth", "--spec", str(spec), "--out", str(scene)]) == 0

    pixels = np.random.default_rng(11).integers(0, 256, size=(HEIGHT, WIDTH, 3), dtype=np.uint8)
    source = tmp_path / "source.ppm"
    source.write_bytes(b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT) + pixels.tobytes())

    layout, mosaic = tmp_path / "layout.json", tmp_path / "mosaic.ppm"
    assert main(["pack", "--detections", str(scene), "--image-size", f"{WIDTH}x{HEIGHT}",
                 "--out-layout", str(layout), "--image", str(source),
                 "--out-mosaic", str(mosaic)]) == 0

    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps(_fine_records(json.loads(layout.read_text()),
                                             np.random.default_rng(12))))
    fused = tmp_path / "fused.json"
    assert main(["unpack", "--fine", str(fine), "--layout", str(layout),
                 "--coarse", str(scene), "--out", str(fused)]) == 0
    return tmp_path


def test_pack_unpack_bytes_pinned(outputs):
    got = {name: hashlib.sha256((outputs / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


# The dense 1000-object scene (seed 7) through synth -> pack -> unpack: its
# merge and NMS span several blocks of pairs, so these pin the multi-block
# paths byte for byte.
DENSE_GOLDEN = {
    "layout.json": "9ccd4cb819e201faed79d797864f47cbc10e051ed169bc39dfa2c7a610715ab4",
    "fused.json": "b9d76d57cb920ab8757ee21b35a0b75d4e63f76b494e9b45d77360f3876c328c",
}


def test_dense_pack_unpack_bytes_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 7, "n_objects": 1000, "target_fr": 0.3}))
    scene, layout = tmp_path / "scene.json", tmp_path / "layout.json"
    assert main(["synth", "--spec", str(spec), "--out", str(scene)]) == 0
    assert main(["pack", "--detections", str(scene), "--image-size", "2000x1500",
                 "--out-layout", str(layout)]) == 0
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps(_fine_records(json.loads(layout.read_text()),
                                             np.random.default_rng(12))))
    fused = tmp_path / "fused.json"
    assert main(["unpack", "--fine", str(fine), "--layout", str(layout),
                 "--coarse", str(scene), "--out", str(fused)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DENSE_GOLDEN}
    assert got == DENSE_GOLDEN


def test_scene_has_region_clamped_to_image_edge(outputs):
    srcs = [p["src"] for p in json.loads((outputs / "layout.json").read_text())["placements"]]
    assert any(s[2] == WIDTH or s[3] == HEIGHT for s in srcs)
    assert any(s[0] == 0 or s[1] == 0 for s in srcs)


# A paper-default scene (180 objects on 2000x1500) rendered through
# compose_mosaic from a seeded source raster: 167 placements, 13 of them at
# scale 1 and the rest enlarged, all at fractional source origins.
SCENE_MOSAIC_SHA256 = "efb68e09350339c4ff3bed1f7623437522bad57884dbf0e0d4507fb9338bdba6"


def test_scene_mosaic_bytes_pinned(tmp_path):
    spec = SceneSpec(seed=5)
    _, coarse = generate_scene(spec)
    _, layout = build_layout(coarse, spec.extent, PipelineConfig())
    source = np.random.default_rng(13).integers(
        0, 256, size=(int(spec.extent.height), int(spec.extent.width), 3), dtype=np.uint8)
    out = tmp_path / "mosaic.ppm"
    io.compose_mosaic(layout, source, out)
    assert len(layout.placements) > 100
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCENE_MOSAIC_SHA256


# Scene files of the generator: four paper-default scenes and one dense
# 1000-object scene, recorded with the scalar overlap check against every
# placed box; the grid-bucketed check, which tests only the boxes in the
# cells an attempt meets, reproduces them.
@pytest.mark.parametrize("spec, digest", [
    ({"seed": 0}, "69d3ebf0aac694498e0bb9ed3edce6a995e1e88bca3d8ea44a83fbab3e254ab1"),
    ({"seed": 1}, "2ca65c0c32997cec83b94389cb5ebabe26cace838edb66fc1d67b1b1e3a3dc0c"),
    ({"seed": 2}, "de389faf858bf7107ebada0414329ef8bd9945dcf0207252d578fc7127c3d5bc"),
    ({"seed": 3}, "36bacda9e7f101358cd339cb986fac95d636b7cfe13c503ac83aab9344e6ceb5"),
    ({"seed": 7, "n_objects": 1000, "target_fr": 0.3},
     "e39b31f70c31776a8b9300d13ed240ee19274b4726b898dc19d496bc5110bc02"),
])
def test_scene_bytes_pinned(tmp_path, spec, digest):
    spec = SceneSpec(**spec)
    gt, coarse = generate_scene(spec)
    out = tmp_path / "scene.json"
    io.save_scene((spec.extent.width, spec.extent.height), gt, coarse, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
