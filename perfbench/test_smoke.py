"""Tiny-size smoke test of the benchmark itself; not part of the tier-1 suite.

Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ufppack.config import PipelineConfig  # noqa: E402
from ufppack.geometry import BBox, ImageExtent  # noqa: E402
from ufppack.pipeline import build_layout  # noqa: E402
from ufppack.remap import Detection, to_mosaic, to_source  # noqa: E402

TINY = {
    "scene": workloads.SceneWorkload(
        spec={"n_objects": 20, "extent": ImageExtent(400, 300)}, scenes=2),
    "train": workloads.TrainWorkload(
        config={"steps": 4, "marginal_cadence": 2, "batch_size": 8, "vocab_insert": 4},
        seeds=2, warmup_steps=1),
}
NAMED = {
    "scene": ("images_per_s", "pack_ms_p50", "unpack_ms_p50", "mosaic_fr_gain"),
    "train": ("train_steps_per_s", "proxy_min_dist"),
}
BOXES = [BBox(10, 10, 30, 30), BBox(200, 200, 230, 230), BBox(350, 50, 370, 80)]


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("kind", ["scene", "train"])
def test_every_metric_printed_with_unit(checkout, capsys, kind, trace):
    argv = ["--workload", kind, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    prefix = "layer" if trace else "metric"
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith(prefix + " ")}
    names = [m["name"] for m in declared]
    if not trace:
        names += ["failed_ratio", *NAMED[kind]]
    for name in names:
        assert name in printed, name
    for m in declared:
        assert printed[m["name"]] == m["unit"]
    if trace:
        assert (checkout / ".perfbench" / f"spans-{kind}-seed3.jsonl").stat().st_size > 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "scene_dense", "--seed", "0", "--seconds", "1"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def _layout():
    cfg = PipelineConfig()
    dets = [Detection(b, 0.9, 0) for b in BOXES]
    regions, layout = build_layout(dets, ImageExtent(400, 300), cfg)
    return regions, layout, cfg


def test_layout_check_fires_on_overlap_and_lost_provenance():
    regions, layout, cfg = _layout()
    args = (len(BOXES), cfg.padding, cfg.mosaic_width)
    assert checks.layout_errors(layout, regions.provenance, *args) == []
    p0, p1 = layout.placements[:2]
    layout.placements[1] = dataclasses.replace(p1, dest_x=p0.dest_x, dest_y=p0.dest_y)
    errors = checks.layout_errors(layout, regions.provenance, *args)
    assert any("closer than padding" in e for e in errors)
    errors = checks.layout_errors(layout, regions.provenance[1:], *args)
    assert any("provenance" in e for e in errors)


def test_layout_check_holds_the_configured_strip_width():
    regions, layout, cfg = _layout()
    last = max(layout.placements, key=lambda p: p.dest_x)
    i = layout.placements.index(last)
    layout.placements[i] = dataclasses.replace(last, dest_x=cfg.mosaic_width)
    layout.mosaic_width = 2 * cfg.mosaic_width
    errors = checks.layout_errors(layout, regions.provenance, len(BOXES), cfg.padding,
                                  cfg.mosaic_width)
    assert any("not the strip width" in e for e in errors)
    assert any("leave the strip" in e for e in errors)


def test_traced_run_fails_when_a_traced_function_is_gone(checkout, monkeypatch, capsys):
    gone = ("ufppack.trainsim", None, "renamed_away", "transport.renamed_away", None)
    monkeypatch.setattr(tracing, "_PATCHES", tracing._PATCHES + (gone,))
    argv = ["--workload", "train", "--seed", "3", "--seconds", "1", "--trace", "1"]
    with pytest.raises(AttributeError):
        run.main(argv, workloads=TINY)
    assert '"correct"' not in capsys.readouterr().out


def test_remap_and_fuse_checks_fire_on_boxes_outside_their_owner():
    _, layout, cfg = _layout()
    fine = [Detection(to_mosaic(b, layout), 0.8, 0) for b in BOXES]
    mapped = [to_source(d, layout) for d in fine]
    assert checks.remap_errors(fine, mapped, layout) == []
    b = mapped[0].box
    moved = Detection(BBox(b.x1 + 500, b.y1, b.x2 + 500, b.y2), 0.8, 0)
    errors = checks.remap_errors(fine, [moved] + mapped[1:], layout)
    assert any("leaves its owner" in e for e in errors)
    assert checks.fused_errors(mapped, [], mapped, cfg.nms_iou) == []
    assert checks.fused_errors([moved], [], mapped, cfg.nms_iou) != []
