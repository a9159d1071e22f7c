"""Seeded workload inputs and the closed-loop operation each workload repeats.

A scene operation runs the same path as ``ufppack pack`` followed by
``ufppack unpack``; a training operation is one ``train_sim`` call. Inputs
are made during set-up from the workload seed; the program only ever sees
the files and configs built here.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ufppack import io, metrics, mosaic, pipeline, remap, trainsim
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox

import checks

# Share of fine detections planted in the gutters between placements, so the
# remap step has detections to drop.
GUTTER_SHARE = 0.05


@dataclass(frozen=True)
class SceneWorkload:
    """Pack then unpack one synthetic image per operation, cycling through scenes."""

    spec: dict[str, Any]  # SceneSpec keyword arguments other than the seed
    scenes: int
    kind: str = "scene"


@dataclass(frozen=True)
class TrainWorkload:
    """One ``train_sim`` call per operation, cycling through training seeds."""

    config: dict[str, Any]  # TrainConfig keyword arguments other than the seed
    seeds: int
    warmup_steps: int
    kind: str = "train"


@dataclass
class OpResult:
    input_index: int
    units: int  # images, or training steps
    seconds: float
    halves: tuple[float, float] | None = None  # (pack, unpack) seconds
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flatten(per_image: dict[Any, list]) -> list:
    return [d for img in sorted(per_image, key=str) for d in per_image[img]]


# -- scenes ------------------------------------------------------------------

@dataclass
class Scene:
    index: int
    spec: metrics.SceneSpec
    gt: list[BBox]
    dir: Path
    source: Path  # the source PPM, shared by all scenes
    fr_gain: float | None = None  # measured after the first operation


def _fine_detections(gt: list[BBox], layout: Any, rng: np.random.Generator) -> list[Any]:
    """Ground truth mapped onto the mosaic with seeded jitter, plus gutter hits."""
    fine = []
    for b in gt:
        m = remap.to_mosaic(b, layout)
        if m is None:
            continue
        cx, cy = m.center
        cx += rng.normal(0, 0.02) * m.width
        cy += rng.normal(0, 0.02) * m.height
        w = m.width * max(0.5, 1.0 + rng.normal(0, 0.05))
        h = m.height * max(0.5, 1.0 + rng.normal(0, 0.05))
        fine.append(remap.Detection(BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                                    float(rng.uniform(0.3, 1.0)), 0))
    dest = np.array([[p.dest_x, p.dest_y, p.dest_x + p.scale * p.source.width,
                      p.dest_y + p.scale * p.source.height] for p in layout.placements])
    wanted = max(1, round(GUTTER_SHARE * len(fine)))
    planted = 0
    for _ in range(1000 * wanted):
        if planted == wanted:
            break
        x = rng.uniform(0, layout.mosaic_width)
        y = rng.uniform(0, layout.mosaic_height)
        if np.any((dest[:, 0] <= x) & (x <= dest[:, 2]) & (dest[:, 1] <= y) & (y <= dest[:, 3])):
            continue
        fine.append(remap.Detection(BBox(x - 4, y - 4, x + 4, y + 4),
                                    float(rng.uniform(0.3, 1.0)), 0))
        planted += 1
    return fine


def setup_scenes(wl: SceneWorkload, seed: int, inputs: Path, tracer: Any) -> list[Scene]:
    """Generate the scenes, write coarse and fine detections and the source PPM."""
    cfg = PipelineConfig()
    scenes = []
    for k in range(wl.scenes):
        spec = metrics.SceneSpec(seed=seed * 1000 + k, **wl.spec)
        with tracer.span("metrics.generate_scene"):
            gt, coarse = metrics.generate_scene(spec)
        d = inputs / f"scene{k}"
        d.mkdir()
        io.save_detections(coarse, d / "coarse.json")
        _, layout = pipeline.build_layout(coarse, spec.extent, cfg)
        fine = _fine_detections(gt, layout, np.random.default_rng([seed, k, 1]))
        io.save_detections(fine, d / "fine.json")
        scenes.append(Scene(k, spec, gt, d, inputs / "source.ppm"))
    extent = scenes[0].spec.extent
    pixels = np.random.default_rng([seed, 2]).integers(
        0, 256, size=(int(extent.height), int(extent.width), 3), dtype=np.uint8)
    io.write_ppm(pixels, inputs / "source.ppm")
    return scenes


def scene_op(scene: Scene, scratch: Path, tracer: Any) -> OpResult:
    """Pack (load -> build_layout -> save -> render), then unpack
    (load -> to_source -> fuse -> save), as the CLI does; then check.

    Each operation writes into a new directory, as a CLI run on a new image
    does. Overwriting the previous operation's files in place would add
    filesystem flushes that a first write does not pay.
    """
    cfg = PipelineConfig()
    out = scratch / f"out{scene.index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    t0 = time.perf_counter()
    with tracer.span("bench.pack"):
        with tracer.span("io.load_detections"):
            dets = _flatten(io.load_detections(scene.dir / "coarse.json"))
        with tracer.span("pipeline.build_layout"):
            regions, layout = pipeline.build_layout(dets, scene.spec.extent, cfg)
        with tracer.span("io.save_layout"):
            io.save_layout(layout, out / "layout.json")
        with tracer.span("io.read_ppm"):
            image = io.read_ppm(scene.source)
        with tracer.span("io.compose_mosaic"):
            io.compose_mosaic(layout, image, out / "mosaic.ppm")
    t1 = time.perf_counter()
    with tracer.span("bench.unpack"):
        with tracer.span("io.load_layout"):
            loaded = io.load_layout(out / "layout.json")
        with tracer.span("io.load_detections"):
            fine = _flatten(io.load_detections(scene.dir / "fine.json"))
            coarse = _flatten(io.load_detections(scene.dir / "coarse.json"))
        with tracer.span("remap.to_source"):
            mapped = [remap.to_source(d, loaded) for d in fine]
        remapped = [m for m in mapped if m is not None]
        with tracer.span("remap.fuse"):
            fused = remap.fuse(coarse, remapped, cfg.nms_iou)
        with tracer.span("io.save_detections"):
            io.save_detections(fused, out / "fused.json")
    t2 = time.perf_counter()

    files = {"layout": out / "layout.json", "fused": out / "fused.json",
             "mosaic": out / "mosaic.ppm"}
    errors = (checks.layout_errors(loaded, regions.provenance, len(dets), cfg.padding,
                                   cfg.mosaic_width)
              + checks.remap_errors(fine, mapped, loaded)
              + checks.fused_errors(fused, coarse, remapped, cfg.nms_iou))
    if scene.fr_gain is None:
        src_fr = metrics.foreground_ratio(scene.gt, scene.spec.extent)
        scene.fr_gain = pipeline.mosaic_stats(scene.gt, loaded).fr / src_fr
    return OpResult(
        input_index=scene.index, units=1, seconds=t2 - t0, halves=(t1 - t0, t2 - t1),
        digests={k: sha256(p) for k, p in files.items()},
        errors=errors,
        counts={
            "regions.out_count": len(regions.regions),
            "mosaic.waste_ratio": mosaic.waste_ratio(loaded),
            "mosaic.fr_gain": scene.fr_gain,
            "remap.gutter_dropped": len(fine) - len(remapped),
            "remap.nms_suppressed": len(coarse) + len(remapped) - len(fused),
            "io.bytes_written": sum(p.stat().st_size for p in files.values()),
        },
    )


# -- training ----------------------------------------------------------------

def setup_train(wl: TrainWorkload, seed: int, inputs: Path, tracer: Any) -> list[Any]:
    """Write and read back one config per training seed."""
    configs = []
    for k in range(wl.seeds):
        path = inputs / f"train{k}.json"
        cfg = trainsim.TrainConfig(seed=seed * 1000 + k, **wl.config)
        path.write_text(json.dumps(cfg.to_dict()))
        configs.append(trainsim.TrainConfig.from_dict(json.loads(path.read_text())))
    return configs


def warm_up(wl: SceneWorkload | TrainWorkload, inputs: list[Any]) -> None:
    """Pay first-call costs once, after the first set-up and outside all timing."""
    if wl.kind == "train":
        trainsim.train_sim(dataclasses.replace(inputs[0], steps=wl.warmup_steps))


def train_op(index: int, cfg: Any, scratch: Path, tracer: Any) -> OpResult:
    """One train_sim call; the records are written as ``ufppack train-sim`` does."""
    t0 = time.perf_counter()
    with tracer.span("trainsim.train_sim"):
        report = trainsim.train_sim(cfg)
    t1 = time.perf_counter()
    path = scratch / f"records{index}.jsonl"
    io.save_jsonl(report.records, path)
    return OpResult(
        input_index=index, units=len(report.records), seconds=t1 - t0,
        digests={"records": sha256(path)},
        errors=checks.record_errors(report.records),
        counts={"trainsim.proxy_min_dist": report.final_min_proxy_distance},
    )


WORKLOADS: dict[str, SceneWorkload | TrainWorkload] = {
    # 1000 objects need FR 0.3: the default FR 0.10 is infeasible at that count.
    # Not listed in BENCHMARK.json: see perfbench/README.md.
    "scene_dense": SceneWorkload(spec={"n_objects": 1000, "target_fr": 0.3}, scenes=1),
    "scene_sparse": SceneWorkload(spec={}, scenes=4),
    # The acceptance criterion 9 config, cut to 200 steps so that one
    # marginal_cadence boundary (step 200) is crossed.
    "train_default": TrainWorkload(
        config={"n_classes": 2, "proxies_per_class": 3, "feature_dim": 16,
                "batch_size": 16, "sinkhorn_epsilon": 0.01, "sinkhorn_max_iters": 150,
                "use_ot": True, "steps": 200},
        seeds=3, warmup_steps=10),
}
