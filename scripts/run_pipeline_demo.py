#!/usr/bin/env python3
"""End-to-end demo: synthesize a scene, pack it, and report the FR gain."""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from ufppack import io
from ufppack.config import PipelineConfig
from ufppack.metrics import SceneSpec, generate_scene, scene_stats
from ufppack.pipeline import build_layout, mosaic_stats


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=Path("demo_out"))
    args = ap.parse_args()

    spec = SceneSpec(seed=args.seed)
    gt, coarse = generate_scene(spec)
    cfg = PipelineConfig()
    regions, layout = build_layout(coarse, spec.extent, cfg)

    src = scene_stats(gt, spec.extent)
    mos = mosaic_stats(gt, layout)
    print(f"scene: {len(gt)} objects in {spec.extent.width}x{spec.extent.height}")
    print(f"merged {len(coarse)} detections into {len(regions.regions)} regions")
    print(f"mosaic: {layout.mosaic_width:.0f}x{layout.mosaic_height:.0f}")
    print(f"foreground ratio: {src.fr:.3f} -> {mos.fr:.3f} ({mos.fr / src.fr:.1f}x)")
    print(f"small-object share: {src.small:.3f} -> {mos.small:.3f}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    io.save_scene((spec.extent.width, spec.extent.height), gt, coarse,
                  args.out_dir / "scene.json")
    io.save_layout(layout, args.out_dir / "layout.json")
    (args.out_dir / "stats.json").write_text(json.dumps({
        "source": {"fr": src.fr, "small": src.small},
        "mosaic": {"fr": mos.fr, "small": mos.small},
    }, indent=2))
    print(f"wrote scene.json, layout.json, stats.json to {args.out_dir}/")


if __name__ == "__main__":
    main()
