"""Command line driver for the packing pipeline and the training simulation.

Exit codes: 0 success, 1 validation error, 2 I/O or parse error. All
diagnostics go to stderr. The UFPPACK_SEED environment variable overrides
any seed found in config or spec files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from . import io
from .config import PipelineConfig
from .geometry import ImageExtent
from .metrics import SceneSpec, generate_scene, scene_stats
from .pipeline import build_layout, mosaic_stats
from .remap import fuse, to_source
from .trainsim import TrainConfig, train_sim


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_size(s: str) -> ImageExtent:
    try:
        w, h = s.lower().split("x")
        return ImageExtent(float(w), float(h))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected WxH, got {s!r}") from e


def _env_seeded(obj: Any) -> Any:
    """Apply the UFPPACK_SEED override, when set, to an object with a seed."""
    env_seed = os.environ.get("UFPPACK_SEED")
    if env_seed is not None:
        obj.seed = int(env_seed)
    return obj


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        cfg = PipelineConfig()
    else:
        with open(path) as f:
            cfg = PipelineConfig.from_dict(json.load(f))
    return _env_seeded(cfg)


def _cmd_pack(args: argparse.Namespace) -> int:
    if args.image and not args.out_mosaic:
        return _fail(1, "--image requires --out-mosaic")
    cfg = _load_config(args.config)
    per_image = io.load_detections(args.detections)
    dets = [d for img in sorted(per_image, key=str) for d in per_image[img]]
    _, layout = build_layout(dets, args.image_size, cfg)
    # Render first: a raster that does not fit the layout leaves no file.
    if args.image:
        io.compose_mosaic(layout, io.read_ppm(args.image), args.out_mosaic)
    try:
        io.save_layout(layout, args.out_layout)
    except BaseException:
        if args.image:
            Path(args.out_mosaic).unlink(missing_ok=True)
        raise
    print(f"packed {len(layout.placements)} regions into "
          f"{layout.mosaic_width:g}x{layout.mosaic_height:g}")
    return 0


def _cmd_unpack(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    layout = io.load_layout(args.layout)
    fine = [d for dets in io.load_detections(args.fine).values() for d in dets]
    coarse = [d for dets in io.load_detections(args.coarse).values() for d in dets]
    remapped = [m for d in fine if (m := to_source(d, layout)) is not None]
    fused = fuse(coarse, remapped, cfg.nms_iou)
    io.save_detections(fused, args.out)
    print(f"fused {len(coarse)} coarse + {len(remapped)} remapped fine "
          f"-> {len(fused)} detections")
    return 0


def _stats_line(label: str, st) -> str:
    return (f"{label}: FR {100 * st.fr:.2f}%  small {100 * st.small:.2f}%  "
            f"medium {100 * st.medium:.2f}%  large {100 * st.large:.2f}%")


def _cmd_stats(args: argparse.Namespace) -> int:
    per_image = io.load_detections(args.boxes)
    boxes = [d.box for dets in per_image.values() for d in dets]
    print(_stats_line("source", scene_stats(boxes, args.image_size)))
    if args.layout:
        layout = io.load_layout(args.layout)
        print(_stats_line("mosaic", mosaic_stats(boxes, layout)))
    return 0


def _cmd_train_sim(args: argparse.Namespace) -> int:
    with open(args.config) as f:
        cfg = _env_seeded(TrainConfig.from_dict(json.load(f)))
    report = train_sim(cfg)
    io.save_jsonl(report.records, args.out)
    min_dist = report.final_min_proxy_distance
    calls = len(report.transport) * cfg.n_classes if cfg.use_ot else 0
    print(f"ran {cfg.steps} steps; final min proxy distance "
          f"{'n/a' if min_dist is None else f'{min_dist:.4f}'}; "
          f"{report.unconverged_calls} of {calls} Sinkhorn calls did not converge")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    with open(args.spec) as f:
        doc = json.load(f)
    extent = doc.pop("extent", None)
    if extent is not None:
        doc["extent"] = ImageExtent(*extent)
    spec = _env_seeded(SceneSpec(**doc))
    gt, coarse = generate_scene(spec)
    io.save_scene((spec.extent.width, spec.extent.height), gt, coarse, args.out)
    print(f"generated {len(gt)} objects, {len(coarse)} coarse detections")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ufppack")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="expand, merge, equalize and pack detections")
    p.add_argument("--detections", required=True)
    p.add_argument("--image-size", required=True, type=_parse_size)
    p.add_argument("--config")
    p.add_argument("--out-layout", required=True)
    p.add_argument("--image", help="source PPM to render a mosaic from")
    p.add_argument("--out-mosaic")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("unpack", help="remap fine detections and fuse with coarse")
    p.add_argument("--fine", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--coarse", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_unpack)

    p = sub.add_parser("stats", help="foreground ratio and size buckets")
    p.add_argument("--boxes", required=True)
    p.add_argument("--image-size", required=True, type=_parse_size)
    p.add_argument("--layout")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train-sim", help="run the proxy training simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_sim)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.ParseError, FileNotFoundError) as e:
        return _fail(2, str(e))
    except OSError as e:
        return _fail(2, str(e))
    except (ValueError, TypeError) as e:
        return _fail(1, str(e))


if __name__ == "__main__":
    sys.exit(main())
