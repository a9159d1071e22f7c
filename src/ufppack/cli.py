"""Command line driver for the packing pipeline and the training simulation.

Exit codes: 0 success, 1 validation error, 2 I/O or parse error. All
diagnostics go to stderr. `synth` and `train-sim` take their seed from their
spec or config file; `pack` and `unpack` draw no random numbers, and their
config holds no seed. An unknown key in a config or spec file fails with
exit 1. `pack`, `unpack` and `stats` take the detections of one image: a
detection file with more than one `image_id` fails with exit 1, and so does
`unpack` with fine and coarse files of different ids. An `image_id` must be a
JSON integer or string; a record with any other id fails with exit 1 and its
index. `unpack` writes the id of its inputs.

A scene file written by `synth` may stand in for a detection file: `pack
--detections` and `unpack --coarse` take its coarse records, and `stats
--boxes` its ground truth. `pack` and `stats` refuse an `--image-size` other
than the scene's `image_size` with exit 1, and every command a scene
`image_size` that `--image-size` would refuse, with exit 2.
"""
from __future__ import annotations

import argparse
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
        w, h = map(float, s.lower().split("x"))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected WxH, got {s!r}") from e
    try:
        return ImageExtent(w, h)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _load_config(cls: type, path: str | None) -> Any:
    """A PipelineConfig or TrainConfig from its JSON file; the defaults without one."""
    if path is None:
        return cls()
    return cls.from_dict(io.read_json(path, dict, "a config object"))


def _one_image(path: str, part: str, image_size: ImageExtent) -> list:
    """The detections of a detection or scene file of at most one ``image_id``."""
    _, (dets,) = io.one_image({path: io.load_detections_or_scene(path, part, image_size)})
    return dets


def _cmd_pack(args: argparse.Namespace) -> int:
    if bool(args.image) != bool(args.out_mosaic):
        return _fail(1, "--image and --out-mosaic must be given together")
    cfg = _load_config(PipelineConfig, args.config)
    dets = _one_image(args.detections, "coarse", args.image_size)
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
    cfg = _load_config(PipelineConfig, args.config)
    layout = io.load_layout(args.layout)
    image_id, (fine, coarse) = io.one_image({
        "fine": io.load_detections(args.fine),
        "coarse": io.load_detections_or_scene(args.coarse, "coarse")})
    remapped = [m for d in fine if (m := to_source(d, layout)) is not None]
    fused = fuse(coarse, remapped, cfg.nms_iou)
    io.save_detections(fused, args.out, 0 if image_id is None else image_id)
    print(f"fused {len(coarse)} coarse + {len(remapped)} remapped fine "
          f"-> {len(fused)} detections")
    return 0


def _stats_line(label: str, st) -> str:
    return (f"{label}: FR {100 * st.fr:.2f}%  small {100 * st.small:.2f}%  "
            f"medium {100 * st.medium:.2f}%  large {100 * st.large:.2f}%")


def _cmd_stats(args: argparse.Namespace) -> int:
    boxes = [d.box for d in _one_image(args.boxes, "ground_truth", args.image_size)]
    # Everything is read and computed before the first line is printed.
    lines = [_stats_line("source", scene_stats(boxes, args.image_size))]
    if args.layout:
        lines.append(_stats_line("mosaic", mosaic_stats(boxes, io.load_layout(args.layout))))
    print("\n".join(lines))
    return 0


def _cmd_train_sim(args: argparse.Namespace) -> int:
    cfg = _load_config(TrainConfig, args.config)
    report = train_sim(cfg)
    io.save_jsonl(report.records, args.out)
    min_dist = report.final_min_proxy_distance
    calls = len(report.transport) * cfg.n_classes if cfg.use_ot else 0
    steps = max(t.max_iterations for t in report.transport)
    violation = max(t.max_violation for t in report.transport)
    print(f"ran {cfg.steps} steps; final min proxy distance "
          f"{'n/a' if min_dist is None else f'{min_dist:.4f}'}; "
          f"{report.unconverged_calls} of {calls} Sinkhorn calls did not converge; "
          f"at most {steps} solver steps in a call; "
          f"worst marginal violation {violation:.1e}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SceneSpec.from_dict(io.read_json(args.spec, dict, "a scene spec object"))
    gt, coarse = generate_scene(spec)
    io.save_scene(spec.extent, gt, coarse, args.out)
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
    except (io.ParseError, OSError) as e:
        return _fail(2, str(e))
    except (ValueError, TypeError) as e:
        return _fail(1, str(e))


if __name__ == "__main__":
    sys.exit(main())
