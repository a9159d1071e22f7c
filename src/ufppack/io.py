"""File formats: detection JSON, layout JSON, scene JSON, JSONL reports, PPM.

All writes go through a temp file and an atomic rename so a failed run never
leaves a partial output behind.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .geometry import BBox
from .mosaic import MosaicLayout, Placement
from .remap import Detection


class ParseError(ValueError):
    """Malformed or schema-violating input file."""


class ValidationError(ValueError):
    """Well-formed input with invalid record contents."""


def atomic_write(path: str | Path, *parts: str | bytes | np.ndarray) -> None:
    """Write the parts in order, through a temp file and an atomic rename.

    A ``str`` part is written as UTF-8; any other part must be a C-contiguous
    bytes-like object, written as is without a copy.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str | Path) -> Any:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e


# -- detections (COCO results schema) ---------------------------------------

def detections_from_records(records: Sequence[dict[str, Any]]) -> dict[Any, list[Detection]]:
    """Group COCO-style result records {image_id, bbox, score, category_id} by image."""
    bad: list[int] = []
    per_image: dict[Any, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            x, y, w, h = rec["bbox"]
            if not (math.isfinite(x) and math.isfinite(y)
                    and math.isfinite(w) and math.isfinite(h)):
                raise ValueError("non-finite coordinate")
            if w < 0 or h < 0:
                raise ValueError("negative extent")
            det = Detection(
                BBox(float(x), float(y), float(x) + float(w), float(y) + float(h)),
                float(rec.get("score", 1.0)),
                int(rec.get("category_id", 0)),
            )
        except (KeyError, TypeError, ValueError):
            bad.append(i)
            continue
        per_image.setdefault(rec.get("image_id", 0), []).append(det)
    if bad:
        raise ValidationError(f"invalid detection records at indices {bad}")
    return per_image


def load_detections(path: str | Path) -> dict[Any, list[Detection]]:
    doc = _load_json(path)
    if isinstance(doc, dict) and "coarse" in doc:  # scene file convenience
        doc = doc["coarse"]
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected an array of detection records")
    return detections_from_records(doc)


def detections_to_records(
    dets: Sequence[Detection], image_id: Any = 0
) -> list[dict[str, Any]]:
    return [
        {
            "image_id": image_id,
            "bbox": [d.box.x1, d.box.y1, d.box.width, d.box.height],
            "score": d.score,
            "category_id": d.category,
        }
        for d in dets
    ]


def save_detections(dets: Sequence[Detection], path: str | Path, image_id: Any = 0) -> None:
    atomic_write(path, json.dumps(detections_to_records(dets, image_id), indent=1))


# -- synthetic scene files ---------------------------------------------------

def save_scene(
    extent_wh: tuple[float, float],
    gt_boxes: Sequence[BBox],
    coarse: Sequence[Detection],
    path: str | Path,
) -> None:
    doc = {
        "image_size": [extent_wh[0], extent_wh[1]],
        "ground_truth": [
            {"image_id": 0, "bbox": [b.x1, b.y1, b.width, b.height], "score": 1.0,
             "category_id": 0}
            for b in gt_boxes
        ],
        "coarse": detections_to_records(coarse),
    }
    atomic_write(path, json.dumps(doc, indent=1))


def load_scene(path: str | Path) -> tuple[tuple[float, float], list[BBox], list[Detection]]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "ground_truth" not in doc:
        raise ParseError(f"{path}: expected a scene object with ground_truth")
    w, h = doc["image_size"]
    gt_by_img = detections_from_records(doc["ground_truth"])
    coarse_by_img = detections_from_records(doc.get("coarse", []))
    gt = [d.box for d in gt_by_img.get(0, [])]
    return (float(w), float(h)), gt, coarse_by_img.get(0, [])


# -- mosaic layouts ----------------------------------------------------------

def layout_to_dict(layout: MosaicLayout) -> dict[str, Any]:
    return {
        "mosaic": {"width": layout.mosaic_width, "height": layout.mosaic_height},
        "placements": [
            {
                "src": [p.source.x1, p.source.y1, p.source.x2, p.source.y2],
                "scale": p.scale,
                "dest": [p.dest_x, p.dest_y],
            }
            for p in layout.placements
        ],
    }


def layout_from_dict(doc: dict[str, Any]) -> MosaicLayout:
    try:
        placements = [
            Placement(
                BBox(*(float(v) for v in p["src"])),
                float(p["scale"]),
                float(p["dest"][0]),
                float(p["dest"][1]),
            )
            for p in doc["placements"]
        ]
        return MosaicLayout(
            float(doc["mosaic"]["width"]), float(doc["mosaic"]["height"]), placements
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid layout document: {e}") from e


def save_layout(layout: MosaicLayout, path: str | Path) -> None:
    atomic_write(path, json.dumps(layout_to_dict(layout), indent=1))


def load_layout(path: str | Path) -> MosaicLayout:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a layout object")
    return layout_from_dict(doc)


# -- JSONL metric reports ----------------------------------------------------

def save_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> None:
    atomic_write(path, "".join(json.dumps(r) + "\n" for r in records))


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    out = []
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{i + 1}: invalid JSON line") from e
    return out


# -- PPM rasters and mosaic composition --------------------------------------

def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary (P6) 8-bit PPM into an H x W x 3 uint8 array."""
    data = Path(path).read_bytes()
    try:
        header: list[bytes] = []
        pos = 0
        while len(header) < 4:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
                continue
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            header.append(data[start:pos])
        if header[0] != b"P6":
            raise ParseError(f"{path}: not a P6 PPM")
        w, h, maxval = int(header[1]), int(header[2]), int(header[3])
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
        pos += 1  # single whitespace after maxval
        pixels = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    except (IndexError, ValueError) as e:
        raise ParseError(f"{path}: truncated or malformed PPM") from e
    if pixels.size != w * h * 3:
        raise ParseError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w, 3).copy()


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, _ = image.shape
    atomic_write(path, b"P6\n%d %d\n255\n" % (w, h), image)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel-centered coordinates."""
    in_h, in_w = image.shape[:2]
    if out_h == in_h and out_w == in_w:
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    # Horizontal pass once per source row; output rows y0 and y1 then share
    # it. Each value is computed by the same operations as a per-output-row
    # pass, so the result is bit-identical to one. take() gathers along one
    # axis faster than fancy indexing does.
    hz = image.take(x0, axis=1) * (1 - fx)
    hz += image.take(x1, axis=1) * fx
    out = hz.take(y0, axis=0)
    out *= 1 - fy
    bot = hz.take(y1, axis=0)
    bot *= fy
    out += bot
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    return out.astype(np.uint8)


class CompositionError(ValueError):
    """A placement's source region falls outside the raster."""


def compose_mosaic(layout: MosaicLayout, source_image: np.ndarray, path: str | Path) -> None:
    """Render the mosaic: scaled bilinear crops on a black background."""
    h, w = source_image.shape[:2]
    out_h = int(np.ceil(layout.mosaic_height))
    out_w = int(np.ceil(layout.mosaic_width))
    canvas = np.zeros((max(out_h, 1), max(out_w, 1), 3), dtype=np.uint8)
    for i, p in enumerate(layout.placements):
        sx1, sy1 = int(np.floor(p.source.x1)), int(np.floor(p.source.y1))
        sx2, sy2 = int(np.ceil(p.source.x2)), int(np.ceil(p.source.y2))
        if sx1 < 0 or sy1 < 0 or sx2 > w or sy2 > h:
            raise CompositionError(
                f"placement {i} source region ({sx1},{sy1},{sx2},{sy2}) "
                f"outside raster {w}x{h}"
            )
        crop = source_image[sy1:sy2, sx1:sx2]
        th = max(1, int(round(crop.shape[0] * p.scale)))
        tw = max(1, int(round(crop.shape[1] * p.scale)))
        resized = crop if p.scale == 1.0 else bilinear_resize(crop, th, tw)
        dy, dx = int(round(p.dest_y)), int(round(p.dest_x))
        eh = min(resized.shape[0], canvas.shape[0] - dy)
        ew = min(resized.shape[1], canvas.shape[1] - dx)
        canvas[dy : dy + eh, dx : dx + ew] = resized[:eh, :ew]
    write_ppm(canvas, path)
