"""File formats: detection JSON, layout JSON, scene JSON, JSONL reports, PPM.

All writes go through a temp file and an atomic rename so a failed run never
leaves a partial output behind.
"""
from __future__ import annotations

import json
import math
import os
import stat
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

_PPM_SPACE = b" \t\n\r\x0b\x0c"
_PPM_FIRST_READ = 1024


def _ppm_header(data: bytes) -> tuple[list[bytes], int] | None:
    """The four P6 header tokens and the offset of the pixel data, or None if
    ``data`` ends before the single whitespace byte that follows maxval."""
    tokens: list[bytes] = []
    pos, n = 0, len(data)
    while len(tokens) < 4:
        while pos < n and data[pos] in _PPM_SPACE:
            pos += 1
        if pos < n and data[pos] == ord("#"):
            pos = data.find(b"\n", pos)
            if pos < 0:
                return None
            continue
        start = pos
        while pos < n and data[pos] not in _PPM_SPACE:
            pos += 1
        if pos == n:  # the token may go on in bytes not read yet
            return None
        tokens.append(data[start:pos])
    return tokens, pos + 1


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary (P6) 8-bit PPM into an H x W x 3 uint8 array.

    The header is parsed from the first read, extended while a comment or
    token runs past its end; the pixels are then read straight into the
    returned array. Bytes after the pixel data are ignored.
    """
    with open(path, "rb") as f:
        data = b""
        while (header := _ppm_header(data)) is None:
            more = f.read(max(len(data), _PPM_FIRST_READ))
            if not more:
                raise ParseError(f"{path}: truncated PPM header")
            data += more
        (magic, *fields), offset = header
        if magic != b"P6":
            raise ParseError(f"{path}: not a P6 PPM")
        try:
            w, h, maxval = (int(t) for t in fields)
        except ValueError as e:
            raise ParseError(f"{path}: malformed PPM header") from e
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit PPM supported (maxval {maxval})")
        if w < 0 or h < 0:
            raise ParseError(f"{path}: negative PPM size {w}x{h}")
        # Refuse a size the file cannot hold before allocating for it.
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - offset < w * h * 3:
            raise ParseError(f"{path}: truncated pixel data")
        image = np.empty((h, w, 3), dtype=np.uint8)
        f.seek(offset)
        if f.readinto(image.reshape(-1)) != image.size:
            raise ParseError(f"{path}: truncated pixel data")
    return image


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, _ = image.shape
    atomic_write(path, b"P6\n%d %d\n255\n" % (w, h), image)


def _resample_into(src: np.ndarray, out_h: int, out_w: int, dst: np.ndarray) -> None:
    """Resize ``src`` to out_h x out_w and write the top-left part of the
    result that ``dst`` covers into ``dst``.

    Bilinear with half-pixel-centred coordinates. The horizontal pass runs
    once for each source row that the written rows read, and output rows y0
    and y1 then share it. Both passes work on (rows, width * channels) arrays,
    with each x weight repeated across the channels. Every value comes from
    the same float64 operations as a per-output-row pass, so the bytes are
    those of one. take() gathers along one axis faster than fancy indexing.
    """
    if not dst.size:
        return
    in_h, in_w = src.shape[:2]
    eh, ew = dst.shape[:2]
    channels = math.prod(src.shape[2:])
    ys = (np.arange(eh) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(ew) + 0.5) * in_w / out_w - 0.5
    y0 = np.minimum(np.maximum(np.floor(ys).astype(int), 0), in_h - 1)
    x0 = np.minimum(np.maximum(np.floor(xs).astype(int), 0), in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.minimum(np.maximum(ys - y0, 0.0), 1.0)[:, None]
    fx = np.repeat(np.minimum(np.maximum(xs - x0, 0.0), 1.0), channels)
    top = int(y0[0])
    rows = src[top : int(y1[-1]) + 1]
    flat = (len(rows), ew * channels)
    hz = rows.take(x0, axis=1).reshape(flat) * (1 - fx)
    hz += rows.take(x1, axis=1).reshape(flat) * fx
    acc = hz.take(y0 - top, axis=0)
    acc *= 1 - fy
    bot = hz.take(y1 - top, axis=0)
    bot *= fy
    acc += bot
    acc = acc.reshape(dst.shape)
    if src.dtype == np.uint8:
        # A convex blend of values in [0, 255] rounds into [0, 255]: no clip.
        np.rint(acc, out=dst, casting="unsafe")
    else:
        dst[...] = np.clip(np.rint(acc), 0, 255)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel-centered coordinates, to uint8.

    ``image`` is H x W with any trailing channel axes; a same-size call
    returns a copy.
    """
    in_h, in_w = image.shape[:2]
    if out_h == in_h and out_w == in_w:
        return image.copy()
    out = np.empty((out_h, out_w) + image.shape[2:], dtype=np.uint8)
    _resample_into(image, out_h, out_w, out)
    return out


class CompositionError(ValueError):
    """A placement's source region falls outside the raster or covers no
    pixel, or its destination origin falls outside the mosaic."""


def compose_mosaic(layout: MosaicLayout, source_image: np.ndarray, path: str | Path) -> None:
    """Render the mosaic: scaled bilinear crops on a black background.

    Each crop is widened to whole source pixels, resized to
    max(1, round(size * scale)) and drawn at the rounded destination, in
    layout order, clipped at the right and bottom mosaic edges.
    """
    h, w = source_image.shape[:2]
    canvas = np.zeros((max(math.ceil(layout.mosaic_height), 1),
                       max(math.ceil(layout.mosaic_width), 1), 3), dtype=np.uint8)
    canvas_h, canvas_w = canvas.shape[:2]
    for i, p in enumerate(layout.placements):
        sx1, sy1 = math.floor(p.source.x1), math.floor(p.source.y1)
        sx2, sy2 = math.ceil(p.source.x2), math.ceil(p.source.y2)
        if sx1 < 0 or sy1 < 0 or sx2 > w or sy2 > h:
            raise CompositionError(
                f"placement {i} source region ({sx1},{sy1},{sx2},{sy2}) "
                f"outside raster {w}x{h}"
            )
        if sx2 == sx1 or sy2 == sy1:
            raise CompositionError(
                f"placement {i} source region ({sx1},{sy1},{sx2},{sy2}) covers no pixel"
            )
        dx, dy = round(p.dest_x), round(p.dest_y)
        if not (0 <= dx < canvas_w and 0 <= dy < canvas_h):
            raise CompositionError(
                f"placement {i} destination ({dx},{dy}) outside mosaic {canvas_w}x{canvas_h}"
            )
        crop = source_image[sy1:sy2, sx1:sx2]
        if p.scale == 1.0:
            dst = canvas[dy : dy + sy2 - sy1, dx : dx + sx2 - sx1]
            dst[...] = crop[: dst.shape[0], : dst.shape[1]]
        else:
            th = max(1, round((sy2 - sy1) * p.scale))
            tw = max(1, round((sx2 - sx1) * p.scale))
            _resample_into(crop, th, tw, canvas[dy : dy + th, dx : dx + tw])
    write_ppm(canvas, path)
