"""File formats: detection JSON, layout JSON, scene JSON, JSONL reports, PPM.

Every JSON input is read by ``read_json``, and each format has one parser:
``detections_from_records``, ``_scene`` and ``layout_from_dict``. Detection
records have one writer, ``_detections_json``, whose per-record template a
scene file nests one level deeper. Each JSON file is written in one pass
(``_json_text``): its numbers are collected into one flat list, checked by two
C-level ``map``s and formatted by one ``%`` over the joined record templates.
An ``image_id`` is a JSON integer or string (``_is_image_id``), in the files
read and written. All writes go through a temp file and an atomic rename so a
failed run never leaves a partial output.
"""
from __future__ import annotations

import json
import math
import os
import re
import stat
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import BBox, ImageExtent
from .mosaic import MosaicLayout, Placement
from .remap import Detection


class ParseError(ValueError):
    """Malformed or schema-violating input file."""


class ValidationError(ValueError):
    """Well-formed input with invalid record contents."""


# The Python types of a JSON number; bool, a subclass of int, is not one.
_NUMBER = frozenset((int, float))


def _is_image_id(v: Any) -> bool:
    """Whether ``v`` is an ``image_id``: a JSON integer (not a bool) or a JSON
    string. Between these two types Python's ``==`` is JSON equality."""
    return type(v) is int or type(v) is str


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


def _num(v: Any) -> str:
    """A finite float or an int as ``json.dumps`` spells it; anything else
    raises ValueError, since standard JSON has no spelling for NaN or infinity.

    ``float.__repr__`` is what the encoder calls, also for subclasses such as
    ``np.float64``, whose own repr would differ.
    """
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
    elif isinstance(v, int) and not isinstance(v, bool):
        return int.__repr__(v)
    raise ValueError(f"not a finite JSON number: {v!r}")


def _json_array(items: list[str], indent: str) -> str:
    """``items``, each already laid out one level deeper, as an indented array."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _json_text(template: str, nums: list[Any]) -> str:
    """``template`` with its ``%s`` fields filled by ``nums`` in one ``%``, each
    number spelled as ``json.dumps`` spells it.

    Two C-level passes check that every number is exactly a float or an int,
    and finite; ``%s`` spells those as the encoder does. Only when one is not
    do the numbers go through ``_num``, which spells a float subclass by
    ``float.__repr__`` and raises ValueError for anything else: a bool, a NumPy
    integer, a NaN or an infinity.
    """
    try:
        if _NUMBER.issuperset(map(type, nums)) and all(map(math.isfinite, nums)):
            return template % tuple(nums)
    except OverflowError:  # an int past the float range, which _num spells
        pass
    return template % tuple(map(_num, nums))


def read_json(path: str | Path, top: type | tuple[type, ...], what: str) -> Any:
    """The JSON document of a file, the one reader of every JSON input. A file
    that is not UTF-8 text or not JSON, or a top level that is not a ``top``,
    raises ParseError naming the path, as does an integer too long for
    ``int`` to read; ``what`` names the expected document in its message."""
    try:
        doc = json.loads(Path(path).read_bytes().decode())
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text at byte {e.start}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from e
    except ValueError as e:  # the only other: an integer past sys.get_int_max_str_digits()
        raise ParseError(f"{path}: integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from e
    if not isinstance(doc, top):
        raise ParseError(f"{path}: expected {what}")
    return doc


# -- detections (COCO results schema) ---------------------------------------

def detections_from_records(records: Sequence[dict[str, Any]]) -> dict[int | str, list[Detection]]:
    """Group COCO-style result records {image_id, bbox, score, category_id} by image.

    An ``image_id`` must be a JSON integer or string, a ``category_id`` a JSON
    integer, a ``score`` and each ``bbox`` entry a JSON number, and ``w`` and
    ``h`` not negative; records with any other, a bool included, raise
    ValidationError by index.
    """
    bad: list[int] = []
    per_image: dict[int | str, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            x, y, w, h = rec["bbox"]
            image_id = rec.get("image_id", 0)
            score, category = rec.get("score", 1.0), rec.get("category_id", 0)
            # BBox refuses a non-finite or reversed corner, but a negative w
            # or h smaller than half an ulp of x or y rounds to a valid box.
            if not (_is_image_id(image_id) and type(category) is int
                    and {type(score), type(x), type(y), type(w), type(h)} <= _NUMBER
                    and w >= 0 and h >= 0):
                raise ValueError
            x, y = float(x), float(y)
            det = Detection(BBox(x, y, x + float(w), y + float(h)), float(score), category)
        except (KeyError, TypeError, ValueError, OverflowError):
            bad.append(i)
            continue
        per_image.setdefault(image_id, []).append(det)
    if bad:
        raise ValidationError(f"invalid detection records at indices {bad}")
    return per_image


def one_image(sources: dict[str, dict[Any, list[Detection]]]) -> tuple[Any, list[list[Detection]]]:
    """The one ``image_id`` of the detections of ``sources``, groupings by
    image under a name each, and the detections of each; the id is None when
    they hold none. Sources that hold more than one id between them raise
    ValidationError."""
    found: tuple[str, Any] | None = None
    for name, per_image in sources.items():
        if len(per_image) > 1:
            raise ValidationError(f"{name}: detections of {len(per_image)} images; "
                                  f"one image per file is supported")
        for image_id in per_image:
            if found is not None and found[1] != image_id:
                raise ValidationError(f"{found[0]} detections are of image_id {found[1]!r}, "
                                      f"{name} detections of image_id {image_id!r}")
            found = (name, image_id)
    image_id = None if found is None else found[1]
    return image_id, [per_image.get(image_id, []) for per_image in sources.values()]


def load_detections(path: str | Path) -> dict[int | str, list[Detection]]:
    return detections_from_records(read_json(path, list, "an array of detection records"))


_DETECTION = (' {\n  "image_id": %s,\n  "bbox": [\n   %s,\n   %s,\n   %s,\n   %s\n  ],'
              '\n  "score": %s,\n  "category_id": %s\n }')
# The same record one nesting level deeper, in an array of a scene object.
_SCENE_DETECTION = " " + _DETECTION.replace("\n", "\n ")


def _detections_json(dets: Sequence[Detection], image_id: int | str,
                     template: str = _DETECTION, indent: str = "") -> tuple[str, list[Any]]:
    """The records {image_id, bbox, score, category_id} of ``dets`` as
    ``json.dumps(..., indent=1)`` spells them in an array at ``indent``, one
    ``template`` per record, as a template for ``_json_text`` and the numbers
    that fill it in file order; the C-accelerated encoder has no indented mode.

    An ``image_id`` that is not a JSON integer or string raises ValueError.
    """
    if not _is_image_id(image_id):
        raise ValueError(f"image_id must be a JSON integer or string, got {image_id!r}")
    # The record's first field is its image_id, a "%" of which is kept literal.
    record = template.replace("%s", json.dumps(image_id).replace("%", "%%"), 1)
    nums: list[Any] = []
    for d in dets:
        b = d.box
        nums += (b.x1, b.y1, b.x2 - b.x1, b.y2 - b.y1, d.score, d.category)
    return _json_array([record] * len(dets), indent), nums


def save_detections(dets: Sequence[Detection], path: str | Path, image_id: int | str = 0) -> None:
    """The detection records ``load_detections`` reads; a non-finite or
    non-JSON number raises ValueError and writes no file."""
    atomic_write(path, _json_text(*_detections_json(dets, image_id)))


# -- synthetic scene files ---------------------------------------------------

_SCENE = '{\n "image_size": [\n  %s,\n  %s\n ],\n "ground_truth": %s,\n "coarse": %s\n}'


def save_scene(
    extent_wh: tuple[float, float],
    gt_boxes: Sequence[BBox],
    coarse: Sequence[Detection],
    path: str | Path,
) -> None:
    """The scene object ``load_scene`` reads, all its records of ``image_id``
    0; a non-finite number raises ValueError."""
    gt, gt_nums = _detections_json([Detection(b, 1.0, 0) for b in gt_boxes], 0,
                                   _SCENE_DETECTION, " ")
    coarse, coarse_nums = _detections_json(coarse, 0, _SCENE_DETECTION, " ")
    atomic_write(path, _json_text(_SCENE % ("%s", "%s", gt, coarse),
                                  [extent_wh[0], extent_wh[1], *gt_nums, *coarse_nums]))


class Scene(NamedTuple):
    """A scene file's extent, its ground-truth and coarse detection records,
    and their one ``image_id``, None when it has no records."""

    image_size: tuple[float, float]
    ground_truth: list[Detection]
    coarse: list[Detection]
    image_id: int | str | None


def _scene(doc: dict[str, Any], path: str | Path) -> Scene:
    """The scene of a scene document, the only parser of one. Its records must
    be of one ``image_id`` (``one_image``); an ``image_size`` that is not a
    pair of finite positive numbers, or a ``ground_truth`` or ``coarse`` that
    is not an array, raises ParseError; a ValidationError of a record names
    the array it is in."""
    size, gt, coarse = doc.get("image_size"), doc.get("ground_truth"), doc.get("coarse", [])
    if type(gt) is not list or type(coarse) is not list:
        raise ParseError(f"{path}: expected a scene object with a ground_truth array "
                         f"and an optional coarse array")
    # Written so that a NaN, and an integer past float range, fail it too.
    if not (type(size) is list and len(size) == 2 and all(
            type(v) in _NUMBER and 0 < v <= sys.float_info.max for v in size)):
        raise ParseError(f"{path}: image_size must be a pair of finite positive numbers, "
                         f"got {size!r}")
    named = {}
    for key, records in (("ground_truth", gt), ("coarse", coarse)):
        try:
            named[key] = detections_from_records(records)
        except ValidationError as e:
            raise ValidationError(f"{path}: {key}: {e}") from e
    image_id, (gt, coarse) = one_image({f"{path}: ground truth": named["ground_truth"],
                                        "coarse": named["coarse"]})
    return Scene((float(size[0]), float(size[1])), gt, coarse, image_id)


def load_scene(path: str | Path) -> Scene:
    return _scene(read_json(path, dict, "a scene object"), path)


def load_detections_or_scene(
    path: str | Path, part: str, extent: ImageExtent | None = None
) -> dict[int | str, list[Detection]]:
    """The detections by ``image_id`` of a file, with one read: of a JSON array
    as ``load_detections`` reads it, or of a scene object as ``load_scene``
    reads it, its ``part`` ("coarse" or "ground_truth") under the scene's id.
    A scene whose image_size is not ``extent``, when given, raises ValueError."""
    doc = read_json(path, (list, dict), "an array of detection records or a scene object")
    if isinstance(doc, list):
        return detections_from_records(doc)
    scene = _scene(doc, path)
    if extent is not None and scene.image_size != (extent.width, extent.height):
        raise ValueError("%s: scene image_size %gx%g differs from --image-size %gx%g"
                         % (path, *scene.image_size, extent.width, extent.height))
    # A scene of no records names no image, as an empty detection file does.
    return {} if scene.image_id is None else {scene.image_id: getattr(scene, part)}


# -- mosaic layouts ----------------------------------------------------------

def layout_from_dict(doc: dict[str, Any]) -> MosaicLayout:
    try:
        width, height = doc["mosaic"]["width"], doc["mosaic"]["height"]
        if not {type(width), type(height)} <= _NUMBER:
            raise TypeError(f"mosaic width and height must be JSON numbers, "
                            f"got {width!r} and {height!r}")
        width, height = float(width), float(height)
        # Written so that a NaN fails the test too.
        if not (0 <= width < math.inf and 0 <= height < math.inf):
            raise ValueError(f"mosaic size {width}x{height} is not finite and nonnegative")
        placements = []
        for i, p in enumerate(doc["placements"]):
            src, scale, dest = p["src"], p["scale"], p["dest"]
            if not (type(src) is list and len(src) == 4 and type(dest) is list and len(dest) == 2
                    and {type(scale), *map(type, src), *map(type, dest)} <= _NUMBER):
                raise TypeError(f"placement {i} src, scale and dest must be 4, 1 and 2 "
                                f"JSON numbers, got {src!r}, {scale!r} and {dest!r}")
            try:
                p = Placement(BBox(*map(float, src)), float(scale), float(dest[0]), float(dest[1]))
            except (ValueError, OverflowError) as e:
                raise ValueError(f"placement {i}: {e}") from e
            # The scaled box, dest to dest + scale * (src2 - src1), must be finite and
            # inside the mosaic; written so that a NaN or an overflow to infinity fails it too.
            x2, y2 = p.dest_x + p.width, p.dest_y + p.height
            if not (0 <= p.dest_x and x2 <= width and 0 <= p.dest_y and y2 <= height):
                raise ValueError(f"placement {i} scaled box ({p.dest_x},{p.dest_y},{x2},{y2}) "
                                 f"is not inside the {width:g}x{height:g} mosaic")
            placements.append(p)
        return MosaicLayout(width, height, placements)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"invalid layout document: {e}") from e


_LAYOUT = '{\n "mosaic": {\n  "width": %s,\n  "height": %s\n },\n "placements": %s\n}'
_PLACEMENT = ('  {\n   "src": [\n    %s,\n    %s,\n    %s,\n    %s\n   ],\n   "scale": %s,'
              '\n   "dest": [\n    %s,\n    %s\n   ]\n  }')


def _layout_json(layout: MosaicLayout) -> str:
    """The document ``layout_from_dict`` reads, as ``json.dumps(..., indent=1)``
    spells it, one template per placement; the C-accelerated encoder has no
    indented mode. A non-finite number raises ValueError."""
    nums = [layout.mosaic_width, layout.mosaic_height]
    for p in layout.placements:
        src = p.source
        nums += (src.x1, src.y1, src.x2, src.y2, p.scale, p.dest_x, p.dest_y)
    placements = _json_array([_PLACEMENT] * len(layout.placements), " ")
    return _json_text(_LAYOUT % ("%s", "%s", placements), nums)


def save_layout(layout: MosaicLayout, path: str | Path) -> None:
    atomic_write(path, _layout_json(layout))


def load_layout(path: str | Path) -> MosaicLayout:
    return layout_from_dict(read_json(path, dict, "a layout object"))


# -- JSONL metric reports ----------------------------------------------------

def save_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> None:
    """One JSON object per line; a NaN or infinity raises ValueError, since
    standard JSON has no spelling for them."""
    atomic_write(path, "".join(json.dumps(r, allow_nan=False) + "\n" for r in records))


# -- PPM rasters and mosaic composition --------------------------------------

# Magic, width, height and maxval, each after whitespace and "#...\n" comments
# and ended by one whitespace byte. A token is any run up to whitespace, so
# bytes fail to match only where a header would run past them, and a header
# cut at a read boundary cannot match early.
_PPM_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)\s" * 4)
_PPM_FIRST_READ = 1024


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary (P6) 8-bit PPM into an H x W x 3 uint8 array.

    The header is parsed from the first read, extended while a comment or
    token runs past its end; the pixels that read holds are copied into the
    returned array and the rest are read straight into it, so a pipe works
    as a regular file does. Bytes after the pixel data are ignored.
    """
    with open(path, "rb") as f:
        data = b""
        while (header := _PPM_HEADER.match(data)) is None:
            more = f.read(max(len(data), _PPM_FIRST_READ))
            if not more:
                raise ParseError(f"{path}: truncated PPM header")
            data += more
        (magic, *fields), offset = header.groups(), header.end()
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
        flat = image.reshape(-1)
        held = min(len(data) - offset, flat.size)
        flat[:held] = np.frombuffer(data, np.uint8, held, offset)
        if held + f.readinto(flat[held:]) != flat.size:
            raise ParseError(f"{path}: truncated pixel data")
    return image


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w, _ = image.shape
    atomic_write(path, b"P6\n%d %d\n255\n" % (w, h), image)


class CompositionError(ValueError):
    """A placement's source region falls outside the raster or covers no
    pixel, or its destination origin falls outside the mosaic."""


def _axis_taps(
    dest: np.ndarray, scale: np.ndarray, src1: np.ndarray, src2: np.ndarray,
    limit: int, size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear taps along one axis for every placement at once.

    Placement k covers the output indices from ``start[k] = round(dest)``
    up to ``round(dest + scale * (src2 - src1))``, clipped at ``limit``.
    These are concatenated, and ``bounds[k]:bounds[k + 1]`` is placement k's
    part of the tap arrays. Output index j samples ``(j + 0.5 - dest) /
    scale + src1 - 0.5`` in pixel-index space: ``lo`` and ``hi`` are its
    neighbours, clamped to ``0 .. size - 1``, and ``frac`` is the float32
    weight of ``hi``.
    """
    start = np.rint(dest)
    stop = np.minimum(np.rint(dest + scale * (src2 - src1)), limit)
    counts = np.maximum(stop - start, 0).astype(np.intp)
    bounds = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    j = np.arange(bounds[-1], dtype=float)
    j += np.repeat(start - bounds[:-1], counts)
    pos = (j + 0.5 - np.repeat(dest, counts)) / np.repeat(scale, counts)
    pos += np.repeat(src1, counts)
    pos -= 0.5
    floor = np.floor(pos)
    frac = (pos - floor).astype(np.float32)
    lo = np.clip(floor, 0, size - 1).astype(np.intp)
    hi = np.clip(floor + 1, 0, size - 1).astype(np.intp)
    return start.astype(np.intp), bounds, lo, hi, frac


def _draw(canvas: np.ndarray, flat: np.ndarray, geo: np.ndarray) -> None:
    """Draw the placements, the rows (dest_x, dest_y, scale, x1, y1, x2, y2)
    of ``geo``, into ``canvas`` from the channel-flat H x 3W source ``flat``,
    by the rule of ``compose_mosaic``."""
    h, w = flat.shape[0], flat.shape[1] // 3
    canvas_h, canvas_w = canvas.shape[:2]
    dest_x, dest_y, scale, x1, y1, x2, y2 = geo.T
    col0, xb, xlo, xhi, xfrac = _axis_taps(dest_x, scale, x1, x2, canvas_w, w)
    row0, yb, ylo, yhi, yfrac = _axis_taps(dest_y, scale, y1, y2, canvas_h, h)
    heights, widths = np.diff(yb), np.diff(xb)
    drawn = np.flatnonzero((heights > 0) & (widths > 0))
    if not drawn.size:
        return
    # The source rows each placement reads, and its row taps relative to them.
    top = ylo[np.minimum(yb[:-1], len(ylo) - 1)]
    bottom = yhi[np.maximum(yb[1:] - 1, 0)]
    near = ylo - np.repeat(top, heights)
    far = yhi - np.repeat(top, heights)
    # Channel-flat column taps: pixel x is bytes 3x, 3x + 1 and 3x + 2.
    left_cols = (3 * xlo[:, None] + np.arange(3)).reshape(-1)
    right_cols = (3 * xhi[:, None] + np.arange(3)).reshape(-1)
    xfrac = np.repeat(xfrac, 3)
    yfrac = yfrac[:, None]
    # Scratch sized for the largest placement and shared by all: fresh
    # arrays per placement cost more in page faults than the blends.
    read = (3 * (bottom - top + 1) * widths)[drawn].max()
    area = (3 * heights * widths)[drawn].max()
    left, right = np.empty(read, np.uint8), np.empty(read, np.uint8)
    across = np.empty(read, np.float32)
    upper, lower = np.empty(area, np.float32), np.empty(area, np.float32)
    out = canvas.reshape(canvas_h, canvas_w * 3)
    xb, yb, col0, row0 = (3 * xb).tolist(), yb.tolist(), (3 * col0).tolist(), row0.tolist()
    top, bottom = top.tolist(), bottom.tolist()
    for k in drawn.tolist():
        c0, c1, r0, r1 = xb[k], xb[k + 1], yb[k], yb[k + 1]
        rows = flat[top[k] : bottom[k] + 1]
        n_read, n_out = len(rows) * (c1 - c0), (r1 - r0) * (c1 - c0)
        # Horizontal lerp on the source rows, then vertical on the output
        # rows. The indices are in range by construction; mode="clip" keeps
        # take from buffering its output.
        a = rows.take(left_cols[c0:c1], axis=1, mode="clip",
                      out=left[:n_read].reshape(len(rows), -1))
        b = rows.take(right_cols[c0:c1], axis=1, mode="clip",
                      out=right[:n_read].reshape(len(rows), -1))
        hz = np.subtract(b, a, out=across[:n_read].reshape(len(rows), -1), dtype=np.float32)
        hz *= xfrac[c0:c1]
        hz += a
        a = hz.take(near[r0:r1], axis=0, mode="clip", out=upper[:n_out].reshape(r1 - r0, -1))
        b = hz.take(far[r0:r1], axis=0, mode="clip", out=lower[:n_out].reshape(r1 - r0, -1))
        b -= a
        b *= yfrac[r0:r1]
        b += a
        # A convex blend of values in [0, 255] rounds into [0, 255]: no clip.
        np.rint(b, out=out[row0[k] : row0[k] + r1 - r0, col0[k] : col0[k] + c1 - c0],
                casting="unsafe")


def compose_mosaic(layout: MosaicLayout, source_image: np.ndarray, path: str | Path) -> None:
    """Render the mosaic: each placement's exact affine image of the source,
    bilinear, on a black background.

    ``source_image`` is an H x W x 3 uint8 raster. Placement p writes only its
    rounded destination box, columns ``round(p.dest_x) .. round(p.dest_x +
    p.width)`` and the rows likewise, clipped at the right and bottom mosaic
    edges, in layout order. Pixel j samples the source at ``u = (j + 0.5 -
    p.dest_x) / p.scale + p.source.x1`` (rows likewise), bilinear between the
    pixel centres around it, with neighbours clamped to the raster. A
    whole-pixel placement at scale 1 is therefore an exact copy.

    The taps of all placements come from one vectorised pass. The blends are
    float32 lerps ``a + (b - a) * f`` in elementwise ufuncs, horizontal on
    the source rows a placement reads, then vertical; each is one IEEE-rounded
    operation, so the bytes do not depend on the CPU's SIMD width. Gathers
    run on channel-flat rows, where ``take`` moves single bytes.
    """
    h, w = source_image.shape[:2]
    canvas = np.zeros((max(math.ceil(layout.mosaic_height), 1),
                       max(math.ceil(layout.mosaic_width), 1), 3), dtype=np.uint8)
    canvas_h, canvas_w = canvas.shape[:2]
    geo = np.array([(p.dest_x, p.dest_y, p.scale, p.source.x1, p.source.y1, p.source.x2,
                     p.source.y2) for p in layout.placements], dtype=float).reshape(-1, 7)
    # Rounded origins and crop pixels, as round (half to even), math.floor and math.ceil give them.
    dx, dy = np.rint(geo[:, :2].T)
    sx1, sy1, sx2, sy2 = np.hstack([np.floor(geo[:, 3:5]), np.ceil(geo[:, 5:])]).T
    outside_raster = (sx1 < 0) | (sy1 < 0) | (sx2 > w) | (sy2 > h)
    no_pixel = (sx2 == sx1) | (sy2 == sy1)
    outside_canvas = (dx < 0) | (dx >= canvas_w) | (dy < 0) | (dy >= canvas_h)
    # The first faulty placement is named by its first fault in that order.
    if (bad := outside_raster | no_pixel | outside_canvas).any():
        i = int(bad.argmax())
        crop = "placement %d source region (%d,%d,%d,%d)" % (i, sx1[i], sy1[i], sx2[i], sy2[i])
        if outside_raster[i]:
            raise CompositionError(f"{crop} outside raster {w}x{h}")
        if no_pixel[i]:
            raise CompositionError(f"{crop} covers no pixel")
        raise CompositionError("placement %d destination (%d,%d) outside mosaic %dx%d"
                               % (i, dx[i], dy[i], canvas_w, canvas_h))
    _draw(canvas, np.ascontiguousarray(source_image).reshape(h, w * 3), geo)
    write_ppm(canvas, path)
