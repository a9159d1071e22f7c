"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own code paths: the merge oracle is a
direct index-juggling transcription of the greedy pseudocode, the merge scan
reference is an array merge that scans for every region (provenance
included), the expansion reference is the scalar per-box ``expand`` that
``regions.expand_and_merge`` vectorises bit for bit, and the NMS row
reference an array NMS that forms one IoU row per kept detection, which the
blocked pair tables of the library must equal exactly, the union-area
oracle is Monte Carlo (and the exact one, ``union_area_ref``, the sweep
on ``BBox`` attributes that ``metrics.union_area`` runs on a corner array),
the shelf packer reference ``pack_ref`` keys its placements by input index
in a dict, the mosaic oracle samples each pixel through its
placement's affine map in a scalar float64 loop, gradients
are checked by central finite differences, exact transport comes from basis
enumeration, the reference Sinkhorn is a scalar log-domain loop (plus the
plain kernel-domain loop, whose long runs give the fixed point at moderate
epsilon), the NMS
reference compares each candidate with every kept detection by scalar IoU
(``iou``, which only tests use),
the scene reference draws one side per object and sums each placement
attempt's overlaps in a scalar loop, and the layout, detection and scene file
references are ``json.dumps`` of them as dicts. The JSONL reader and a
placement's destination box are here too: only tests need them. So is an
unfused form of the training step's proxy gradient: ``multi_proxy_logit``'s
N x K x C tensor contracted with p - y, plus the transport gradient from its
own unit rows and cosines.
"""
from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ufppack.geometry import BBox, ImageExtent, area
from ufppack.mosaic import MosaicLayout, Placement, UnpackableRegionError
from ufppack.proxies import _row_norms, _sigmoid, multi_proxy_logit

Box = tuple[float, float, float, float]


def _area(b: Box) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def _hull(a: Box, b: Box) -> Box:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def merge_oracle(boxes: Sequence[Box], single_pass: bool = False) -> list[Box]:
    """Literal greedy region merge on coordinate tuples.

    Smallest box seeds a region; any remaining box whose hull with the
    current region costs no extra area is absorbed. By default the scan over
    remaining boxes repeats until a pass absorbs nothing; single_pass=True
    stops after one scan.
    """
    pool = list(boxes)
    merged: list[Box] = []
    while pool:
        best = 0
        for i in range(1, len(pool)):
            if _area(pool[i]) < _area(pool[best]):
                best = i
        a = pool.pop(best)
        while True:
            absorbed_any = False
            i = 0
            while i < len(pool):
                c = _hull(a, pool[i])
                if _area(a) + _area(pool[i]) >= _area(c):
                    a = c
                    pool.pop(i)
                    absorbed_any = True
                else:
                    i += 1
            if single_pass or not absorbed_any:
                break
        merged.append(a)
    return merged


def expand_ref(box: BBox, beta: float, extent: ImageExtent) -> BBox:
    """Scale width and height by beta about the box center, clamped to the image."""
    if beta < 1.0:
        raise ValueError(f"expansion ratio must be >= 1, got {beta}")
    cx, cy = box.center
    hw = 0.5 * beta * box.width
    hh = 0.5 * beta * box.height
    return BBox(
        max(0.0, cx - hw),
        max(0.0, cy - hh),
        min(extent.width, cx + hw),
        min(extent.height, cy + hh),
    )


def enclosing(a: BBox, b: BBox) -> BBox:
    """Smallest box containing both inputs, each corner as its input gave it."""
    return BBox(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


def _first_absorbable(
    coords: np.ndarray, areas: np.ndarray, alive: np.ndarray, region: BBox, cursor: int
) -> int:
    c = coords[cursor:]
    grown = (np.maximum(c[:, 2], region.x2) - np.minimum(c[:, 0], region.x1)) * (
        np.maximum(c[:, 3], region.y2) - np.minimum(c[:, 1], region.y1)
    )
    ok = alive[cursor:] & (area(region) + areas[cursor:] >= grown)
    return cursor + int(ok.argmax()) if ok.any() else -1


def merge_scan_reference(candidates: Sequence[BBox]) -> tuple[list[BBox], list[list[int]]]:
    """``regions.merge``'s regions and provenance, with every region found by
    scans: the seed is the smallest alive area (lowest index on ties), and
    the scan for the first alive box after the cursor that qualifies repeats
    until a full pass absorbs nothing."""
    boxes = list(candidates)
    coords = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)
    areas = (coords[:, 2] - coords[:, 0]) * (coords[:, 3] - coords[:, 1])
    alive = np.ones(len(boxes), dtype=bool)
    regions: list[BBox] = []
    provenance: list[list[int]] = []
    while alive.any():
        left = np.flatnonzero(alive)
        seed = int(left[np.argmin(areas[left])])
        alive[seed] = False
        current, absorbed = boxes[seed], [seed]
        changed = True
        while changed:
            changed = False
            cursor = 0
            while (j := _first_absorbable(coords, areas, alive, current, cursor)) >= 0:
                alive[j] = False
                current = enclosing(current, boxes[j])
                absorbed.append(j)
                changed = True
                cursor = j + 1
        regions.append(current)
        provenance.append(absorbed)
    return regions, provenance


def nms_row_reference(dets: Sequence, iou_threshold: float) -> list:
    """``remap.nms`` with one vectorised IoU row per kept detection against
    every later one."""
    order = sorted(
        range(len(dets)), key=lambda i: (-dets[i].score, dets[i].category, i)
    )
    boxes = np.array(
        [(dets[i].box.x1, dets[i].box.y1, dets[i].box.x2, dets[i].box.y2) for i in order],
        dtype=float,
    ).reshape(-1, 4)
    x1, y1, x2, y2 = boxes.T
    areas = (x2 - x1) * (y2 - y1)
    codes: dict[int, int] = {}
    cats = np.array([codes.setdefault(dets[i].category, len(codes)) for i in order])
    suppressed = np.zeros(len(order), dtype=bool)
    keep: list = []
    for r, i in enumerate(order):
        if suppressed[r]:
            continue
        keep.append(dets[i])
        t = slice(r + 1, None)
        iw = np.minimum(x2[t], x2[r]) - np.maximum(x1[t], x1[r])
        ih = np.minimum(y2[t], y2[r]) - np.maximum(y1[t], y1[r])
        inter = iw * ih
        union = areas[r] + areas[t] - inter
        overlap = (iw > 0) & (ih > 0) & (union > 0)
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=overlap)
        suppressed[t] |= (cats[t] == cats[r]) & ~(iou <= iou_threshold)
    return keep


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint or both-degenerate boxes."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.width * a.height + b.width * b.height - inter
    if union <= 0:
        return 0.0
    return inter / union


def nms_reference(dets: Sequence, iou_threshold: float) -> list:
    """Per-category greedy NMS by descending score, deterministic tie-breaks."""
    order = sorted(
        range(len(dets)), key=lambda i: (-dets[i].score, dets[i].category, i)
    )
    keep: list = []
    for i in order:
        d = dets[i]
        if all(
            k.category != d.category or iou(k.box, d.box) <= iou_threshold
            for k in keep
        ):
            keep.append(d)
    return keep


def union_area_ref(boxes: Sequence[BBox]) -> float:
    """Union area of a ``BBox`` list by the x-sweep on box attributes: every
    slab filters and sorts its own spans, in the order whose sums
    ``metrics.union_area`` must equal bit for bit."""
    boxes = [b for b in boxes if area(b) > 0]
    xs = sorted({b.x1 for b in boxes} | {b.x2 for b in boxes})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        spans = sorted(
            (b.y1, b.y2) for b in boxes if b.x1 <= x0 and b.x2 >= x1
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return total


def union_area_mc(boxes: Sequence[Box], extent: tuple[float, float], n: int, seed: int) -> float:
    """Monte Carlo estimate of the union area of boxes within the extent."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, extent[0], n)
    ys = rng.uniform(0, extent[1], n)
    hit = np.zeros(n, dtype=bool)
    for x1, y1, x2, y2 in boxes:
        hit |= (xs >= x1) & (xs <= x2) & (ys >= y1) & (ys <= y2)
    return float(hit.mean()) * extent[0] * extent[1]


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def layout_to_dict(layout) -> dict:
    """A MosaicLayout as plain JSON values; ``json.dumps(layout_to_dict(l),
    indent=1)`` is the byte-for-byte reference for ``io.save_layout``."""
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


def detections_to_records(dets, image_id=0) -> list[dict]:
    """Detections as COCO-style result records; ``json.dumps`` of them, alone
    or in a scene dict, with ``indent=1`` is the byte-for-byte reference for
    ``io.save_detections`` and ``io.save_scene``."""
    return [
        {
            "image_id": image_id,
            "bbox": [d.box.x1, d.box.y1, d.box.width, d.box.height],
            "score": d.score,
            "category_id": d.category,
        }
        for d in dets
    ]


def pack_ref(
    scaled: Sequence[tuple[BBox, float]], target_width: float, padding: float = 2.0
) -> MosaicLayout:
    """Shelf packer that keys placements by input index in a dict and flags
    each shelf's first region, which ``mosaic.pack`` must equal layout for
    layout."""
    if target_width <= 0:
        raise ValueError(f"target_width must be positive, got {target_width}")
    if padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    widths = [scale * source.width for source, scale in scaled]
    heights = [scale * source.height for source, scale in scaled]
    for i, (source, scale) in enumerate(scaled):
        if widths[i] > target_width - 2 * padding:
            raise UnpackableRegionError(
                f"region {i} (source {source}, scale {scale}) is "
                f"{widths[i]:g} px wide; strip allows "
                f"{target_width - 2 * padding:g}"
            )

    order = sorted(range(len(scaled)), key=lambda i: (-heights[i], i))
    placements: dict[int, Placement] = {}
    shelf_y = 0.0
    shelf_height = 0.0
    cursor_x = 0.0
    for i in order:
        source, scale = scaled[i]
        w, h = widths[i], heights[i]
        at_start = cursor_x == 0.0
        if not at_start and cursor_x + w > target_width:
            shelf_y += shelf_height + padding
            shelf_height = 0.0
            cursor_x = 0.0
            at_start = True
        if at_start:
            shelf_height = h  # height-sorted order: first item on a shelf is tallest

        placements[i] = Placement(source, scale, cursor_x, shelf_y)
        cursor_x += w + padding
    height = shelf_y + shelf_height if placements else 0.0
    return MosaicLayout(target_width, height, [placements[i] for i in range(len(scaled))])


def dest_box(p) -> BBox:
    """A placement's scaled box in the mosaic."""
    return BBox(p.dest_x, p.dest_y, p.dest_x + p.width, p.dest_y + p.height)


def load_jsonl(path) -> list[dict]:
    """The records of a JSONL report, one JSON object per non-blank line."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compose_affine_reference(layout, source_image: np.ndarray) -> np.ndarray:
    """Mosaic canvas drawn pixel by pixel through each placement's exact
    affine map, in float64.

    Placement p writes columns round(dest_x) .. round(dest_x + width) and
    the rows likewise, clipped at the right and bottom canvas edges, in
    layout order. Pixel j samples u = (j + 0.5 - dest_x) / scale + source.x1
    (rows likewise) bilinearly at u - 0.5 in pixel-index space, with the
    neighbours clamped to the raster.
    """
    h, w = source_image.shape[:2]
    image = source_image.astype(float)
    canvas = np.zeros((max(math.ceil(layout.mosaic_height), 1),
                       max(math.ceil(layout.mosaic_width), 1), 3), dtype=np.uint8)

    def taps(j: int, dest: float, scale: float, origin: float, size: int):
        pos = (j + 0.5 - dest) / scale + origin - 0.5
        i = math.floor(pos)
        return min(max(i, 0), size - 1), min(max(i + 1, 0), size - 1), pos - i

    for p in layout.placements:
        rows = range(round(p.dest_y), min(round(p.dest_y + p.height), canvas.shape[0]))
        cols = range(round(p.dest_x), min(round(p.dest_x + p.width), canvas.shape[1]))
        for r in rows:
            y0, y1, fy = taps(r, p.dest_y, p.scale, p.source.y1, h)
            for c in cols:
                x0, x1, fx = taps(c, p.dest_x, p.scale, p.source.x1, w)
                top = image[y0, x0] * (1 - fx) + image[y0, x1] * fx
                bot = image[y1, x0] * (1 - fx) + image[y1, x1] * fx
                canvas[r, c] = np.clip(np.rint(top * (1 - fy) + bot * fy), 0, 255)
    return canvas


def random_boxes(rng: np.random.Generator, n: int, extent: tuple[float, float]) -> list[Box]:
    out = []
    for _ in range(n):
        w = rng.uniform(1, extent[0] / 3)
        h = rng.uniform(1, extent[1] / 3)
        x = rng.uniform(0, extent[0] - w)
        y = rng.uniform(0, extent[1] - h)
        out.append((x, y, x + w, y + h))
    return out


def scene_reference(spec) -> tuple[list[Box], list[tuple[Box, float]]]:
    """The scene generator with one random draw per object and a scalar
    overlap check: ground-truth boxes and (box, score) coarse detections of a
    feasible spec.

    It makes the same draws in the same order as ``generate_scene``, and adds
    the overlaps of each attempt one by one in placement order.
    """
    ranges = ((16.0, 30.0), (34.0, 70.0), (98.0, 150.0))
    rng = np.random.default_rng(spec.seed)
    if spec.n_objects == 0:
        return [], []
    buckets = rng.choice(3, size=spec.n_objects, p=np.asarray(spec.proportions))
    sides = [rng.uniform(*ranges[k]) for k in buckets]
    roots = [math.sqrt(a) for a in rng.uniform(0.7, 1.4, size=spec.n_objects)]
    width, height = spec.extent.width, spec.extent.height
    target = spec.target_fr * (width * height)
    for _ in range(8):
        cur = float(np.sum(np.array([(s * r) * (s / r) for s, r in zip(sides, roots)])))
        if cur <= 0:
            break
        ratio = math.sqrt(target / cur)
        sides = [min(max(s * ratio, ranges[k][0]), ranges[k][1]) for s, k in zip(sides, buckets)]
        areas = np.array([(s * r) * (s / r) for s, r in zip(sides, roots)])
        if target > 0 and abs(np.sum(areas) - target) / target < 0.02:
            break
    gt: list[Box] = []
    for s, r in zip(sides, roots):
        w, h = s * r, s / r
        for _ in range(50):
            x = rng.uniform(0, width - w)
            y = rng.uniform(0, height - h)
            cand = (x, y, x + w, y + h)
            overlap = 0.0
            for b in gt:
                iw = min(cand[2], b[2]) - max(cand[0], b[0])
                ih = min(cand[3], b[3]) - max(cand[1], b[1])
                if iw > 0 and ih > 0:
                    overlap += iw * ih
            if overlap <= 0.1 * _area(cand):
                break
        gt.append(cand)
    coarse = []
    for x1, y1, x2, y2 in gt:
        if rng.uniform() < spec.drop_rate:
            continue
        w, h = x2 - x1, y2 - y1
        cx = 0.5 * (x1 + x2) + rng.normal(0, spec.center_jitter) * w
        cy = 0.5 * (y1 + y2) + rng.normal(0, spec.center_jitter) * h
        w *= max(0.5, 1.0 + rng.normal(0, spec.scale_jitter))
        h *= max(0.5, 1.0 + rng.normal(0, spec.scale_jitter))
        x1, y1 = min(max(cx - w / 2, 0.0), width), min(max(cy - h / 2, 0.0), height)
        box = (x1, y1, min(max(cx + w / 2, x1), width), min(max(cy + h / 2, y1), height))
        coarse.append((box, rng.uniform(0.5, 1.0)))
    return gt, coarse


def sinkhorn_reference(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, iters: int
) -> np.ndarray:
    """Plan after exactly `iters` log-domain Sinkhorn sweeps from zero potentials.

    Each sweep sets the row potentials f, then the column potentials g, by a
    scalar log-sum-exp. Zero marginal entries have potential -inf throughout,
    so their plan rows and columns are zero.
    """
    n, k = cost.shape

    def lse(vals: list[float]) -> float:
        m = max(vals)
        return m + math.log(sum(math.exp(v - m) for v in vals))

    f = [0.0 if q[i] > 0 else -math.inf for i in range(n)]
    g = [0.0 if p[j] > 0 else -math.inf for j in range(k)]
    for _ in range(iters):
        f = [math.log(q[i]) - lse([g[j] - cost[i, j] / epsilon for j in range(k)])
             if q[i] > 0 else -math.inf for i in range(n)]
        g = [math.log(p[j]) - lse([f[i] - cost[i, j] / epsilon for i in range(n)])
             if p[j] > 0 else -math.inf for j in range(k)]
    return np.array([[math.exp(f[i] + g[j] - cost[i, j] / epsilon) for j in range(k)]
                     for i in range(n)])


def sinkhorn_kernel_reference(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float,
    max_iters: int, tol: float, check_every: int = 10,
) -> tuple[np.ndarray, int, float]:
    """(plan, iterations, violation) of the plain kernel-domain Sinkhorn loop.

    Cuturi's u = q / (K v), v = p / (K^T u) with ``@`` products, from
    scalings that are 1 on the nonzero marginal entries and 0 elsewhere. The
    largest absolute marginal error of the plan is checked before the first
    sweep and after every ``check_every`` sweeps (and at max_iters), through
    np.sum/np.max, until it falls under tol. Run to a tight tol, it is the
    fixed point the library's Newton plans are checked against.
    """
    K = np.exp(-cost / epsilon)
    Kt = K.T.copy()
    u = (q > 0).astype(float)
    v = (p > 0).astype(float)

    def plan_and_violation() -> tuple[np.ndarray, float]:
        P = u[:, None] * K * v
        gaps = np.concatenate((np.sum(P, axis=1) - q, np.sum(P, axis=0) - p))
        return P, float(np.max(np.abs(gaps)))

    iters = 0
    P, viol = plan_and_violation()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while viol >= tol and iters < max_iters:
            block = min(check_every, max_iters - iters)
            for _ in range(block):
                u = q / (K @ v)
                v = p / (Kt @ u)
            iters += block
            P, viol = plan_and_violation()
    return P, iters, viol


_EXACT_CAP = 4


@lru_cache(maxsize=32)
def _basis_data(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Equality constraints: n row sums then k column sums, flattened row-major.
    A = np.zeros((n + k, n * k))
    for j in range(n):
        A[j, j * k : (j + 1) * k] = 1.0
    for c in range(k):
        A[n + c, c::k] = 1.0
    # One constraint is redundant (both sides sum to 1); drop the last.
    A = A[:-1]
    m = n + k - 1
    combos = np.array(list(itertools.combinations(range(n * k), m)))
    return A, combos


def exact_ot(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of tr(C^T P) by enumerating basic feasible solutions.

    Deliberately capped at 4x4: this is the small-instance oracle the
    iterative solver is checked against.
    """
    cost = np.asarray(cost, dtype=float)
    n, k = cost.shape
    if n > _EXACT_CAP or k > _EXACT_CAP:
        raise ValueError(f"exact oracle limited to {_EXACT_CAP}x{_EXACT_CAP}, got {n}x{k}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a probability vector, got sum {v.sum()}")
    A, combos = _basis_data(n, k)
    b = np.concatenate([q, p])[:-1]
    # Batched basis solves: B[i] = A[:, combos[i]]
    B = A.T[combos].transpose(0, 2, 1)
    dets = np.linalg.det(B)
    ok = np.abs(dets) > 1e-9
    rhs = np.broadcast_to(b[:, None], (int(ok.sum()), b.size, 1))
    x = np.linalg.solve(B[ok], rhs)[:, :, 0]
    feasible = np.all(x >= -1e-9, axis=1)
    if not np.any(feasible):
        raise ValueError("no basic feasible solution found (inconsistent marginals)")
    c_flat = cost.ravel()
    costs = np.einsum("ij,ij->i", c_flat[combos[ok]], x)
    costs[~feasible] = np.inf
    best = int(np.argmin(costs))
    plan = np.zeros(n * k)
    plan[combos[ok][best]] = np.clip(x[best], 0.0, None)
    return plan.reshape(n, k), float(costs[best])


def ot_loss(class_costs: Sequence[np.ndarray], class_plans: Sequence) -> float:
    """Mean of tr(C^T P) over classes, one N x K plan matrix per class."""
    if len(class_costs) != len(class_plans) or not class_costs:
        raise ValueError("need one plan per class, at least one class")
    total = 0.0
    for c, plan in zip(class_costs, class_plans):
        c = np.asarray(c)
        if c.shape != plan.shape:
            raise ValueError(f"cost shape {c.shape} != plan shape {plan.shape}")
        total += float(np.sum(c * plan))
    return total / len(class_costs)


def ot_grad_reference(features: np.ndarray, w: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Gradient of tr(C^T P) w.r.t. the proxies, P held fixed."""
    fn = features / _row_norms(features)[:, None]
    wn = _row_norms(w)
    u = w / wn[:, None]
    cos = fn @ u.T  # N x K
    # dC(j,k)/dw_k = -(f_hat_j - cos_jk * u_k) / (2 |w_k|), summed over j with weight P_jk
    return -(plan.T @ fn - np.add.reduce(plan * cos, axis=0)[:, None] * u) / (2.0 * wn[:, None])


def step_grad_reference(bank, class_id: int, feats_all: np.ndarray, y: np.ndarray,
                        n_terms: int, rows: slice, plan: np.ndarray,
                        n_classes: int) -> tuple[float, np.ndarray]:
    """(summed BCE, proxy gradient) of one class in a training step: the BCE
    of the targets y over every row of feats_all, its gradient contracted from
    multi_proxy_logit's dz_dw and divided by n_terms, plus the transport
    gradient of the class's own rows under plan, divided by n_classes."""
    z, dz_dw = multi_proxy_logit(bank, class_id, feats_all)
    p = _sigmoid(z)
    loss = -float(np.sum(y * np.log(np.maximum(p, 1e-12))
                         + (1 - y) * np.log(np.maximum(1 - p, 1e-12))))
    grad = np.tensordot(p - y, dz_dw, axes=1) / n_terms
    w = bank.weights[class_id]
    return loss, grad + ot_grad_reference(feats_all[rows], w, plan) / n_classes
