#!/usr/bin/env python3
"""Seeded closed-loop benchmark of ufppack: one client, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scene_sparse --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs each operation twice, untraced and with every layer
wrapped, and reports the per-layer metrics of the traced runs, the tracing
overhead and a span file. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Workloads, metrics and
the layer each metric belongs to are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import tracing

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed at SETUP_POINTS moments spread evenly over the measured
# seconds, so that it samples the machine's speed as the operations do. At
# each moment it repeats until SETUP_BATCH_S has passed; setup_s is the
# median of all repeats. A scene set-up takes about 0.6 s, so on the scene
# workloads set-up takes about a quarter of the run.
SETUP_POINTS = 24
SETUP_BATCH_S = 0.1
OUT_DIR = Path(".perfbench")

# (name, unit); BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
_SPAN_MS = ("regions.merge", "pipeline.build_layout", "remap.to_source", "remap.fuse",
            "io.load_detections", "io.save_layout", "io.read_ppm", "io.compose_mosaic",
            "io.load_layout", "io.save_detections", "transport.cost_matrix",
            "transport.sinkhorn", "proxies.logit", "vocab.update",
            "vocab.estimate_marginals", "vocab.contrastive_loss", "clustering.kmeans")
_SPAN_CALLS = ("transport.sinkhorn", "proxies.logit", "clustering.kmeans")
_LAYERS = ("regions", "mosaic", "pipeline", "remap", "io", "transport", "proxies",
           "vocab", "clustering", "trainsim")
_OP_COUNTS = (("regions.out_count", "count"), ("mosaic.waste_ratio", "ratio"),
              ("mosaic.fr_gain", "ratio"), ("remap.gutter_dropped", "count"),
              ("remap.nms_suppressed", "count"), ("io.bytes_written", "B"),
              ("trainsim.proxy_min_dist", "cos_dist"))
PER_LAYER = (
    tuple((f"{s}_ms", "ms") for s in _SPAN_MS)
    + (("mosaic.equalize_pack_ms", "ms"), ("metrics.generate_scene_ms", "ms"))
    + tuple((f"{s}_calls", "count") for s in _SPAN_CALLS)
    + (("transport.sinkhorn_iters", "count"), ("transport.unconverged_ratio", "ratio"),
       ("transport.max_violation", "prob"))
    + tuple((f"{layer}.self_ms", "ms") for layer in _LAYERS)
    + _OP_COUNTS
    + (("trace.overhead_pct", "%"), ("trace.spans", "count"))
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread, so timings do not depend on the core count."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _scratch_fs(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    target = str(path.resolve())
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fs = mount, right.split()[0]
    except OSError:
        pass
    return fs


def run_ops(op: Callable[[int], Any], k: int, seconds: float, min_ops: int,
            between: Callable[[float], None]) -> list[Any]:
    """Closed loop: start the next operation when the previous one ends.

    Cycles through the ``k`` inputs and stops once ``min_ops`` are done and
    another operation as long as the last one would overrun ``seconds``.
    Between operations it calls ``between`` with the seconds elapsed.
    """
    results: list[Any] = []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        if i:
            between(time.perf_counter() - start)
        t0 = time.perf_counter()
        if i >= min_ops and (t0 - start) + last > seconds:
            return results
        results.append(op(i % k))
        last = time.perf_counter() - t0
        i += 1


def main(argv: list[str] | None = None, workloads: dict[str, Any] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path("src")
    if not (src / "ufppack" / "__init__.py").is_file():
        print("error: run from the root of a ufppack checkout (src/ufppack not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    import ufppack

    if Path(ufppack.__file__).resolve().parent != (src / "ufppack").resolve():
        print(f"error: imported ufppack from {ufppack.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads as wmod

    table = wmod.WORKLOADS if workloads is None else workloads
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        return _run(args, wl, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, wl: Any, scratch: Path) -> int:
    import numpy as np
    import workloads as wmod

    tracer = tracing.Tracer() if args.trace else tracing.NULL_TRACER
    env = {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "scratch": str(scratch), "scratch_fs": _scratch_fs(scratch),
    }
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))

    setup = wmod.setup_scenes if wl.kind == "scene" else wmod.setup_train
    setup_times: list[float] = []
    inputs_dir = scratch / "inputs"

    def time_setup() -> list[Any]:
        batch_end = time.perf_counter() + SETUP_BATCH_S
        while True:
            # Each repeat writes its inputs into a new directory, as the
            # first does: overwriting files in place adds filesystem flushes.
            shutil.rmtree(inputs_dir, ignore_errors=True)
            inputs_dir.mkdir()
            t0 = time.perf_counter()
            made = setup(wl, args.seed, inputs_dir, tracer)
            setup_times.append(time.perf_counter() - t0)
            if time.perf_counter() >= batch_end:
                return made

    points = [args.seconds * j / SETUP_POINTS for j in range(1, SETUP_POINTS)]

    def between(elapsed: float) -> None:
        # Set-up rewrites the same input files byte for byte; the operations
        # keep the objects of the first set-up.
        if points and elapsed >= points[0]:
            points.pop(0)
            time_setup()

    inputs = time_setup()
    wmod.warm_up(wl, inputs)

    def op(i: int, tr: Any = tracing.NULL_TRACER) -> Any:
        try:
            if wl.kind == "scene":
                return wmod.scene_op(inputs[i], scratch, tr)
            return wmod.train_op(i, inputs[i], scratch, tr)
        except Exception:
            traceback.print_exc()
            return wmod.OpResult(input_index=i, units=0, seconds=0.0,
                                 errors=["operation raised"])

    k = len(inputs)
    untraced: list[Any] = []
    traced: list[Any] = []
    if args.trace:
        # Each input runs untraced and traced back to back, alternating which
        # goes first, so that drift in machine speed cancels in the overhead.
        def pair(_: int) -> None:
            i = len(traced) % k
            for on in ((False, True) if len(traced) % 2 else (True, False)):
                if not on:
                    untraced.append(op(i))
                    continue
                tracer.op = len(traced)
                with tracing.installed(tracer):
                    traced.append(op(i, tracer))
                tracer.op = None

        run_ops(pair, 1, args.seconds, min_ops=1, between=between)
    else:
        untraced = run_ops(op, k, args.seconds, min_ops=2 * k, between=between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = untraced + traced
    first: dict[int, dict[str, str]] = {}
    failed = 0
    for r in results:
        if r.digests and r.digests != first.setdefault(r.input_index, r.digests):
            r.errors.append(f"input {r.input_index}: digests differ from its first operation")
        if r.errors:
            failed += 1
            print("check failed: " + "; ".join(r.errors), file=sys.stderr)
    for i in sorted(first):
        print(f"digest input={i} " + " ".join(f"{n}={d}" for n, d in first[i].items())
              + f" repeats={sum(r.input_index == i for r in results)}")

    report = _report(wl, untraced, setup_times, peak_rss_mb, failed, len(results))
    if args.trace:
        metrics = _layer_metrics(tracer, traced, untraced)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        _print_layers(metrics, spans)
        units = dict(PER_LAYER)
    else:
        metrics = {name: report[name][0] for name, _ in END_TO_END}
        units = dict(END_TO_END)

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                               "setup_s": setup_times, "report": report, "metrics": metrics,
                               "digests": first,
                               "ops": [[r.input_index, r.units, r.seconds, r.halves]
                                       for r in untraced]}, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


def _report(wl: Any, ops: list[Any], setup_times: list[float], peak_rss_mb: float,
            failed: int, attempted: int) -> dict[str, tuple[float, str, int]]:
    """Untraced end-to-end metrics as (value, unit, samples); printed one per line."""
    ok = [r for r in ops if r.units]
    units = sum(r.units for r in ok)
    busy = sum(r.seconds for r in ok)
    per_unit_ms = [1000 * r.seconds / r.units for r in ok]
    rep: dict[str, tuple[float, str, int]] = {
        "ops_per_s": (units / busy if busy else 0.0, "1/s", len(ok)),
        "op_ms_p50": (statistics.median(per_unit_ms) if ok else 0.0, "ms", len(ok)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_ratio": (failed / attempted, "ratio", attempted),
    }
    per_input = {r.input_index: r.counts for r in ok}
    if wl.kind == "scene":
        rep["images_per_s"] = rep["ops_per_s"]
        for i, name in enumerate(("pack_ms_p50", "unpack_ms_p50")):
            half_ms = [1000 * r.halves[i] for r in ok]
            rep[name] = (statistics.median(half_ms) if ok else 0.0, "ms", len(ok))
        gains = [c["mosaic.fr_gain"] for c in per_input.values()]
        rep["mosaic_fr_gain"] = (statistics.fmean(gains) if gains else 0.0, "ratio", len(gains))
    else:
        rep["train_steps_per_s"] = rep["ops_per_s"]
        dist = [c["trainsim.proxy_min_dist"] for c in per_input.values()]
        rep["proxy_min_dist"] = (statistics.fmean(dist) if dist else 0.0, "cos_dist", len(dist))
    for name, (value, unit, n) in rep.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    return rep


def _layer_metrics(tracer: tracing.Tracer, traced: list[Any],
                   untraced: list[Any]) -> dict[str, float]:
    """Per-layer metrics of the traced operations, per image or per training step."""
    total, self_ms, calls = tracing.span_times(tracer)
    units = sum(r.units for r in traced) or 1
    m: dict[str, float] = {f"{s}_ms": total.get(s, 0.0) / units for s in _SPAN_MS}
    m["mosaic.equalize_pack_ms"] = (total.get("mosaic.equalize", 0.0)
                                    + total.get("mosaic.pack", 0.0)) / units
    m["metrics.generate_scene_ms"] = tracing.setup_ms(tracer, "metrics.generate_scene")
    for s in _SPAN_CALLS:
        m[f"{s}_calls"] = calls.get(s, 0) / units
    notes = tracer.notes
    m["transport.sinkhorn_iters"] = sum(notes["transport.sinkhorn_iters"]) / units
    unconv = notes["transport.unconverged"]
    m["transport.unconverged_ratio"] = sum(unconv) / len(unconv) if unconv else 0.0
    m["transport.max_violation"] = max(notes["transport.violation"], default=0.0)
    for layer in _LAYERS:
        m[f"{layer}.self_ms"] = sum(v for name, v in self_ms.items()
                                    if name.split(".")[0] == layer) / units
    for name, _ in _OP_COUNTS:
        vals = [r.counts[name] for r in traced if name in r.counts]
        m[name] = statistics.fmean(vals) if vals else 0.0
    t_on = sum(r.seconds for r in traced)
    t_off = sum(r.seconds for r in untraced)
    m["trace.overhead_pct"] = 100 * (t_on / t_off - 1) if t_off else 0.0
    m["trace.spans"] = sum(1 for s in tracer.spans if s[4] is not None) / units
    return m


def _print_layers(m: dict[str, float], spans: Path) -> None:
    layers = sorted(_LAYERS, key=lambda layer: -m[f"{layer}.self_ms"])
    busy = sum(m[f"{layer}.self_ms"] for layer in _LAYERS) or 1.0
    print("self time per unit: " + ", ".join(
        f"{layer} {m[f'{layer}.self_ms']:.4g} ms ({100 * m[f'{layer}.self_ms'] / busy:.0f}%)"
        for layer in layers if m[f"{layer}.self_ms"] > 0))
    print(f"dominant layer: {layers[0]}; tracing overhead {m['trace.overhead_pct']:.2f}%; "
          f"spans in {spans}")
    for name, unit in PER_LAYER:
        print(f"layer {name} {m[name]:.6g} {unit}")


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
