"""Spans recorded from outside the program, for the traced run only.

The traced run rebinds the public functions that ``ufppack.pipeline``,
``ufppack.trainsim`` and ``ufppack.vocab`` import, so each call inside those
modules opens a span. The benchmark's own calls into ``io``, ``pipeline``,
``remap``, ``metrics`` and ``trainsim`` open spans at the call site. The
untraced run uses ``NULL_TRACER`` and rebinds nothing.

A span is ``[name, start_ns, end_ns, parent_index, op]``; spans of one
operation share ``op``, and set-up spans have ``op = None``. A layer is the
part of a span name before the first dot.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the untraced run's stand-in for ``Tracer``."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return _NULL_CONTEXT


NULL_TRACER = NullTracer()


class Tracer:
    """Keeps spans and per-call notes in memory until ``write`` is called."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.op: Any = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list[Any]:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def note(self, name: str, value: float) -> None:
        self.notes[name].append(float(value))

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent, "op": op}) + "\n")


def _note_sinkhorn(tracer: Tracer, result: Any) -> None:
    tracer.note("transport.sinkhorn_iters", result.iterations)
    tracer.note("transport.unconverged", not result.converged)
    tracer.note("transport.violation", result.marginal_violation)


# (module, class or None, attribute, span name, result hook)
_PATCHES = (
    ("ufppack.pipeline", None, "expand_and_merge", "regions.merge", None),
    ("ufppack.pipeline", None, "equalize", "mosaic.equalize", None),
    ("ufppack.pipeline", None, "pack", "mosaic.pack", None),
    ("ufppack.trainsim", None, "kmeans", "clustering.kmeans", None),
    ("ufppack.trainsim", None, "multi_proxy_logit", "proxies.logit", None),
    ("ufppack.trainsim", None, "cost_matrix", "transport.cost_matrix", None),
    ("ufppack.trainsim", None, "sinkhorn", "transport.sinkhorn", _note_sinkhorn),
    ("ufppack.trainsim", None, "transport_cost", "transport.transport_cost", None),
    ("ufppack.trainsim", None, "estimate_marginals", "vocab.estimate_marginals", None),
    ("ufppack.trainsim", None, "contrastive_loss", "vocab.contrastive_loss", None),
    ("ufppack.vocab", None, "kmeans", "clustering.kmeans", None),
    ("ufppack.vocab", "VocabQueue", "update", "vocab.update", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Rebind the traced functions for the duration of the block.

    A target that no longer exists raises, so a refactor of the program
    fails the traced run instead of reporting its layer as 0.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, cls, attr, name, hook in _PATCHES:
            target: Any = importlib.import_module(module)
            if cls is not None:
                target = getattr(target, cls)
            original = getattr(target, attr)
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def span_times(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total ms, total self ms and call count, over operation spans.

    Self time is a span's duration minus the time its child spans cover.
    Set-up spans (``op is None``) are left out.
    """
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op is None:
            continue
        total[name] += (end - start) / 1e6
        self_ms[name] += (end - start - child_ns[i]) / 1e6
        calls[name] += 1
    return total, self_ms, calls


def setup_ms(tracer: Tracer, name: str) -> float:
    """Mean duration in ms of the set-up spans with this name (0 if none)."""
    spans = [end - start for n, start, end, _, op in tracer.spans if op is None and n == name]
    return sum(spans) / len(spans) / 1e6 if spans else 0.0
