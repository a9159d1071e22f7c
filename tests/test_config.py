"""The bounds of the three configs, each checked at its edge.

The table below is written out by hand from the README's bounds table, not
read from the classes, so that a wrong entry in a class's ``_BOUNDS`` (a
field, a relation or a constant) fails here. An int bound is written as an
int and a real one as a float: that is the field's JSON type.
"""
from __future__ import annotations

import json
import math

import pytest

from ufppack.cli import main
from ufppack.config import PipelineConfig
from ufppack.metrics import SceneSpec
from ufppack.trainsim import TrainConfig

BOUNDS = [
    (PipelineConfig, "beta", ">=", 1.0),
    (PipelineConfig, "fixed_size", ">", 0.0),
    (PipelineConfig, "mosaic_width", ">", 0.0),
    (PipelineConfig, "padding", ">=", 0.0),
    (PipelineConfig, "nms_iou", ">=", 0.0),
    (PipelineConfig, "nms_iou", "<=", 1.0),
    (TrainConfig, "n_classes", ">=", 1),
    (TrainConfig, "proxies_per_class", ">=", 1),
    (TrainConfig, "feature_dim", ">=", 2),
    (TrainConfig, "modes_per_class", ">=", 1),
    (TrainConfig, "mode_noise", ">=", 0.0),
    (TrainConfig, "mode_noise", "<=", 1e100),
    (TrainConfig, "steps", ">=", 0),
    (TrainConfig, "batch_size", ">=", 1),
    (TrainConfig, "lr", ">", 0.0),
    (TrainConfig, "lr", "<=", 1e75),
    (TrainConfig, "gamma", ">", 0.0),
    (TrainConfig, "gamma", "<=", 1e75),
    (TrainConfig, "seed", ">=", 0),
    (TrainConfig, "vocab_capacity", ">=", 1),
    (TrainConfig, "vocab_insert", ">=", 1),
    (TrainConfig, "marginal_cadence", ">=", 1),
    (TrainConfig, "sinkhorn_epsilon", ">", 0.0),
    (TrainConfig, "sinkhorn_max_iters", ">=", 0),
    (TrainConfig, "sinkhorn_tol", ">", 0.0),
    (TrainConfig, "sinkhorn_tol", "<", 1.0),
    (SceneSpec, "n_objects", ">=", 0),
    (SceneSpec, "proportions", ">=", 0.0),
    (SceneSpec, "target_fr", ">=", 0.0),
    (SceneSpec, "target_fr", "<", 1.0),
    (SceneSpec, "seed", ">=", 0),
    (SceneSpec, "center_jitter", ">=", 0.0),
    (SceneSpec, "scale_jitter", ">=", 0.0),
    (SceneSpec, "drop_rate", ">=", 0.0),
    (SceneSpec, "drop_rate", "<=", 1.0),
]

# What the refusal of each kind of bound says; a lower bound of 0 reads as a sign.
WORDS = {">=": "at least", ">": "greater than", "<=": "at most", "<": "less than"}
SIGNS = {">=": "nonnegative", ">": "positive"}


def _past(op, bound):
    """The value nearest the bound that breaks it: the bound itself for a strict
    bound, else the next int or float on the far side."""
    if op in (">", "<"):
        return bound
    away = -1 if op == ">=" else 1
    return bound + away if type(bound) is int else math.nextafter(bound, away * math.inf)


def _inside(op, bound):
    """The value nearest the bound that keeps it: the bound itself for a closed
    bound, else the next int or float on the near side."""
    if op in (">=", "<="):
        return bound
    toward = 1 if op == ">" else -1
    return bound + toward if type(bound) is int else math.nextafter(bound, toward * math.inf)


def _doc(cls, field, value):
    """A config dict with ``field`` at ``value``; a proportion goes first of three
    summing to 1, and a batch of one takes one insert."""
    if field == "proportions":
        return {field: [value, 0.5, 0.5]}
    return {"vocab_insert": 1, field: value} if cls is TrainConfig else {field: value}


@pytest.mark.parametrize("cls, field, op, bound", BOUNDS,
                         ids=[f"{c.__name__}-{f}{o}{b}" for c, f, o, b in BOUNDS])
def test_bound_edge(cls, field, op, bound):
    inside = _inside(op, bound)
    cfg = cls.from_dict(_doc(cls, field, inside))
    got = getattr(cfg, field)
    assert (got[0] if field == "proportions" else got) == inside
    past = _past(op, bound)
    words = SIGNS[op] if bound == 0 and op in SIGNS else f"{WORDS[op]} {bound:g}"
    shown = (past, 0.5, 0.5) if field == "proportions" else past
    with pytest.raises(ValueError) as refusal:
        cls.from_dict(_doc(cls, field, past))
    assert str(refusal.value) == f"{field} must be {words}, got {shown}"


@pytest.mark.parametrize("args, doc, message", [
    (["pack", "--config"], {"nms_iou": 1.0000000000000002},
     "nms_iou must be at most 1, got 1.0000000000000002"),
    (["train-sim", "--config"], {"steps": 3, "sinkhorn_tol": 1},
     "sinkhorn_tol must be less than 1, got 1"),
    (["synth", "--spec"], {"target_fr": 1}, "target_fr must be less than 1, got 1"),
], ids=["pack", "train-sim", "synth"])
def test_bound_refused_through_the_cli(tmp_path, capsys, args, doc, message):
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    argv = [*args, str(path)]
    if args[0] == "pack":
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps([{"image_id": 0, "bbox": [0, 0, 10, 10], "score": 0.9,
                                      "category_id": 0}]))
        argv += ["--detections", str(boxes), "--image-size", "100x100", "--out-layout", str(out)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
