"""Spatial pseudo-label generation from frustum crops and ring segments.

Stage one turns per-point box assignments into trinary labels by voting inside
each ring segment: segments that straddle a box boundary are relabelled
according to the share of their points falling outside all boxes. Stage two
clusters the surviving foreground of every box and keeps only the largest
component as that box's instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClassRadii, ccl_cluster, max_component
from .frames import Box2D, Frame, box_classes
from .range_image import RingSegments

__all__ = [
    "TRINARY_IGNORE",
    "TRINARY_BG",
    "TRINARY_FG",
    "PROP_BG_THRESHOLD",
    "PROP_FG_THRESHOLD",
    "PseudoLabels",
    "trinary_from_prop",
    "refine_by_segments",
    "generate_labels",
    "frustum_semantic",
]

TRINARY_IGNORE = -1
TRINARY_BG = 0
TRINARY_FG = 1

# Outside-share thresholds deciding a straddling segment's fate.
PROP_BG_THRESHOLD = 0.5
PROP_FG_THRESHOLD = 0.1


@dataclass
class PseudoLabels:
    """Per-point semantic class in {-1, 0, .., n_cls} and instance in {0, .., n_box}."""

    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        self.semantic = np.asarray(self.semantic, dtype=np.int32)
        self.instance = np.asarray(self.instance, dtype=np.int32)
        if self.semantic.shape != self.instance.shape:
            raise ValueError("semantic/instance length mismatch")

    def copy(self) -> "PseudoLabels":
        return PseudoLabels(self.semantic.copy(), self.instance.copy())

    def check_consistency(self, boxes: list[Box2D]) -> None:
        """Assert that every instance id names a box and carries its class."""
        class_of = box_classes(boxes)
        owned = self.instance > 0
        ids = self.instance[owned]
        if ids.size and (ids.max() >= class_of.size or not class_of[ids].all()):
            raise AssertionError("instance ids must name a box")
        if not np.array_equal(self.semantic[owned], class_of[ids]):
            raise AssertionError("instance points must carry their box class")


def trinary_from_prop(prop: np.ndarray | float) -> np.ndarray:
    """int8 labels for segments whose outside-all-boxes shares are ``prop``
    (an array, or a scalar giving a 0-d array).

    Strict comparisons: > 0.5 background, < 0.1 foreground, else ignore.
    """
    prop = np.asarray(prop)
    codes = np.full(prop.shape, TRINARY_IGNORE, dtype=np.int8)
    codes[prop > PROP_BG_THRESHOLD] = TRINARY_BG
    codes[prop < PROP_FG_THRESHOLD] = TRINARY_FG
    return codes


def refine_by_segments(box_assign: np.ndarray, segments: RingSegments) -> np.ndarray:
    """Trinary labels from segment-level voting.

    For every ring segment, prop = |outside| / (|inside| + |outside|) where
    inside means assigned to any box. All in-box points of the segment get the
    label chosen by ``trinary_from_prop``; points outside every box stay
    background.
    """
    box_assign = np.asarray(box_assign)
    seg = segments.segment_id
    if box_assign.shape != seg.shape:
        raise ValueError("box_assign/segments length mismatch")
    labels = np.zeros(box_assign.shape[0], dtype=np.int8)
    if box_assign.shape[0] == 0 or segments.num_segments == 0:
        return labels
    in_box = box_assign > 0
    k = segments.num_segments
    n_in = np.bincount(seg[in_box], minlength=k).astype(np.float64)
    n_out = np.bincount(seg[~in_box], minlength=k).astype(np.float64)
    totals = n_in + n_out
    prop = np.divide(n_out, totals, out=np.zeros(k), where=totals > 0)
    labels[in_box] = trinary_from_prop(prop)[seg[in_box]]
    return labels


def generate_labels(
    frame: Frame,
    trinary: np.ndarray,
    box_assign: np.ndarray,
    boxes: list[Box2D],
    radii: ClassRadii,
) -> PseudoLabels:
    """Final semantic/instance pseudo labels.

    Per box, the trinary-foreground points are clustered at the box class
    radius and only the largest component becomes the instance; the remaining
    clusters are set to ignore since they may be occluded parts of something
    else. A box with no foreground points emits no instance. All boxes are
    clustered in one call, the points sorted by box and each box its own group.
    """
    n = frame.num_points
    trinary = np.asarray(trinary)
    box_assign = np.asarray(box_assign)
    if trinary.shape != (n,) or box_assign.shape != (n,):
        raise ValueError("label arrays must match the frame point count")
    semantic = np.zeros(n, dtype=np.int32)
    semantic[trinary == TRINARY_IGNORE] = -1
    instance = np.zeros(n, dtype=np.int32)
    # Each foreground point's slot in ``boxes`` (a repeated box id takes its
    # last slot), sorted by slot; points of no listed box are left alone.
    box_ids = [b.box_id for b in boxes]
    slot_of = np.full(max([int(box_assign.max(initial=0)), *box_ids]) + 1, -1)
    slot_of[box_ids] = np.arange(len(boxes))
    idx = np.flatnonzero((box_assign > 0) & (trinary == TRINARY_FG))
    slot = slot_of[box_assign[idx]]
    order = np.argsort(slot, kind="stable")
    order = order[slot[order] >= 0]
    if order.size == 0:
        return PseudoLabels(semantic=semantic, instance=instance)
    idx = idx[order]
    slots, starts, group = np.unique(slot[order], return_index=True, return_inverse=True)
    owners = [boxes[k] for k in slots]
    sub = frame.xyz[idx]
    comps = ccl_cluster(sub, [radii.for_class(b.class_id) for b in owners], group)
    bounds = np.append(starts, idx.size)
    semantic[idx] = -1
    for k, box in enumerate(owners):
        lo, hi = bounds[k], bounds[k + 1]
        keep = idx[lo + max_component(comps.labels[lo:hi], sub[lo:hi])]
        semantic[keep] = box.class_id
        instance[keep] = box.box_id
    return PseudoLabels(semantic=semantic, instance=instance)


def frustum_semantic(box_assign: np.ndarray, boxes: list[Box2D]) -> np.ndarray:
    """Raw frustum-crop labels: every in-box point gets its box class."""
    return box_classes(boxes)[np.asarray(box_assign)]
