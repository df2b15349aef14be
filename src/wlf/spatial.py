"""Spatial pseudo-label generation from frustum crops and ring segments.

Stage one turns per-point box assignments into trinary labels by voting inside
each ring segment: segments that straddle a box boundary are relabelled
according to the share of their points falling outside all boxes. Stage two
clusters the surviving foreground of every box and keeps only the largest
component as that box's instance. Both stages take plain values: each point's
segment id (dense from 0), box assignment and trinary label, the table from
box id to class id (``frames.box_classes``) and the radii in metres by class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ccl_cluster, max_component

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

    def check_consistency(self, class_of: np.ndarray) -> None:
        """Assert that every instance id names a box in ``class_of`` and carries
        its class; only the points with an instance (``instance > 0``) are read
        past the one test that finds them."""
        owned = np.flatnonzero(self.instance > 0)
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


def refine_by_segments(
    box_assign: np.ndarray, segment_id: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Trinary labels from segment-level voting, given each point's ring
    segment id, dense from 0, and each segment's point count ``sizes``
    (``np.bincount(segment_id)``).

    For every ring segment, prop = |outside| / (|inside| + |outside|) where
    inside means assigned to any box. All in-box points of the segment get the
    label chosen by ``trinary_from_prop``; points outside every box stay
    background. Past the one test that finds the in-box points, only they are
    read: a segment's outside count is its size less its inside count.
    """
    box_assign = np.asarray(box_assign)
    seg = np.asarray(segment_id)
    if box_assign.shape != seg.shape:
        raise ValueError("box_assign/segment_id length mismatch")
    labels = np.zeros(box_assign.shape[0], dtype=np.int8)
    if seg.size == 0:
        return labels
    totals = np.asarray(sizes)
    in_box = np.flatnonzero(box_assign > 0)
    in_seg = seg[in_box]
    n_in = np.bincount(in_seg, minlength=totals.shape[0])
    # Integer counts, so the outside count and both widenings are exact.
    n_out = (totals - n_in).astype(np.float64)
    totals = totals.astype(np.float64)
    prop = np.divide(n_out, totals, out=np.zeros(totals.shape[0]), where=totals > 0)
    labels[in_box] = trinary_from_prop(prop)[in_seg]
    return labels


def generate_labels(
    xyz: np.ndarray,
    trinary: np.ndarray,
    box_assign: np.ndarray,
    class_of: np.ndarray,
    radii: dict[int, float],
) -> PseudoLabels:
    """Final semantic/instance pseudo labels of a frame's N points, from the
    (3, K) columns ``xyz`` of its K in-box points (``box_assign > 0``), in
    point order; only they are clustered. ``trinary`` and ``box_assign`` and
    the labels returned cover all N points.

    Per box, the trinary-foreground points are clustered at its class's
    radius, ``radii[class_of[box_id]]``, and only the largest component
    becomes the instance; the remaining clusters are set to ignore since they
    may be occluded parts of something else. A box with no foreground points
    emits no instance; an id past ``class_of`` or of class 0 names no box,
    and its points are left alone. All boxes are clustered in one call, the
    points sorted by box id and each box its own group.
    """
    trinary = np.asarray(trinary)
    box_assign = np.asarray(box_assign)
    n = box_assign.shape[0]
    if trinary.shape != (n,) or box_assign.shape != (n,):
        raise ValueError("label arrays must match the frame point count")
    in_box = np.flatnonzero(box_assign > 0)
    if xyz.shape != (3, in_box.size):
        raise ValueError(f"xyz must be the (3, {in_box.size}) columns of the in-box points")
    semantic = np.zeros(n, dtype=np.int32)
    semantic[trinary == TRINARY_IGNORE] = -1
    instance = np.zeros(n, dtype=np.int32)
    # Each in-box foreground point's column in ``xyz`` and its box id,
    # sorted by id; points of an id past ``class_of`` or of class 0 name no
    # box and are left alone.
    column = np.flatnonzero(trinary[in_box] == TRINARY_FG)
    ids = box_assign[in_box[column]]
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    named = class_of[ids[: np.searchsorted(ids, class_of.size)]] > 0
    order, ids = order[: named.size][named], ids[: named.size][named]
    if order.size == 0:
        return PseudoLabels(semantic=semantic, instance=instance)
    column = column[order]
    idx = in_box[column]
    counts = np.bincount(ids)
    box_ids = np.flatnonzero(counts)
    counts = counts[box_ids]
    sub = xyz.take(column, axis=1).T  # (k, 3) over three contiguous rows
    comps = ccl_cluster(sub, [radii[c] for c in class_of[box_ids].tolist()],
                        np.repeat(np.arange(box_ids.size), counts))
    bounds = np.append(0, np.cumsum(counts))
    semantic[idx] = -1
    for k, box_id in enumerate(box_ids.tolist()):
        lo, hi = bounds[k], bounds[k + 1]
        keep = idx[lo + max_component(comps.labels[lo:hi], sub[lo:hi])]
        semantic[keep] = class_of[box_id]
        instance[keep] = box_id
    return PseudoLabels(semantic=semantic, instance=instance)
