"""Ring-segment label correction.

Votes inside every ring segment to clean up predicted per-point class labels:
a segment dominated by background (relative to the class in question) is
flattened to background, and a segment dominated by one class is flattened to
that class. Counts are always taken on the original input labels; classes are
processed in ascending id order, so a later class pass may overwrite an
earlier one. The segments are each point's plain segment id, dense from 0, as
``dcs_dynamic(...).segment_id`` holds them, and the corrected labels are a new
array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_fields, leaf

__all__ = ["RscConfig", "rsc_correct"]


@dataclass
class RscConfig:
    """Voting thresholds: background/class ratio above t1 clears a segment,
    class/segment share above t2 claims it."""

    t1: float = leaf(0.5, 0, 1)
    t2: float = leaf(0.7, 0, 1)
    __post_init__ = check_fields


def rsc_correct(
    pred: np.ndarray, segment_id: np.ndarray, cfg: RscConfig, sizes: np.ndarray
) -> np.ndarray:
    """Correct predicted labels (0 = background) by segment-level voting,
    given each point's ring segment id, dense from 0, and each segment's
    point count ``sizes`` (``np.bincount(segment_id)``); ``pred`` is left as
    it is.

    For each class c and each segment containing a c-predicted point:
    if bg_count / c_count > t1 the whole segment becomes background, else if
    c_count / segment_size > t2 the whole segment becomes c.

    Classes are counted over the points with a nonzero label only; a
    segment's background count is its size less those, so an ignored point
    (-1) counts towards the size alone. Only the points of the segments a
    class pass relabels are written.
    """
    pred = np.asarray(pred)
    seg = np.asarray(segment_id)
    if pred.shape != seg.shape:
        raise ValueError("pred/segment_id length mismatch")
    out = pred.copy()
    if pred.size == 0:
        return out
    seg_total = np.asarray(sizes)
    k = seg_total.shape[0]
    # Through a boolean mask: nonzero of an integer array tests element by
    # element, at about five times the cost of the compare and the bool scan.
    labelled = np.flatnonzero(pred != 0)
    nz_seg, nz_pred = seg[labelled], pred[labelled]
    bg_count = seg_total - np.bincount(nz_seg, minlength=k)
    fg = nz_pred > 0
    fg_seg, fg_pred = nz_seg[fg], nz_pred[fg]
    # Each segment's new label, -1 for none; later classes overwrite earlier.
    table = np.full(k, -1, dtype=np.int32)
    for cls in np.flatnonzero(np.bincount(fg_pred)):
        cls_count = np.bincount(fg_seg[fg_pred == cls], minlength=k)
        touched = np.flatnonzero(cls_count > 0)
        to_bg = bg_count[touched] / cls_count[touched] > cfg.t1
        to_cls = ~to_bg & (cls_count[touched] / seg_total[touched] > cfg.t2)
        table[touched[to_bg]] = 0
        table[touched[to_cls]] = cls
    # np.take casts an int32 index once, where indexing casts it per element.
    relabelled = table >= 0
    if relabelled.any():
        at = np.flatnonzero(np.take(relabelled, seg))
        out[at] = np.take(table, seg[at])
    return out
