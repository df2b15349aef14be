"""Segmentation metrics: per-class IoU / mIoU and COCO-style instance AP.

Semantic IoU is computed from pooled TP/FP/FN counts over foreground classes,
read off one joint histogram of (pred, gt) classes; points with ground-truth
label -1 are excluded everywhere. Instance AP keeps, per frame, plain arrays:
each instance's id, class and size (and a score for predictions) and one
pred x gt table of shared points. Greedy max-IoU matching of score-sorted
predictions per class runs on those arrays, with 101-point interpolated
precision averaged over the 0.50:0.05:0.95 thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricReport",
    "GT_INSTANCE",
    "PRED_INSTANCE",
    "IOU_THRESHOLDS",
    "confusion_counts",
    "miou_from_counts",
    "overlap_table",
    "instance_ap",
    "instances_from_labels",
    "pred_instances_from_labels",
]

IOU_THRESHOLDS = np.linspace(0.5, 0.95, 10)
_RECALL_GRID = np.linspace(0.0, 1.0, 101)

# One record per instance, in id order; a prediction adds its score.
GT_INSTANCE = np.dtype([("id", np.int64), ("cls", np.int64), ("size", np.int64)])
PRED_INSTANCE = np.dtype(GT_INSTANCE.descr + [("score", np.float64)])


def _label(cls: int, class_names: list[str] | None, unnamed: str) -> str:
    """A class's name, or ``unnamed`` filled in with its id."""
    named = class_names and 1 <= cls <= len(class_names)
    return class_names[cls - 1] if named else unnamed.format(cls)


@dataclass
class MetricReport:
    """Per-class and mean IoU plus AP / AP50 / AP75 and per-class AP."""

    per_class_iou: dict[int, float]
    miou: float
    ap: float
    ap50: float
    ap75: float
    per_class_ap: dict[int, float]

    def to_dict(self, class_names: list[str] | None = None) -> dict:
        return {
            "miou": self.miou,
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "per_class_iou": {_label(c, class_names, "{}"): v
                              for c, v in sorted(self.per_class_iou.items())},
            "per_class_ap": {_label(c, class_names, "{}"): v
                             for c, v in sorted(self.per_class_ap.items())},
        }

    def format_table(self, class_names: list[str] | None = None) -> str:
        classes = sorted(set(self.per_class_iou) | set(self.per_class_ap))
        labels = {c: _label(c, class_names, "class {}") for c in classes}
        width = max([len(name) for name in labels.values()] + [len("mean")]) + 2
        lines = [f"{'':<{width}}{'IoU':>8}{'AP':>8}"]
        for c in classes:
            iou = self.per_class_iou.get(c)
            ap = self.per_class_ap.get(c)
            iou_s = f"{iou:.4f}" if iou is not None else "-"
            ap_s = f"{ap:.4f}" if ap is not None else "-"
            lines.append(f"{labels[c]:<{width}}{iou_s:>8}{ap_s:>8}")
        lines.append(f"{'mean':<{width}}{self.miou:>8.4f}{self.ap:>8.4f}")
        lines.append(f"{'AP50':<{width}}{'':>8}{self.ap50:>8.4f}")
        lines.append(f"{'AP75':<{width}}{'':>8}{self.ap75:>8.4f}")
        return "\n".join(lines)


def confusion_counts(
    pred: np.ndarray, gt: np.ndarray, n_cls: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class TP/FP/FN over foreground classes 1..n_cls, skipping gt == -1.

    Row 0, the background, stays zero. One histogram of (pred, gt) bins holds
    every count: labels below 1 land in bin 0 and labels above n_cls in bin
    n_cls + 1, so both count as no class. Only the points that can land in
    rows 1..n_cls are binned: those with ``pred > 0`` or ``gt > 0``, and
    ``gt != -1``.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("pred/gt length mismatch")
    k = n_cls + 2
    scored = pred > 0
    scored |= gt > 0
    scored &= gt != -1
    at = np.flatnonzero(scored)
    del scored
    key = np.clip(pred[at], 0, n_cls + 1).astype(np.int32, copy=False) * k
    key += np.clip(gt[at], 0, n_cls + 1)
    hist = np.bincount(key, minlength=k * k).reshape(k, k)
    tp = np.diag(hist)[: n_cls + 1].copy()
    fp = hist.sum(axis=1)[: n_cls + 1] - tp
    fn = hist.sum(axis=0)[: n_cls + 1] - tp
    tp[0] = fp[0] = fn[0] = 0
    return tp, fp, fn


def miou_from_counts(
    tp: np.ndarray, fp: np.ndarray, fn: np.ndarray
) -> tuple[dict[int, float], float]:
    """IoU per class present in pred or gt, and their mean (0.0 if none)."""
    per_class: dict[int, float] = {}
    for c in range(1, tp.shape[0]):
        denom = tp[c] + fp[c] + fn[c]
        if denom > 0:
            per_class[c] = float(tp[c] / denom)
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


def _ap_from_matches(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from per-prediction hit flags in score order."""
    tp_cum = np.cumsum(tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / np.arange(1, tp_flags.size + 1)
    # Monotone envelope: precision at recall r is the max at recall >= r;
    # past the last recall it is 0.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    return float(envelope[np.searchsorted(recall, _RECALL_GRID, side="left")].mean())


def instance_ap(
    frames: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]],
    iou_thresholds: np.ndarray | None = None,
) -> tuple[dict[int, float], float, float, float]:
    """Per-class AP (averaged over thresholds), mAP, AP50 and AP75.

    ``frames`` holds one ``(frame_id, preds, gts, inter)`` per frame: the two
    extractors' arrays and ``overlap_table``'s counts. Within a class,
    predictions are matched in order of score descending, then frame id, then
    instance order, each to the unmatched gt of its frame and class with the
    largest IoU (the first in gt order on a tie; an IoU of 0 never matches).
    Classes with no ground-truth instances anywhere are excluded.
    """
    thresholds = IOU_THRESHOLDS if iou_thresholds is None else np.asarray(iou_thresholds)
    ious = [inter / (p["size"][:, None] + g["size"] - inter) for _, p, g, inter in frames]
    gt_classes = [g["cls"] for _, _, g, _ in frames]
    classes = sorted(set().union(*(c.tolist() for c in gt_classes)))
    steps = np.arange(thresholds.size)
    per_class: dict[int, float] = {}
    ap_matrix = np.zeros((len(classes), thresholds.size))
    for ci, cls in enumerate(classes):
        order = sorted((-s, frame_id, fi, pi) for fi, (frame_id, p, _, _) in enumerate(frames)
                       for pi, (c, s) in enumerate(zip(p["cls"].tolist(), p["score"].tolist()))
                       if c == cls)
        # This class's IoU columns; one matched-gt mask and one hit flag per threshold.
        cls_ious = [iou[:, c == cls] for iou, c in zip(ious, gt_classes)]
        matched = [np.zeros((thresholds.size, iou.shape[1]), dtype=bool) for iou in cls_ious]
        flags = np.zeros((thresholds.size, len(order)), dtype=bool)
        for k, (_, _, fi, pi) in enumerate(order):
            if not matched[fi].size:
                continue
            avail = np.where(matched[fi], 0.0, cls_ious[fi][pi])
            best = avail.argmax(axis=1)
            best_iou = avail[steps, best]
            hit = (best_iou > 0.0) & (best_iou >= thresholds)
            matched[fi][steps[hit], best[hit]] = True
            flags[:, k] = hit
        n_gt = sum(iou.shape[1] for iou in cls_ious)
        ap_matrix[ci] = [_ap_from_matches(f, n_gt) for f in flags]
        per_class[cls] = float(ap_matrix[ci].mean())
    if not per_class:
        return per_class, 0.0, 0.0, 0.0
    i50, i75 = (int(np.argmin(np.abs(thresholds - t))) for t in (0.5, 0.75))
    mean_ap = float(np.mean(list(per_class.values())))
    return per_class, mean_ap, float(ap_matrix[:, i50].mean()), float(ap_matrix[:, i75].mean())


def instances_from_labels(
    semantic: np.ndarray,
    instance: np.ndarray,
    ignore: np.ndarray | None = None,
) -> np.ndarray:
    """``GT_INSTANCE`` records in id order from label arrays, ignored points
    dropped.

    An instance takes the class of its lowest-index kept point and is left
    out when that class is not a foreground class. Past the one test that
    finds the points with an instance (``instance > 0``), only they are read.
    """
    semantic, instance = np.asarray(semantic), np.asarray(instance)
    kept = np.flatnonzero(instance > 0)
    if ignore is not None:
        kept = kept[~np.asarray(ignore)[kept]]
    ids, first, sizes = np.unique(instance[kept], return_index=True, return_counts=True)
    classes = semantic[kept[first]]
    fg = classes > 0
    out = np.empty(np.count_nonzero(fg), dtype=GT_INSTANCE)
    out["id"], out["cls"], out["size"] = ids[fg], classes[fg], sizes[fg]
    return out


def pred_instances_from_labels(
    semantic: np.ndarray,
    instance: np.ndarray,
    ignore: np.ndarray | None = None,
) -> np.ndarray:
    """``PRED_INSTANCE`` records from label arrays.

    Pipeline pseudo labels carry no confidence, so the score defaults to the
    instance size divided by the frame's largest instance size, which keeps
    the ordering deterministic.
    """
    groups = instances_from_labels(semantic, instance, ignore)
    out = np.empty(len(groups), dtype=PRED_INSTANCE)
    out[list(GT_INSTANCE.names)] = groups  # assigned field by field, by position
    out["score"] = groups["size"] / groups["size"].max(initial=1)
    return out


def overlap_table(
    pred_ids: np.ndarray,
    gt_ids: np.ndarray,
    pred_instance: np.ndarray,
    gt_instance: np.ndarray,
    ignore: np.ndarray,
) -> np.ndarray:
    """Points that each pred (row) shares with each gt (column), ignored
    points left out; ``pred_ids`` and ``gt_ids`` are the sorted ``id``
    columns of the two extractors' arrays, and ids not in them are dropped.
    Past the one test that finds the points with a predicted instance, only
    they are read."""
    pred_instance, gt_instance = np.asarray(pred_instance), np.asarray(gt_instance)
    both = np.flatnonzero(pred_instance > 0)
    both = both[gt_instance[both] > 0]
    both = both[~np.asarray(ignore)[both]]
    p = pred_instance[both].astype(np.int64)
    g = gt_instance[both]
    # One key per (pred, gt) pair of ids.
    span = int(g.max()) + 1 if g.size else 1
    keys, counts = np.unique(p * span + g, return_counts=True)
    p, g = np.divmod(keys, span)
    listed = np.isin(p, pred_ids) & np.isin(g, gt_ids)
    inter = np.zeros((len(pred_ids), len(gt_ids)), dtype=np.int64)
    inter[np.searchsorted(pred_ids, p[listed]), np.searchsorted(gt_ids, g[listed])] = counts[listed]
    return inter
