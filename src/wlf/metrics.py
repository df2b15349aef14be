"""Segmentation metrics: per-class IoU / mIoU and COCO-style instance AP.

Semantic IoU is computed from pooled TP/FP/FN counts over foreground classes;
points with ground-truth label -1 are excluded everywhere. Instance AP keeps,
per frame, each instance's class and size and one pred x gt table of shared
points; greedy max-IoU matching of score-sorted predictions per class runs on
those tables, with 101-point interpolated precision averaged over the
0.50:0.05:0.95 thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricReport",
    "InstancePred",
    "InstanceGT",
    "FrameInstances",
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


@dataclass(frozen=True)
class InstancePred:
    instance_id: int
    class_id: int
    size: int
    score: float


@dataclass(frozen=True)
class InstanceGT:
    instance_id: int
    class_id: int
    size: int


@dataclass(frozen=True)
class FrameInstances:
    """One frame's instances and ``inter[p, g]``, the points that pred ``p``
    and gt ``g`` share."""

    frame_id: str
    preds: list[InstancePred]
    gts: list[InstanceGT]
    inter: np.ndarray

    def iou(self) -> np.ndarray:
        """IoU of every pred (row) with every gt (column), in float64."""
        size_p = np.array([p.size for p in self.preds], dtype=np.int64).reshape(-1, 1)
        size_g = np.array([g.size for g in self.gts], dtype=np.int64)
        return self.inter / (size_p + size_g - self.inter)


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
        def label(cls: int) -> str:
            if class_names and 1 <= cls <= len(class_names):
                return class_names[cls - 1]
            return str(cls)

        return {
            "miou": self.miou,
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "per_class_iou": {label(c): v for c, v in sorted(self.per_class_iou.items())},
            "per_class_ap": {label(c): v for c, v in sorted(self.per_class_ap.items())},
        }

    def format_table(self, class_names: list[str] | None = None) -> str:
        def label(cls: int) -> str:
            if class_names and 1 <= cls <= len(class_names):
                return class_names[cls - 1]
            return f"class {cls}"

        classes = sorted(set(self.per_class_iou) | set(self.per_class_ap))
        width = max([len(label(c)) for c in classes] + [len("mean")]) + 2
        lines = [f"{'':<{width}}{'IoU':>8}{'AP':>8}"]
        for c in classes:
            iou = self.per_class_iou.get(c)
            ap = self.per_class_ap.get(c)
            iou_s = f"{iou:.4f}" if iou is not None else "-"
            ap_s = f"{ap:.4f}" if ap is not None else "-"
            lines.append(f"{label(c):<{width}}{iou_s:>8}{ap_s:>8}")
        lines.append(f"{'mean':<{width}}{self.miou:>8.4f}{self.ap:>8.4f}")
        lines.append(f"{'AP50':<{width}}{'':>8}{self.ap50:>8.4f}")
        lines.append(f"{'AP75':<{width}}{'':>8}{self.ap75:>8.4f}")
        return "\n".join(lines)


def confusion_counts(
    pred: np.ndarray, gt: np.ndarray, n_cls: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class TP/FP/FN over foreground classes 1..n_cls, skipping gt == -1."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("pred/gt length mismatch")
    keep = gt != -1
    # One row per class; row 0, the background, stays zero.
    classes = np.arange(n_cls + 1)[:, None]
    p = (pred[keep] == classes) & (classes > 0)
    g = (gt[keep] == classes) & (classes > 0)
    return (p & g).sum(axis=1), (p & ~g).sum(axis=1), (~p & g).sum(axis=1)


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
    frames: list[FrameInstances],
    iou_thresholds: np.ndarray | None = None,
) -> tuple[dict[int, float], float, float, float]:
    """Per-class AP (averaged over thresholds), mAP, AP50 and AP75.

    Within a class, predictions are matched in order of score descending,
    then frame id, then instance order, each to the unmatched gt of its
    frame and class with the largest IoU (the first in gt order on a tie; an
    IoU of 0 never matches). Classes with no ground-truth instances anywhere
    are excluded.
    """
    thresholds = IOU_THRESHOLDS if iou_thresholds is None else np.asarray(iou_thresholds)
    ious = [f.iou() for f in frames]
    gt_classes = [np.array([g.class_id for g in f.gts], dtype=np.int64) for f in frames]
    classes = sorted({g.class_id for f in frames for g in f.gts})
    steps = np.arange(thresholds.size)
    per_class: dict[int, float] = {}
    ap_matrix = np.zeros((len(classes), thresholds.size))
    for ci, cls in enumerate(classes):
        order = sorted((-p.score, f.frame_id, fi, pi) for fi, f in enumerate(frames)
                       for pi, p in enumerate(f.preds) if p.class_id == cls)
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
) -> list[InstanceGT]:
    """Instances in id order from label arrays, ignored points dropped.

    An instance takes the class of its lowest-index kept point and is left
    out when that class is not a foreground class.
    """
    semantic = np.asarray(semantic)
    instance = np.asarray(instance)
    kept = instance > 0 if ignore is None else (instance > 0) & ~np.asarray(ignore)
    ids, first, sizes = np.unique(instance[kept], return_index=True, return_counts=True)
    classes = semantic[kept][first]
    return [InstanceGT(int(i), int(c), int(n)) for i, c, n in zip(ids, classes, sizes) if c > 0]


def pred_instances_from_labels(
    semantic: np.ndarray,
    instance: np.ndarray,
    ignore: np.ndarray | None = None,
) -> list[InstancePred]:
    """Predicted instances from label arrays.

    Pipeline pseudo labels carry no confidence, so the score defaults to the
    instance size divided by the frame's largest instance size, which keeps
    the ordering deterministic.
    """
    groups = instances_from_labels(semantic, instance, ignore)
    biggest = max((g.size for g in groups), default=1)
    return [InstancePred(g.instance_id, g.class_id, g.size, g.size / biggest) for g in groups]


def overlap_table(
    preds: list[InstancePred],
    gts: list[InstanceGT],
    pred_instance: np.ndarray,
    gt_instance: np.ndarray,
    ignore: np.ndarray | None = None,
) -> np.ndarray:
    """Points that each pred (row) shares with each gt (column), ignored
    points left out; ``preds`` and ``gts`` as the two extractors give them."""
    pred_ids = [p.instance_id for p in preds]
    gt_ids = [g.instance_id for g in gts]
    both = np.isin(pred_instance, pred_ids) & np.isin(gt_instance, gt_ids)
    if ignore is not None:
        both &= ~np.asarray(ignore)
    inter = np.zeros((len(preds), len(gts)), dtype=np.int64)
    rows = np.searchsorted(pred_ids, np.asarray(pred_instance)[both])
    cols = np.searchsorted(gt_ids, np.asarray(gt_instance)[both])
    np.add.at(inter, (rows, cols), 1)
    return inter
