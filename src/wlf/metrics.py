"""Segmentation metrics: per-class IoU / mIoU and COCO-style instance AP.

Semantic IoU is computed from pooled TP/FP/FN counts over foreground classes;
points with ground-truth label -1 are excluded everywhere. Instance AP uses
greedy max-IoU matching of score-sorted predictions per class and frame, with
101-point interpolated precision averaged over the 0.50:0.05:0.95 thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricReport",
    "InstancePred",
    "InstanceGT",
    "IOU_THRESHOLDS",
    "miou",
    "confusion_counts",
    "miou_from_counts",
    "point_set_iou",
    "instance_ap",
    "instances_from_labels",
    "pred_instances_from_labels",
]

IOU_THRESHOLDS = np.linspace(0.5, 0.95, 10)
_RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class InstancePred:
    frame_id: str
    class_id: int
    indices: tuple[int, ...]
    score: float


@dataclass(frozen=True)
class InstanceGT:
    frame_id: str
    class_id: int
    indices: tuple[int, ...]


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
    pred = pred[keep]
    gt = gt[keep]
    tp = np.zeros(n_cls + 1, dtype=np.int64)
    fp = np.zeros(n_cls + 1, dtype=np.int64)
    fn = np.zeros(n_cls + 1, dtype=np.int64)
    for c in range(1, n_cls + 1):
        p = pred == c
        g = gt == c
        tp[c] = int((p & g).sum())
        fp[c] = int((p & ~g).sum())
        fn[c] = int((~p & g).sum())
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


def miou(pred: np.ndarray, gt: np.ndarray, n_cls: int) -> tuple[dict[int, float], float]:
    """Per-class IoU and mIoU for one frame (or any pooled label pair)."""
    return miou_from_counts(*confusion_counts(pred, gt, n_cls))


def point_set_iou(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def _ap_from_matches(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from per-prediction hit flags in score order."""
    if n_gt == 0:
        return 0.0
    if tp_flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # Monotone envelope: precision at recall r is the max at recall >= r.
    for i in range(precision.size - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    idx = np.searchsorted(recall, _RECALL_GRID, side="left")
    sampled = np.zeros(_RECALL_GRID.size)
    ok = idx < precision.size
    sampled[ok] = precision[idx[ok]]
    return float(sampled.mean())


def _class_ap(
    preds: list[InstancePred], gts: list[InstanceGT], threshold: float
) -> float:
    """AP for one class at one IoU threshold."""
    n_gt = len(gts)
    gts_by_frame: dict[str, list[int]] = {}
    for gi, g in enumerate(gts):
        gts_by_frame.setdefault(g.frame_id, []).append(gi)
    matched: set[int] = set()
    flags = np.zeros(len(preds), dtype=bool)
    for pi, p in enumerate(preds):
        best_iou = 0.0
        best_gi = -1
        for gi in gts_by_frame.get(p.frame_id, []):
            if gi in matched:
                continue
            iou = point_set_iou(p.indices, gts[gi].indices)
            if iou > best_iou:
                best_iou = iou
                best_gi = gi
        if best_gi >= 0 and best_iou >= threshold:
            matched.add(best_gi)
            flags[pi] = True
    return _ap_from_matches(flags, n_gt)


def instance_ap(
    preds: list[InstancePred],
    gts: list[InstanceGT],
    iou_thresholds: np.ndarray | None = None,
) -> tuple[dict[int, float], float, float, float]:
    """Per-class AP (averaged over thresholds), mAP, AP50 and AP75.

    Classes with no ground-truth instances anywhere are excluded.
    """
    thresholds = IOU_THRESHOLDS if iou_thresholds is None else np.asarray(iou_thresholds)
    classes = sorted({g.class_id for g in gts})
    per_class: dict[int, float] = {}
    ap_matrix = np.zeros((len(classes), thresholds.size))
    for ci, cls in enumerate(classes):
        cls_preds = [p for p in preds if p.class_id == cls]
        # Stable order: score desc, then frame id, then insertion order.
        order = sorted(
            range(len(cls_preds)),
            key=lambda i: (-cls_preds[i].score, cls_preds[i].frame_id, i),
        )
        cls_preds = [cls_preds[i] for i in order]
        cls_gts = [g for g in gts if g.class_id == cls]
        for ti, t in enumerate(thresholds):
            ap_matrix[ci, ti] = _class_ap(cls_preds, cls_gts, float(t))
        per_class[cls] = float(ap_matrix[ci].mean())
    if per_class:
        mean_ap = float(np.mean(list(per_class.values())))
        i50 = int(np.argmin(np.abs(thresholds - 0.5)))
        i75 = int(np.argmin(np.abs(thresholds - 0.75)))
        ap50 = float(ap_matrix[:, i50].mean())
        ap75 = float(ap_matrix[:, i75].mean())
    else:
        mean_ap = ap50 = ap75 = 0.0
    return per_class, mean_ap, ap50, ap75


def instances_from_labels(
    semantic: np.ndarray,
    instance: np.ndarray,
    frame_id: str,
    ignore: np.ndarray | None = None,
) -> list[InstanceGT]:
    """Ground-truth instances from label arrays; drops ignored points."""
    semantic = np.asarray(semantic)
    instance = np.asarray(instance)
    keep = np.ones(semantic.shape[0], dtype=bool) if ignore is None else ~np.asarray(ignore)
    out = []
    for inst in np.unique(instance[(instance > 0) & keep]):
        idx = np.flatnonzero((instance == inst) & keep)
        cls = int(semantic[idx[0]])
        if cls <= 0:
            continue
        out.append(InstanceGT(frame_id=frame_id, class_id=cls, indices=tuple(idx.tolist())))
    return out


def pred_instances_from_labels(
    semantic: np.ndarray,
    instance: np.ndarray,
    frame_id: str,
    ignore: np.ndarray | None = None,
) -> list[InstancePred]:
    """Predicted instances from label arrays.

    Pipeline pseudo labels carry no confidence, so the score defaults to the
    instance size divided by the frame's largest instance size, which keeps
    the ordering deterministic.
    """
    groups = instances_from_labels(semantic, instance, frame_id, ignore)
    biggest = max((len(g.indices) for g in groups), default=1)
    return [
        InstancePred(
            frame_id=frame_id,
            class_id=g.class_id,
            indices=g.indices,
            score=len(g.indices) / biggest,
        )
        for g in groups
    ]
