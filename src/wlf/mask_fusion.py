"""Instance pseudo-mask fusion for the 2D branch.

Multiple predicted masks assigned to one annotated box are fused into a single
probability map, weighting each prediction by its confidence and by how well
its predicted box matches the annotation. The fused map is trinarised with a
low/high threshold pair, and the result supervises predicted masks through a
BCE + soft-dice loss that skips ignored pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import IpgConfig
from .fields import listof, number
from .frames import Box2D

__all__ = [
    "MaskPrediction",
    "IpgConfig",
    "box_iou",
    "fusion_weights",
    "weight_masks",
    "binarize",
    "pseudo_loss",
    "EPS",
]

EPS = 1e-7


@dataclass
class MaskPrediction:
    """One predicted mask: probability map, confidence, and predicted box."""

    prob_map: np.ndarray
    score: float
    pred_box: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        self.prob_map = np.asarray(self.prob_map, dtype=np.float64)
        if self.prob_map.ndim != 2 or not np.isfinite(self.prob_map).all():
            raise ValueError("prob_map must be a finite 2D map")
        self.score = float(number(self.score, "score", 0))
        self.pred_box = tuple(float(v) for v in listof(self.pred_box, "pred_box", number, 4))
        x0, y0, x1, y1 = self.pred_box
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"pred_box {self.pred_box} is degenerate")


def box_iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """IoU of two axis-aligned boxes given as (x0, y0, x1, y1)."""
    ix0 = max(a[0], b[0])
    iy0 = max(a[1], b[1])
    ix1 = min(a[2], b[2])
    iy1 = min(a[3], b[3])
    inter = max(0.0, ix1 - ix0) * max(0.0, iy1 - iy0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def fusion_weights(scores: np.ndarray, ious: np.ndarray, k: float) -> np.ndarray:
    """Normalised weights w_j = s_j * exp(k * iou_j) / sum_j(...).

    Falls back to uniform weights when every score is zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ious = np.asarray(ious, dtype=np.float64)
    if scores.shape != ious.shape or scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores and ious must be matching non-empty 1D arrays")
    w = scores * np.exp(k * ious)
    total = w.sum()
    if total <= 0:
        return np.full(scores.shape[0], 1.0 / scores.shape[0])
    return w / total


def weight_masks(preds: list[MaskPrediction], gt_box: Box2D, k: float = 1.0) -> np.ndarray:
    """Fuse the predictions assigned to one annotated box into one prob map."""
    if not preds:
        raise ValueError("need at least one prediction")
    shape = preds[0].prob_map.shape
    for p in preds:
        if p.prob_map.shape != shape:
            raise ValueError("all prob maps must share one shape")
    scores = np.array([p.score for p in preds])
    ious = np.array([box_iou(p.pred_box, gt_box.bounds) for p in preds])
    w = fusion_weights(scores, ious, k)
    fused = np.zeros(shape)
    for wj, p in zip(w, preds):
        fused += wj * p.prob_map
    return fused


def binarize(fused: np.ndarray, cfg: IpgConfig) -> np.ndarray:
    """Trinarise a fused map: > tau_high -> 1, < tau_low -> 0, else -1."""
    out = np.full(fused.shape, -1, dtype=np.int8)
    out[fused > cfg.tau_high] = 1
    out[fused < cfg.tau_low] = 0
    return out


def pseudo_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """BCE plus soft-dice between a predicted prob map and a trinary target.

    Pixels with target -1 are excluded from both terms; an all-ignored target
    yields 0 by convention. Probabilities are clamped to [EPS, 1 - EPS].
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError("pred/target shape mismatch")
    keep = target >= 0
    if not keep.any():
        return 0.0
    p = np.clip(pred[keep], EPS, 1.0 - EPS)
    y = target[keep].astype(np.float64)
    bce = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    inter = float((p * y).sum())
    dice = 1.0 - 2.0 * inter / (float(p.sum()) + float(y.sum()) + EPS)
    return bce + dice

