"""Historical-vote label correction.

Given the last few epochs of per-point foreground scores from a teacher
model, points that were confidently foreground or background in enough epochs
get their pseudo label overridden. Which epochs to pass, and whether voting
is enabled yet, is decided by the caller (``pipeline.process_frame``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Box2D, box_classes
from .spatial import PseudoLabels

__all__ = ["PvcConfig", "vote_correct"]


@dataclass
class PvcConfig:
    """Vote thresholds: scores > tau_high count foreground, < tau_low count
    background, and a point needs at least t_reliable consistent epochs."""

    tau_high: float = 0.5
    tau_low: float = 0.5
    t_reliable: int = 3
    n_his: int = 4
    start_epoch: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau_low <= self.tau_high <= 1.0):
            raise ValueError("need 0 <= tau_low <= tau_high <= 1")
        # t_reliable may exceed n_his: that disables voting entirely.
        if self.t_reliable < 1:
            raise ValueError("t_reliable must be >= 1")
        if self.n_his < 1:
            raise ValueError("n_his must be >= 1")
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be >= 0")


def vote_correct(
    scores: np.ndarray,
    cfg: PvcConfig,
    labels: PseudoLabels,
    box_assign: np.ndarray,
    boxes: list[Box2D],
) -> PseudoLabels:
    """Override pseudo labels by majority vote over stacked epoch scores.

    ``scores`` is (E, N): one row of per-point foreground scores in [0, 1] per
    epoch, float32 as the bundle stores them or any dtype that converts to
    float64; the thresholds are compared in float64 either way. Foreground
    overrides require the point to lie in some box frustum, which supplies the
    class and the instance id; a reliable-background vote clears both labels.
    A point that is reliable in both directions follows the foreground rule
    first.
    """
    scores = np.asarray(scores)
    if scores.dtype != np.float32:  # float32 scores stay uncopied
        scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != labels.semantic.shape[0]:
        raise ValueError("scores must hold one row per epoch, as long as the labels")
    # Two reductions and no (E, N) temporaries; a NaN makes both NaN, and so
    # fails; an empty frame has no score to check.
    if scores.size and not (scores.min() >= 0 and scores.max() <= 1):
        raise ValueError("scores must lie in [0, 1]")
    out = labels.copy()
    box_assign = np.asarray(box_assign)
    # A float64 threshold makes every comparison a float64 one, float32 scores
    # included: a Python float would be rounded to float32 first. int32
    # counts (at most one per epoch) take half the bytes of the default int64.
    fg_votes = (scores > np.float64(cfg.tau_high)).sum(axis=0, dtype=np.int32)
    bg_votes = (scores < np.float64(cfg.tau_low)).sum(axis=0, dtype=np.int32)
    class_of = box_classes(boxes)
    fg = (fg_votes >= cfg.t_reliable) & (box_assign > 0)
    bg = (bg_votes >= cfg.t_reliable) & ~fg
    out.semantic[fg] = class_of[box_assign[fg]]
    out.instance[fg] = box_assign[fg]
    out.semantic[bg] = 0
    out.instance[bg] = 0
    return out
