"""Historical-vote label correction.

Given the last few epochs of per-point foreground scores from a teacher
model, points that were confidently foreground or background in enough epochs
get their pseudo label overridden, and a foreground point takes its box's
class from the table of box id to class id. Which epochs to pass, and whether
voting is enabled yet, is decided by the caller (``pipeline.process_frame``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .fields import INT32_MAX, check_fields, leaf
from .spatial import PseudoLabels

__all__ = ["PvcConfig", "vote_correct"]


@dataclass
class PvcConfig:
    """Vote thresholds: scores > tau_high count foreground, < tau_low count
    background, and a point needs at least t_reliable consistent epochs."""

    tau_high: float = leaf(0.5, 0, 1)
    tau_low: float = leaf(0.5, 0, 1)
    # t_reliable may exceed n_his: that disables voting entirely.
    t_reliable: int = leaf(3, 1, INT32_MAX)
    n_his: int = leaf(4, 1, INT32_MAX)
    start_epoch: int = leaf(1, 0, INT32_MAX)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.tau_low > self.tau_high:
            raise ValueError(f"tau_low {self.tau_low!r} is above tau_high {self.tau_high!r}")


def vote_correct(
    scores: Iterable[np.ndarray],
    cfg: PvcConfig,
    labels: PseudoLabels,
    box_assign: np.ndarray,
    class_of: np.ndarray,
) -> PseudoLabels:
    """New pseudo labels, overridden by majority vote over epoch scores;
    ``labels`` is left as it is.

    ``scores`` is any iterable of epoch rows, such as an (E, N) array or a
    generator that reads one epoch at a time: each row holds the N per-point
    foreground scores in [0, 1] of one epoch, float32 as the bundle stores
    them or any dtype that converts to float64; the thresholds are compared
    in float64 either way. A row is checked in full and counted before the
    next is taken, so only one row need be alive at a time. Foreground
    overrides require the point to lie in some box frustum, which supplies
    the instance id and, through the box-class table ``class_of``, the class;
    a reliable-background vote clears both labels. A point that is reliable
    in both directions follows the foreground rule first.

    Votes are counted only where one can change a label: at the points in a
    box (``box_assign > 0``) or labelled (``semantic`` or ``instance``
    nonzero). Elsewhere a foreground vote has no box and a background vote
    finds both labels 0 already.
    """
    n = labels.semantic.shape[0]
    box_assign = np.asarray(box_assign)
    if box_assign.shape != (n,):
        raise ValueError("box_assign must be as long as the labels")
    candidate = box_assign > 0
    candidate |= labels.semantic != 0
    candidate |= labels.instance != 0
    at = np.flatnonzero(candidate)
    del candidate
    # A float64 threshold makes every comparison a float64 one, float32 scores
    # included: a Python float would be rounded to float32 first. int32
    # counts (at most one per epoch) take half the bytes of the default int64.
    tau_high, tau_low = np.float64(cfg.tau_high), np.float64(cfg.tau_low)
    fg_votes = np.zeros(at.size, dtype=np.int32)
    bg_votes = np.zeros(at.size, dtype=np.int32)
    for row in scores:
        row = np.asarray(row)
        if row.dtype != np.float32:  # float32 scores stay uncopied
            row = np.asarray(row, dtype=np.float64)
        if row.shape != (n,):
            raise ValueError("scores must hold one row per epoch, as long as the labels")
        # Two reductions; a NaN makes both NaN, and so fails; an empty frame
        # has no score to check.
        if n and not (row.min() >= 0 and row.max() <= 1):
            raise ValueError("scores must lie in [0, 1]")
        row = row[at]
        fg_votes += row > tau_high
        bg_votes += row < tau_low
    box_id = box_assign[at]
    fg = (fg_votes >= cfg.t_reliable) & (box_id > 0)
    bg = (bg_votes >= cfg.t_reliable) & ~fg
    out = PseudoLabels(labels.semantic.copy(), labels.instance.copy())
    out.semantic[at[fg]] = class_of[box_id[fg]]
    out.instance[at[fg]] = box_id[fg]
    out.semantic[at[bg]] = 0
    out.instance[at[bg]] = 0
    return out
