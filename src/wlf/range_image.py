"""Range image construction and row-wise depth-continuity segmentation.

A sweep is rasterised into two arrays: an M x N depth matrix (M beams, N
azimuth columns) holding each cell's nearest return, and each point's flat
cell index. Each row is then split into "ring segments": runs of returns whose
depth varies smoothly. ``dcs_rows`` links cells within a per-row window and
depth threshold, and a segment is a connected component of those links;
``dcs_dynamic`` scales both with the row's maximum depth, bridging small
gaps. A window of ``MIN_WINDOW`` and a constant threshold give the
fixed-threshold scan that only links immediately adjacent columns. Every
point takes its cell's segment, including points behind a nearer return.

Runs first, as in run-based two-scan labelling (He, Chao & Suzuki, IEEE TIP
2008): one vectorised test links each cell to its left neighbour, and only
the heads of the resulting runs look farther left, each linking once to the
run of its nearest match. ``clustering.connected_components`` resolves the
links over run ids, the same hooking and pointer jumping that merges ccl's
edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import connected_components
from .frames import Frame

__all__ = [
    "RingSegments",
    "DcsConfig",
    "build_range_image",
    "dcs_dynamic",
    "dcs_rows",
    "MIN_WINDOW",
    "MIN_DEPTH_THRESHOLD",
]

# Guards for degenerate near/far rows in the adaptive variant.
MIN_WINDOW = 2
MIN_DEPTH_THRESHOLD = 0.05


@dataclass
class RingSegments:
    """Per-point segment ids, dense in [0, num_segments)."""

    segment_id: np.ndarray
    num_segments: int


@dataclass
class DcsConfig:
    """Adaptive segmentation parameters, calibrated at ``reference_range``.

    ``window`` columns and ``depth_base`` metres apply at the reference range;
    rows are rescaled by their maximum depth.
    """

    window: int = 10
    depth_base: float = 0.24
    reference_range: float = 50.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.depth_base <= 0:
            raise ValueError("depth_base must be positive")
        if self.reference_range <= 0:
            raise ValueError("reference_range must be positive")


def build_range_image(frame: Frame, beams: int, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise a frame into ``(depth, cell)``.

    ``depth`` is the beams x columns matrix of each cell's nearest range,
    ``sqrt((x*x + y*y) + z*z)``, and NaN where no point landed. ``cell`` is
    each point's flat cell index ``row * columns + col``, with column =
    floor((azimuth + pi) / 2pi * columns), wrapped at the seam.
    """
    if frame.num_points and int(frame.beam_row.max()) >= beams:
        raise ValueError(f"frame {frame.frame_id}: beam_row >= {beams}")
    pts = frame.points
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    col = np.floor((np.arctan2(y, x) + np.pi) / (2.0 * np.pi) * columns).astype(np.int64) % columns
    cell = frame.beam_row * columns + col
    # A minimum is exact, so the order of the scatter does not matter.
    depth = np.full(beams * columns, np.inf)
    np.minimum.at(depth, cell, np.sqrt((x * x + y * y) + z * z))
    depth[depth == np.inf] = np.nan
    return depth.reshape(beams, columns), cell


def dcs_rows(
    depth: np.ndarray, cell: np.ndarray, windows: np.ndarray, thresholds: np.ndarray
) -> RingSegments:
    """Row scan with explicit per-row window sizes and depth thresholds.

    Each occupied cell links to the nearest occupied cell within window/2
    columns to its left whose depth differs by less than the row threshold.
    A segment is a connected component of those links, and segment ids rank
    each segment's leftmost cell in row-major scan order. ``depth`` and
    ``cell`` are as ``build_range_image`` returns them.
    """
    beams, columns = depth.shape
    windows = np.asarray(windows, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if windows.shape != (beams,) or thresholds.shape != (beams,):
        raise ValueError("windows/thresholds must have one entry per beam")
    if not np.isfinite(windows).all():
        raise ValueError("windows must be finite")
    # A cell continues the run on its left when that cell is near in depth
    # (NaN never is); a row's first cell always starts a run. Run ids count
    # the heads in scan order, and the run-id image holds -1 where empty.
    head = np.isfinite(depth)
    head[:, 1:] &= ~(np.abs(depth[:, 1:] - depth[:, :-1]) < thresholds[:, None])
    run = np.where(np.isfinite(depth).ravel(), np.cumsum(head, dtype=np.int32) - 1, -1)
    heads = np.flatnonzero(head)
    rows, cols = np.divmod(heads, columns)
    # Heads look farther left from offset 2, nearest first, until they link
    # or pass their reach (half the window, at most the row start).
    reach = np.minimum(np.maximum(windows // 2, 1)[rows], cols).astype(np.int64)
    t = thresholds[rows]
    depth = depth.ravel()
    link = np.arange(heads.size, dtype=np.int32)
    j = 2
    pending = np.flatnonzero(reach >= j)
    while pending.size:
        at = heads[pending]
        hit = np.abs(depth[at] - depth[at - j]) < t[pending]
        link[pending[hit]] = run[at[hit] - j]
        pending = pending[~hit]
        j += 1
        pending = pending[reach[pending] >= j]
    # A segment is a component of the run links. Links point left, so each
    # component's smallest run is its leftmost, and ids follow scan order.
    ids = connected_components(heads.size, np.arange(heads.size), link).astype(np.int32)
    rank = run[cell]
    if rank.size and rank.min() < 0:
        raise AssertionError("point mapped to an unsegmented cell")
    return RingSegments(segment_id=ids[rank], num_segments=int(ids.max(initial=-1)) + 1)


def dcs_dynamic(depth: np.ndarray, cell: np.ndarray, cfg: DcsConfig) -> RingSegments:
    """Adaptive segmentation: per row, scale the window inversely and the
    depth threshold proportionally with the row's maximum depth, clamped to
    [MIN_WINDOW, N] columns and >= MIN_DEPTH_THRESHOLD metres. An empty row
    gets the minima; a row whose maximum depth is 0 gets an N-column window.
    """
    columns = depth.shape[1]
    m = np.fmax.reduce(depth, axis=1, initial=np.nan)  # NaN on empty rows
    with np.errstate(divide="ignore"):
        windows = np.fmin(np.fmax(cfg.reference_range / m * cfg.window, MIN_WINDOW), columns)
    thresholds = np.fmax(m / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
    return dcs_rows(depth, cell, windows, thresholds)
