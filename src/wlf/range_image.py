"""Range image construction and row-wise depth-continuity segmentation.

A sweep is rasterised into an M x N depth matrix (M beams, N azimuth columns)
and each row is split into "ring segments": runs of returns whose depth varies
smoothly. ``dcs_rows`` links cells within a per-row window and depth
threshold, and a segment is a connected component of those links;
``dcs_dynamic`` scales both with the row's maximum depth, bridging small
gaps. A window of ``MIN_WINDOW`` and a constant threshold give the
fixed-threshold scan that only links immediately adjacent columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import connected_components
from .frames import Frame

__all__ = [
    "RangeImage",
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
class RangeImage:
    """M x N depth matrix with point-to-cell and cell-to-point index maps.

    ``depth`` holds NaN where a cell received no return. ``cell_point`` holds
    the index of the stored (nearest) point per cell, -1 when empty.
    ``point_cell`` maps every point, including ones evicted by a nearer return
    in the same cell, to its (row, col) cell.
    """

    depth: np.ndarray
    cell_point: np.ndarray
    point_cell: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


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


def build_range_image(frame: Frame, beams: int, columns: int) -> RangeImage:
    """Rasterise a frame into a beams x columns range image.

    Column = floor((azimuth + pi) / 2pi * columns), wrapped at the seam;
    depth = Euclidean range from the sensor. When several points land in one
    cell the nearest wins; evicted points keep their cell coordinates so they
    later inherit the cell's segment id.
    """
    if frame.num_points and int(frame.beam_row.max()) >= beams:
        raise ValueError(f"frame {frame.frame_id}: beam_row >= {beams}")
    depth = np.full((beams, columns), np.nan)
    cell_point = np.full((beams, columns), -1, dtype=np.int32)
    n = frame.num_points
    point_cell = np.zeros((n, 2), dtype=np.int32)
    if n == 0:
        return RangeImage(depth=depth, cell_point=cell_point, point_cell=point_cell)
    xyz = frame.xyz
    azimuth = np.arctan2(xyz[:, 1], xyz[:, 0])
    col = np.floor((azimuth + np.pi) / (2.0 * np.pi) * columns).astype(np.int64) % columns
    row = frame.beam_row
    rng = np.linalg.norm(xyz, axis=1)
    point_cell[:, 0] = row
    point_cell[:, 1] = col
    # Farthest first, so the nearest return is the last write per cell.
    order = np.argsort(-rng, kind="stable")
    depth[row[order], col[order]] = rng[order]
    cell_point[row[order], col[order]] = order.astype(np.int32)
    return RangeImage(depth=depth, cell_point=cell_point, point_cell=point_cell)


def _segments_from_cells(ri: RangeImage, cell_ids: np.ndarray, count: int) -> RingSegments:
    seg = cell_ids[ri.point_cell[:, 0], ri.point_cell[:, 1]]
    if seg.size and seg.min() < 0:
        raise AssertionError("point mapped to an unsegmented cell")
    return RingSegments(segment_id=seg.astype(np.int32), num_segments=count)


def dcs_rows(ri: RangeImage, windows: np.ndarray, thresholds: np.ndarray) -> RingSegments:
    """Row scan with explicit per-row window sizes and depth thresholds.

    Each occupied cell links to the nearest occupied cell within window/2
    columns to its left whose depth differs by less than the row threshold.
    A segment is a connected component of those links, and segment ids rank
    each segment's leftmost cell in row-major scan order.
    """
    beams, columns = ri.shape
    windows = np.asarray(windows, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if windows.shape != (beams,) or thresholds.shape != (beams,):
        raise ValueError("windows/thresholds must have one entry per beam")
    occupied = np.isfinite(ri.depth)
    n_cells = int(occupied.sum())
    cell_ids = np.full((beams, columns), -1, dtype=np.int64)
    cell_ids[occupied] = np.arange(n_cells)  # occupied cells in scan order
    left = [np.zeros(0, dtype=np.int64)]
    right = [np.zeros(0, dtype=np.int64)]
    for r in range(beams):
        d = ri.depth[r]
        valid = occupied[r]
        if not valid.any():
            continue
        half = max(1, int(windows[r] // 2))
        t_r = thresholds[r]
        # Distance to the nearest linkable cell on the left, 0 = none.
        jstar = np.zeros(columns, dtype=np.int64)
        for j in range(1, half + 1):
            if j >= columns:
                break
            cand = valid[j:] & valid[:-j] & (np.abs(d[j:] - d[:-j]) < t_r) & (jstar[j:] == 0)
            if cand.any():
                jstar[j:][cand] = j
        linked = np.flatnonzero(jstar)
        left.append(cell_ids[r, linked])
        right.append(cell_ids[r, linked - jstar[linked]])
    ids = connected_components(n_cells, np.concatenate(left), np.concatenate(right))
    cell_ids[occupied] = ids
    return _segments_from_cells(ri, cell_ids, int(ids.max()) + 1 if n_cells else 0)


def dcs_dynamic(ri: RangeImage, cfg: DcsConfig) -> RingSegments:
    """Adaptive segmentation: per row, scale the window inversely and the
    depth threshold proportionally with the row's maximum depth, clamped to
    [MIN_WINDOW, N] columns and >= MIN_DEPTH_THRESHOLD metres.
    """
    beams, columns = ri.shape
    windows = np.full(beams, float(MIN_WINDOW))
    thresholds = np.full(beams, MIN_DEPTH_THRESHOLD)
    for r in range(beams):
        row = ri.depth[r]
        finite = row[np.isfinite(row)]
        if finite.size == 0:
            continue
        m_r = float(finite.max())
        windows[r] = min(max(cfg.reference_range / m_r * cfg.window, MIN_WINDOW), columns)
        thresholds[r] = max(m_r / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
    return dcs_rows(ri, windows, thresholds)
