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
    # Rows sorted by falling half window, so the rows offset j reaches are a
    # prefix. Offsets run from far to near and the nearest link is written
    # last; NaN (empty) cells compare false and never link.
    halves = np.maximum(windows // 2, 1)
    order = np.argsort(-halves, kind="stable")
    depth, t = ri.depth[order], thresholds[order, None]
    jstar = np.zeros((beams, columns), dtype=np.int64)  # link distance, 0 = none
    for j in range(int(min(halves.max(initial=0), columns - 1)), 0, -1):
        k = int(np.count_nonzero(halves >= j))
        np.copyto(jstar[:k, j:], j, where=np.abs(depth[:k, j:] - depth[:k, :-j]) < t[:k])
    jstar = jstar[np.argsort(order)]
    rows, cols = np.nonzero(jstar)  # row-major
    occupied = np.isfinite(ri.depth)
    n_cells = int(occupied.sum())
    cell_ids = np.full((beams, columns), -1, dtype=np.int64)
    cell_ids[occupied] = np.arange(n_cells)  # occupied cells in scan order
    ids = connected_components(
        n_cells, cell_ids[rows, cols], cell_ids[rows, cols - jstar[rows, cols]]
    )
    cell_ids[occupied] = ids
    seg = cell_ids[ri.point_cell[:, 0], ri.point_cell[:, 1]]
    if seg.size and seg.min() < 0:
        raise AssertionError("point mapped to an unsegmented cell")
    return RingSegments(segment_id=seg.astype(np.int32), num_segments=int(ids.max(initial=-1)) + 1)


def dcs_dynamic(ri: RangeImage, cfg: DcsConfig) -> RingSegments:
    """Adaptive segmentation: per row, scale the window inversely and the
    depth threshold proportionally with the row's maximum depth, clamped to
    [MIN_WINDOW, N] columns and >= MIN_DEPTH_THRESHOLD metres. An empty row
    gets the minima; a row whose maximum depth is 0 gets an N-column window.
    """
    columns = ri.shape[1]
    m = np.fmax.reduce(ri.depth, axis=1, initial=np.nan)  # NaN on empty rows
    with np.errstate(divide="ignore"):
        windows = np.fmin(np.fmax(cfg.reference_range / m * cfg.window, MIN_WINDOW), columns)
    thresholds = np.fmax(m / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
    return dcs_rows(ri, windows, thresholds)
