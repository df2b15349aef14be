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

Each cell links at most once, to its nearest match on the left, so the links
form a forest whose roots are the segments' leftmost cells, and pointer
jumping finds every cell's segment without a general merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    depth = depth.ravel()
    cells = np.flatnonzero(np.isfinite(depth))  # occupied cells in scan order
    n_cells = cells.size
    index = np.full(depth.size, -1, dtype=np.int64)  # cell -> its rank in cells
    index[cells] = np.arange(n_cells)
    rows, cols = np.divmod(cells, columns)
    # Offsets rise, so a cell's first match is its nearest link; a cell stops
    # being tested once it links or its reach (half window, row start) ends.
    reach = np.minimum(np.maximum(windows // 2, 1)[rows], cols).astype(np.int64)
    t = thresholds[rows]
    link = np.arange(n_cells)
    pending = np.flatnonzero(reach)
    j = 1
    while pending.size:
        at = cells[pending]
        hit = np.abs(depth[at] - depth[at - j]) < t[pending]  # NaN never links
        link[pending[hit]] = index[at[hit] - j]
        pending = pending[~hit]
        j += 1
        pending = pending[reach[pending] >= j]
    # Links point left, so they form a forest rooted at each segment's
    # leftmost cell; jump pointers to the roots and rank them in scan order.
    while True:
        nxt = link[link]
        if np.array_equal(nxt, link):
            break
        link = nxt
    roots = link == np.arange(n_cells)
    ids = (np.cumsum(roots) - 1)[link]
    rank = index[cell]
    if rank.size and rank.min() < 0:
        raise AssertionError("point mapped to an unsegmented cell")
    return RingSegments(segment_id=ids[rank].astype(np.int32), num_segments=int(roots.sum()))


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
