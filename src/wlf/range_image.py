"""Range image construction and row-wise depth-continuity segmentation.

A sweep is rasterised into two arrays: an M x N depth matrix (M beams, N
azimuth columns) holding each cell's nearest return, and each point's flat
int32 cell index; ``build_range_image`` forms both a block of
``frames.POINT_BLOCK`` points at a time, so its scratch does not grow with
the sweep. Each row is then split into "ring segments": runs of returns whose
depth varies smoothly. ``dcs_rows`` links cells within a per-row window and
depth threshold, and a segment is a connected component of those links;
``dcs_dynamic`` scales both with the row's maximum depth, bridging small
gaps. A window of ``MIN_WINDOW`` and a constant threshold give the
fixed-threshold scan that only links immediately adjacent columns. Every
point takes its cell's segment, including points behind a nearer return.
Both scans return a ``RingSegments``; the stages that vote in segments (spg's
``refine_by_segments`` and ``rsc_correct``) take its ``segment_id`` array
alone, since ids are dense from 0 and so the count is the largest id + 1.

Runs first, as in run-based two-scan labelling (He, Chao & Suzuki, IEEE TIP
2008): one vectorised test links each cell to its left neighbour, and only
the heads of the resulting runs look farther left, a block of offsets per
pass, each linking once to the run of its nearest match.
``clustering.connected_components`` resolves the links over run ids, the
same hooking and pointer jumping that merges ccl's edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import connected_components
from .fields import INT32_MAX, check_fields, leaf
from .frames import point_blocks

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

# Run heads test this many offsets leftwards per pass.
_OFFSET_BLOCK = 16


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

    window: int = leaf(10, 1, INT32_MAX)
    depth_base: float = leaf(0.24, 0, exclusive=True)
    reference_range: float = leaf(50.0, 0, exclusive=True)
    __post_init__ = check_fields


def build_range_image(
    xyz: np.ndarray, beam_row: np.ndarray, beams: int, columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise the (3, N) points ``xyz`` on their beams ``beam_row`` into
    ``(depth, cell)``, one ``frames.point_blocks`` block at a time.

    ``depth`` is the beams x columns matrix of each cell's nearest range,
    ``sqrt((x*x + y*y) + z*z)`` in float64 whatever the dtype of ``xyz``
    (float32 as bundles store it), and NaN where no point landed. ``cell`` is
    each point's flat int32 cell index ``row * columns + col``, with column =
    floor((azimuth + pi) / 2pi * columns), wrapped at the seam.

    Raises ValueError for a raster of more than 2**31 - 1 cells, past the
    int32 index, and for a beam row outside [0, beams).
    """
    if beams * columns > INT32_MAX:
        raise ValueError(f"a {beams} x {columns} raster has more cells than an int32 index holds")
    if beam_row.size and (beam_row.min() < 0 or beam_row.max() >= beams):
        raise ValueError(f"beam_row outside [0, {beams})")
    depth = np.full(beams * columns, np.inf)
    cell = np.empty(xyz.shape[1], dtype=np.int32)
    for block in point_blocks(xyz.shape[1]):
        x, y, z = xyz[:, block]
        # A block's column, cell and range are each formed in place, in
        # float64 and in the operation order of floor((atan2(y, x) + pi) /
        # 2pi * columns) and (x*x + y*y) + z*z; a float32 coordinate widens
        # exactly as it is read.
        col = np.arctan2(y, x, dtype=np.float64)
        col += np.pi
        col /= 2.0 * np.pi
        col *= columns
        np.floor(col, out=col)
        at = cell[block]
        at[:] = col
        del col
        at %= columns
        # Widened first: a uint16 row times columns stays uint16 and wraps.
        at += np.multiply(beam_row[block], columns, dtype=np.int32)
        rng = np.multiply(x, x, dtype=np.float64)
        rng += np.multiply(y, y, dtype=np.float64)
        rng += np.multiply(z, z, dtype=np.float64)
        np.sqrt(rng, out=rng)
        # A minimum is exact, so the order of the scatter does not matter.
        np.minimum.at(depth, at, rng)
        del rng
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

    Beyond the links, the scan's raster-sized scratch is one float64 buffer
    of the row differences, a few boolean images and the int32 run ids, each
    formed in place.
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
    # Each is formed in one buffer, in place.
    step = np.subtract(depth[:, 1:], depth[:, :-1])
    np.abs(step, out=step)
    near = np.less(step, thresholds[:, None])
    del step
    head = np.isfinite(depth)
    head[:, 1:] &= ~near
    del near
    run = np.cumsum(head, dtype=np.int32)
    run -= 1
    run[~np.isfinite(depth).ravel()] = -1
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
        # Offsets j .. j + _OFFSET_BLOCK - 1 at once, each capped at the
        # head's reach so that it stays in the head's row; a head links to
        # the run of its first hit.
        at, lim = heads[pending], reach[pending, None]
        span = np.arange(j, j + _OFFSET_BLOCK)
        offset = np.minimum(span, lim)
        hit = np.abs(depth[at, None] - depth[at[:, None] - offset]) < t[pending, None]
        hit &= span <= lim
        first, found = hit.argmax(axis=1), hit.any(axis=1)
        link[pending[found]] = run[at[found] - offset[found, first[found]]]
        pending = pending[~found]
        j += _OFFSET_BLOCK
        pending = pending[reach[pending] >= j]
    # A segment is a component of the run links. Links point left, so each
    # component's smallest run is its leftmost, and ids follow scan order.
    ids = connected_components(heads.size, np.arange(heads.size), link).astype(np.int32)
    # Each point takes its cell's run's segment, a block of points at a time
    # with intp indices: numpy casts an int32 index element by element, at
    # about three times the cost of the gather itself.
    segment_id = np.empty(cell.shape[0], dtype=np.int32)
    for block in point_blocks(cell.shape[0]):
        rank = run[cell[block].astype(np.intp, copy=False)]
        if rank.size and rank.min() < 0:
            raise AssertionError("point mapped to an unsegmented cell")
        segment_id[block] = ids[rank.astype(np.intp)]
    return RingSegments(segment_id=segment_id, num_segments=int(ids.max(initial=-1)) + 1)


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
