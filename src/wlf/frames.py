"""Camera calibration, 2D boxes, projection and frustum crop of LiDAR points.

Coordinate conventions: the LiDAR frame is x forward, y left, z up, with the
origin at the sensor. The camera frame is x right, y down, z along the optical
axis. Pixel coordinates are continuous with (0, 0) at the upper-left corner,
and a pixel lies inside a box under half-open containment [min, max).

A frame is its columns, plain arrays with no wrapper: ``xyz``, the (3, N)
coordinates with one contiguous row per axis, float32 as bundles store them,
and ``beam_row``, each point's beam. No stage reads intensity. A stage widens
the coordinates to float64 where it computes (``project_points`` against its
float64 calibration), and widening float32 is exact, so float32 and float64
copies of the same points give the same bits.

The crop is frustum first: ``project_points`` returns only the points whose
pixel falls inside the image, from row sums ``x*r[i,0] + y*r[i,1] +
z*r[i,2] + t[i]`` (no matrix product), and ``crop_frustum`` tests the boxes
on those points alone.

The per-point front end (the bundle reader, ``project_points`` and
``range_image.build_range_image``, and the per-point gather of
``range_image.dcs_rows``) takes a frame ``POINT_BLOCK`` points at a time
(``point_blocks``), so its scratch is a block's whatever the frame's size: loop blocking, as in Lam, Rothberg & Wolf, "The Cache Performance and
Optimizations of Blocked Algorithms" (ASPLOS 1991). Only what a layer returns
grows with the frame. Every point is computed as it would be in one pass, so
the blocks change no output bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import integer, listof, number

__all__ = [
    "Calibration",
    "Box2D",
    "project_points",
    "box_classes",
    "crop_frustum",
    "POINT_BLOCK",
    "point_blocks",
    "BOX_ID_MAX",
]

# Box ids run from 1 to this, so the id -> class table of ``box_classes`` is
# at most 256 KiB however the ids are chosen.
BOX_ID_MAX = 65535

# Points per block of the front end. A power of two starts every block
# aligned, as one pass over the frame would be; a 32 x 512 frame (about 15k
# points) is one block, a 64 x 2048 sensor frame (about 118k) four.
POINT_BLOCK = 2**15


def point_blocks(n: int) -> Iterator[slice]:
    """The slices of ``n`` points, ``POINT_BLOCK`` at a time; one empty slice
    when ``n`` is 0, so that a layer's results always have a first block."""
    return (slice(s, min(s + POINT_BLOCK, n)) for s in range(0, max(n, 1), POINT_BLOCK))


def _matrix(value, where: str, k: int) -> np.ndarray:
    """The float64 k x k matrix of nested lists (or an array) of finite numbers."""
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    return np.array(listof(rows, where, partial(listof, read=number, k=k), k), dtype=np.float64)


@dataclass
class Calibration:
    """Pinhole camera intrinsics plus a rigid LiDAR-to-camera transform, a
    4 x 4 matrix whose bottom row is [0, 0, 0, 1]."""

    intrinsic: np.ndarray
    extrinsic: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        self.intrinsic = _matrix(self.intrinsic, "intrinsic", 3)
        self.extrinsic = _matrix(self.extrinsic, "extrinsic", 4)
        k = self.intrinsic
        lower = np.abs([k[1, 0], k[2, 0], k[2, 1]])
        if lower.max() > 0:
            raise ValueError("intrinsic must be upper-triangular")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if abs(k[2, 2] - 1.0) > 1e-12 or abs(k[0, 1]) > 1e-12:
            raise ValueError("intrinsic must be a zero-skew pinhole matrix")
        r = self.rotation
        if np.linalg.norm(r.T @ r - np.eye(3)) >= 1e-9:
            raise ValueError("extrinsic rotation is not orthonormal")
        if not np.array_equal(self.extrinsic[3], [0, 0, 0, 1]):
            raise ValueError(f"extrinsic[3] {self.extrinsic[3].tolist()} is not [0, 0, 0, 1]")
        size = listof(self.image_size, "image_size", partial(integer, lo=1), 2)
        self.image_size = (int(size[0]), int(size[1]))

    @property
    def rotation(self) -> np.ndarray:
        return self.extrinsic[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.extrinsic[:3, 3]

    @property
    def fx(self) -> float:
        return float(self.intrinsic[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsic[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsic[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsic[1, 2])


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned 2D box annotation with a 1-based instance id and class id."""

    box_id: int
    class_id: int
    bounds: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        integer(self.box_id, "box_id", 1, BOX_ID_MAX)
        integer(self.class_id, "class_id", 1)
        object.__setattr__(self, "bounds", tuple(listof(self.bounds, "bounds", number, 4)))
        x0, y0, x1, y1 = self.bounds
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"bounds {self.bounds} are degenerate")

    @property
    def area(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return (x1 - x0) * (y1 - y0)


def project_points(calib: Calibration, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index, pixels)``: the ascending indices of the (3, N) ``xyz`` points
    in front of the camera (positive camera z) whose pixel lies in [0, w) x
    [0, h), and their (k, 2) float64 pixels. Only points in front get a u and
    v computed, one ``point_blocks`` block at a time; a block's in-image
    indices and pixels are kept, and joined once the last block is done."""
    r, t = calib.rotation, calib.translation
    w, h = calib.image_size
    index, pixels = [], []
    for block in point_blocks(xyz.shape[1]):
        x, y, z = xyz[:, block]
        # Each camera axis is summed in place, one point axis at a time, in
        # the order of x*r[i,0] + y*r[i,1] + z*r[i,2] + t[i]; the float64
        # entries of r and t make every product float64, float32 coordinates
        # included. A non-finite coordinate makes camera z non-finite
        # (inf * 0 is NaN).
        with np.errstate(invalid="ignore"):
            depth = x * r[2, 0]
            depth += y * r[2, 1]
            depth += z * r[2, 2]
            depth += t[2]
        if not np.isfinite(depth).all():
            raise ValueError("non-finite point coordinates")
        front = np.flatnonzero(depth > 0)
        depth = depth[front]
        p = x.take(front)
        u, v = p * r[0, 0], p * r[1, 0]
        for j, row in ((1, y), (2, z)):
            p = row.take(front)
            u += p * r[0, j]
            v += p * r[1, j]
        del p
        # fx * cam / depth + cx, the same operations in place.
        for c, i, f, centre in ((u, 0, calib.fx, calib.cx), (v, 1, calib.fy, calib.cy)):
            c += t[i]
            c *= f
            c /= depth
            c += centre
        del depth
        inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
        front = front[inside]
        front += block.start
        index.append(front)
        pixels.append(np.stack([u[inside], v[inside]], axis=1))
        del front, u, v, inside  # before the next block, or the join
    if len(index) == 1:  # a lone block's arrays, uncopied
        return index[0], pixels[0]
    return np.concatenate(index), np.concatenate(pixels)


def box_classes(boxes: list[Box2D]) -> np.ndarray:
    """Lookup table from box id to class id, 0 for an id that names no box;
    a box id listed twice takes the class of its last listing."""
    class_of = np.zeros(max([b.box_id for b in boxes], default=0) + 1, dtype=np.int32)
    for b in boxes:
        class_of[b.box_id] = b.class_id
    return class_of


def crop_frustum(
    index: np.ndarray, pixels: np.ndarray, num_points: int, boxes: list[Box2D]
) -> np.ndarray:
    """Each of ``num_points`` points' box id (0 = none), from the in-image
    ``index`` and ``pixels`` of ``project_points``. Overlaps are resolved in
    favour of the smallest box area, then the smallest box id."""
    if len({b.box_id for b in boxes}) != len(boxes):
        raise ValueError("duplicate box ids")
    assign = np.zeros(num_points, dtype=np.int32)
    if not boxes:
        return assign
    # Sorted by u once, the points of a box's [x0, x1) are one slice, and
    # only that slice gets the v test. (A scan's rows are runs of falling u,
    # which the stable sort merges.)
    order = np.argsort(pixels[:, 0], kind="stable")
    u, v = pixels.take(order, axis=0).T
    box_of = np.zeros(index.shape[0], dtype=np.int32)
    # Write large/high-id boxes first so the preferred box lands last.
    boxes = sorted(boxes, key=lambda b: (-b.area, -b.box_id))
    slices = np.searchsorted(u, [(b.bounds[0], b.bounds[2]) for b in boxes], "left").tolist()
    for box, (lo, hi) in zip(boxes, slices):
        _, y0, _, y1 = box.bounds
        vs = v[lo:hi]
        box_of[order[lo:hi][(vs >= y0) & (vs < y1)]] = box.box_id
    assign[index] = box_of
    return assign
