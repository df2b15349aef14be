"""Core frame model: LiDAR sweeps, camera calibration, projection, frustum crop.

Coordinate conventions: the LiDAR frame is x forward, y left, z up, with the
origin at the sensor. The camera frame is x right, y down, z along the optical
axis. Pixel coordinates are continuous with (0, 0) at the upper-left corner,
and a pixel lies inside a box under half-open containment [min, max).

The crop is frustum first: ``project_points`` returns only the points whose
pixel falls inside the image, from column sums ``x*r[i,0] + y*r[i,1] +
z*r[i,2] + t[i]`` (no matrix product), and ``crop_frustum`` tests the boxes
on those points alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Frame",
    "Calibration",
    "Box2D",
    "project_points",
    "box_classes",
    "crop_frustum",
]


@dataclass
class Frame:
    """One LiDAR sweep: (x, y, z, intensity) points plus per-point beam index.

    Ground-truth label arrays are optional; when present they must match the
    point count. Coordinates must be finite.
    """

    frame_id: str
    points: np.ndarray
    beam_row: np.ndarray
    gt_semantic: np.ndarray | None = None
    gt_instance: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise ValueError(f"frame {self.frame_id}: points must have shape (N, 4)")
        if not np.isfinite(self.points[:, :3]).all():
            raise ValueError(f"frame {self.frame_id}: non-finite point coordinates")
        self.beam_row = np.asarray(self.beam_row, dtype=np.int64)
        if self.beam_row.shape != (self.num_points,):
            raise ValueError(f"frame {self.frame_id}: beam_row length mismatch")
        if self.num_points and int(self.beam_row.min()) < 0:
            raise ValueError(f"frame {self.frame_id}: negative beam index")
        for name in ("gt_semantic", "gt_instance"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int32)
                if arr.shape != (self.num_points,):
                    raise ValueError(f"frame {self.frame_id}: {name} length mismatch")
                setattr(self, name, arr)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def has_gt(self) -> bool:
        return self.gt_semantic is not None and self.gt_instance is not None


@dataclass
class Calibration:
    """Pinhole camera intrinsics plus a rigid LiDAR-to-camera transform."""

    intrinsic: np.ndarray
    extrinsic: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        self.intrinsic = np.asarray(self.intrinsic, dtype=np.float64)
        self.extrinsic = np.asarray(self.extrinsic, dtype=np.float64)
        if self.intrinsic.shape != (3, 3):
            raise ValueError("intrinsic must be 3x3")
        if self.extrinsic.shape != (4, 4):
            raise ValueError("extrinsic must be 4x4")
        # NaN passes every comparison below.
        if not (np.isfinite(self.intrinsic).all() and np.isfinite(self.extrinsic).all()):
            raise ValueError("intrinsic and extrinsic must be finite")
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
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValueError("image_size must be positive")
        self.image_size = (int(w), int(h))

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
        if self.box_id < 1:
            raise ValueError("box_id must be >= 1")
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1")
        x0, y0, x1, y1 = self.bounds
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate box bounds {self.bounds}")

    @property
    def area(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return (x1 - x0) * (y1 - y0)

    def contains(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        x0, y0, x1, y1 = self.bounds
        return (u >= x0) & (u < x1) & (v >= y0) & (v < y1)


def project_points(calib: Calibration, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """``(index, pixels)``: the ascending indices of the points in front of
    the camera (positive camera z) whose pixel lies in [0, w) x [0, h), and
    their (k, 2) pixels. Only points in front get a u and v computed."""
    pts = frame.points
    r, t = calib.rotation, calib.translation

    def cam(i: int, p: np.ndarray) -> np.ndarray:
        return p[:, 0] * r[i, 0] + p[:, 1] * r[i, 1] + p[:, 2] * r[i, 2] + t[i]

    # A non-finite coordinate makes camera z non-finite (inf * 0 is NaN).
    with np.errstate(invalid="ignore"):
        z = cam(2, pts)
    if not np.isfinite(z).all():
        raise ValueError(f"frame {frame.frame_id}: non-finite point coordinates")
    front = np.flatnonzero(z > 0)
    p, z = pts.take(front, axis=0), z[front]  # take gathers rows faster than pts[front]
    u = calib.fx * cam(0, p) / z + calib.cx
    v = calib.fy * cam(1, p) / z + calib.cy
    w, h = calib.image_size
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return front[inside], np.stack([u[inside], v[inside]], axis=1)


def box_classes(boxes: list[Box2D]) -> np.ndarray:
    """Lookup table from box id to class id; ids that name no box map to 0."""
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
    ids = [b.box_id for b in boxes]
    if len(set(ids)) != len(ids):
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
