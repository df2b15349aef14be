"""Core frame model: LiDAR sweeps, camera calibration, projection, frustum crop.

Coordinate conventions: the LiDAR frame is x forward, y left, z up, with the
origin at the sensor. The camera frame is x right, y down, z along the optical
axis. Pixel coordinates are continuous with (0, 0) at the upper-left corner,
and a pixel lies inside a box under half-open containment [min, max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Frame",
    "Calibration",
    "Box2D",
    "ProjectedPoints",
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


@dataclass
class ProjectedPoints:
    """Per-point pixel coordinates, camera depth, and a validity mask."""

    pixels: np.ndarray
    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        n = self.pixels.shape[0]
        if self.pixels.shape != (n, 2) or self.depth.shape != (n,) or self.valid.shape != (n,):
            raise ValueError("inconsistent projection array shapes")


def project_points(calib: Calibration, frame: Frame) -> ProjectedPoints:
    """Project LiDAR points into the camera image.

    A point is valid when it lies in front of the camera (positive camera-z)
    and its pixel falls inside the image. Invalid points keep NaN pixels.
    """
    xyz = frame.xyz
    if not np.isfinite(xyz).all():
        raise ValueError(f"frame {frame.frame_id}: non-finite point coordinates")
    cam = xyz @ calib.rotation.T + calib.translation
    z = cam[:, 2]
    in_front = z > 0
    z_safe = np.where(in_front, z, 1.0)
    u = calib.fx * cam[:, 0] / z_safe + calib.cx
    v = calib.fy * cam[:, 1] / z_safe + calib.cy
    w, h = calib.image_size
    valid = in_front & (u >= 0) & (u < w) & (v >= 0) & (v < h)
    pixels = np.stack([u, v], axis=1)
    pixels[~in_front] = np.nan
    return ProjectedPoints(pixels=pixels, depth=z.copy(), valid=valid)


def box_classes(boxes: list[Box2D]) -> np.ndarray:
    """Lookup table from box id to class id; ids that name no box map to 0."""
    class_of = np.zeros(max([b.box_id for b in boxes], default=0) + 1, dtype=np.int32)
    for b in boxes:
        class_of[b.box_id] = b.class_id
    return class_of


def crop_frustum(proj: ProjectedPoints, boxes: list[Box2D]) -> np.ndarray:
    """Assign each point the id of the 2D box containing its pixel (0 = none).

    Overlaps are resolved in favour of the smallest box area, then the
    smallest box id. Invalid projections are always assigned 0.
    """
    ids = [b.box_id for b in boxes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate box ids")
    assign = np.zeros(proj.valid.shape[0], dtype=np.int32)
    if not boxes:
        return assign
    u = np.where(proj.valid, proj.pixels[:, 0], -1.0)
    v = np.where(proj.valid, proj.pixels[:, 1], -1.0)
    # Write large/high-id boxes first so the preferred box lands last.
    for box in sorted(boxes, key=lambda b: (-b.area, -b.box_id)):
        inside = proj.valid & box.contains(u, v)
        assign[inside] = box.box_id
    return assign
