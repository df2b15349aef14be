"""Deterministic synthetic LiDAR + camera scenes with exact ground truth.

Scenes are built from closed-form primitives (cuboids for vehicles, vertical
cylinders for pedestrians and cyclists) standing on the ground plane z = 0,
scanned by nearest-hit ray casting from a sensor on the z axis. Every return
carries the hit object's class and instance, 2D boxes are the tight pixel
bounds of each object's projected points, and teacher votes can be fabricated
as the best score of a noisy one-hot vector. Everything is a pure function of
the config seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import check_fields
from .frames import Box2D, Calibration, Frame, project_points

__all__ = [
    "SceneConfig",
    "Scene",
    "CLASS_NAMES",
    "generate_scene",
    "fabricate_votes",
]

CLASS_NAMES = ["vehicle", "pedestrian", "cyclist"]
VEHICLE, PEDESTRIAN, CYCLIST = 1, 2, 3

_RAY_T_MIN = 0.3

# LiDAR (x fwd, y left, z up) to camera (x right, y down, z fwd).
_LIDAR_TO_CAM = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

# Footprint size ranges per primitive: (length, width, height) for cuboids,
# (radius, height) for cylinders.
_VEHICLE_SIZE = ((3.6, 5.0), (1.7, 2.2), (1.4, 1.9))
_PEDESTRIAN_SIZE = ((0.25, 0.40), (1.5, 1.9))
_CYCLIST_SIZE = ((0.30, 0.45), (1.5, 1.8))


@dataclass
class SceneConfig:
    """Scene layout, sensor model, and noise knobs. All draws come from
    ``seed``, so equal configs generate identical scenes."""

    seed: int = 0
    beams: int = 32
    columns: int = 512
    fov_up_deg: float = 2.0
    fov_down_deg: float = -24.5
    sensor_height: float = 2.0
    max_range: float = 120.0
    # Placement wedge (degrees) and per-class object count / distance ranges.
    azimuth_deg: tuple[float, float] = (-32.0, 32.0)
    vehicles: tuple[int, int] = (1, 4)
    pedestrians: tuple[int, int] = (0, 3)
    cyclists: tuple[int, int] = (0, 2)
    vehicle_distance: tuple[float, float] = (7.0, 22.0)
    pedestrian_distance: tuple[float, float] = (3.5, 6.5)
    cyclist_distance: tuple[float, float] = (4.0, 9.0)
    # Unlabelled building-like slabs behind the objects; they contaminate
    # frustum crops the way street furniture does.
    background_walls: tuple[int, int] = (2, 4)
    wall_distance: tuple[float, float] = (24.0, 45.0)
    min_separation: float = 2.5
    # Slack added around the tight pixel bounds, emulating human annotation
    # looseness; 0 keeps boxes exactly tight.
    box_pad_px: float = 0.0
    depth_jitter: float = 0.0
    score_sigma: float = 0.0
    # Camera: pinhole at ``camera_offset`` (LiDAR frame), looking forward.
    image_width: int = 640
    image_height: int = 480
    focal: float = 420.0
    camera_offset: tuple[float, float, float] = (0.2, 0.0, -0.3)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.beams < 1 or self.columns < 1:
            raise ValueError("beams and columns must be >= 1")
        if not -90.0 <= self.fov_down_deg < self.fov_up_deg <= 90.0:
            raise ValueError("need -90 <= fov_down_deg < fov_up_deg <= 90")
        if self.depth_jitter < 0 or self.score_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        for name in ("vehicles", "pedestrians", "cyclists", "background_walls"):
            lo, hi = getattr(self, name)
            if lo > hi or lo < 0:
                raise ValueError(f"bad count range for {name}")
        for name in ("vehicle_distance", "pedestrian_distance", "cyclist_distance", "wall_distance"):
            lo, hi = getattr(self, name)
            if lo > hi or lo <= 0:
                raise ValueError(f"bad distance range for {name}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SceneConfig":
        kwargs = dict(data)
        for key, val in kwargs.items():
            if isinstance(val, list):
                kwargs[key] = tuple(val)
        return cls(**kwargs)


@dataclass
class Scene:
    frame: Frame
    calibration: Calibration
    boxes: list[Box2D]
    config: SceneConfig


@dataclass
class _Cuboid:
    class_id: int
    center: np.ndarray
    size: np.ndarray
    yaw: float

    def azimuth_span(self) -> tuple[float, float] | None:
        """Azimuths (lo, hi) that bound the footprint's four corners as seen
        from the sensor axis; None when the axis passes through the footprint."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hx, hy = float(self.size[0]) / 2.0, float(self.size[1]) / 2.0
        cx, cy = float(self.center[0]), float(self.center[1])
        # The axis (0, 0) in the box frame.
        if abs(-c * cx - s * cy) <= hx and abs(s * cx - c * cy) <= hy:
            return None
        # Corner azimuths relative to the centre's: within pi of it, no wrap.
        rel = []
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            px = cx + c * sx * hx - s * sy * hy
            py = cy + s * sx * hx + c * sy * hy
            rel.append(math.atan2(cx * py - cy * px, cx * px + cy * py))
        base = math.atan2(cy, cx)
        return base + min(rel), base + max(rel)

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray distance to the box, inf on a miss: the slab test of Kay and
        Kajiya (SIGGRAPH 1986) in the box frame, one 1-D pass per axis."""
        c, s = math.cos(-self.yaw), math.sin(-self.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        o = rot @ (origin - self.center)
        # A matrix product, not per-axis sums: BLAS fuses the multiply-adds,
        # and the corpora are pinned to its rounding.
        d = dirs @ rot.T
        half = self.size / 2.0
        enter, exit_ = -np.inf, np.inf
        for k in range(3):
            dk = np.where(np.abs(d[:, k]) < 1e-12, 1e-12, d[:, k])
            t1 = (-half[k] - o[k]) / dk
            t2 = (half[k] - o[k]) / dk
            enter = np.maximum(enter, np.minimum(t1, t2))
            exit_ = np.minimum(exit_, np.maximum(t1, t2))
        hit = (exit_ >= enter) & (enter > _RAY_T_MIN)
        return np.where(hit, enter, np.inf)


@dataclass
class _Cylinder:
    class_id: int
    center_xy: np.ndarray
    radius: float
    height: float

    def azimuth_span(self) -> tuple[float, float] | None:
        """Azimuths (lo, hi) of the footprint's tangents from the sensor axis;
        None when the axis passes through the footprint."""
        cx, cy = float(self.center_xy[0]), float(self.center_xy[1])
        dist = math.hypot(cx, cy)
        if self.radius >= dist:
            return None
        base, half = math.atan2(cy, cx), math.asin(self.radius / dist)
        return base - half, base + half

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        ox, oy, oz = origin - np.array([self.center_xy[0], self.center_xy[1], 0.0])
        dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
        a = dx * dx + dy * dy
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - self.radius * self.radius
        disc = b * b - 4.0 * a * c
        best = np.full(dirs.shape[0], np.inf)
        ok = (disc >= 0) & (a > 1e-12)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            # Finite on every ray: a root is only taken where ``ok`` holds.
            t = (-b + sign * sq) / (2.0 * np.where(ok, a, 1.0))
            z = oz + t * dz
            good = ok & (t > _RAY_T_MIN) & (z >= 0.0) & (z <= self.height)
            best = np.where(good & (t < best), t, best)
        # Top cap.
        dz_safe = np.where(np.abs(dz) < 1e-12, 1e-12, dz)
        t_cap = (self.height - oz) / dz_safe
        x = ox + t_cap * dx
        y = oy + t_cap * dy
        good = (t_cap > _RAY_T_MIN) & (x * x + y * y <= self.radius * self.radius)
        best = np.where(good & (t_cap < best), t_cap, best)
        return best


def _place_objects(cfg: SceneConfig, rng: np.random.Generator) -> list:
    az_lo, az_hi = np.radians(cfg.azimuth_deg[0]), np.radians(cfg.azimuth_deg[1])
    placed: list = []
    centers: list[np.ndarray] = []

    def sample_center(dist_range: tuple[float, float]) -> np.ndarray | None:
        for _ in range(100):
            dist = rng.uniform(*dist_range)
            az = rng.uniform(az_lo, az_hi)
            xy = np.array([dist * math.cos(az), dist * math.sin(az)])
            if all(np.linalg.norm(xy - c) >= cfg.min_separation for c in centers):
                return xy
        return None

    specs = [
        (VEHICLE, cfg.vehicles, cfg.vehicle_distance),
        (PEDESTRIAN, cfg.pedestrians, cfg.pedestrian_distance),
        (CYCLIST, cfg.cyclists, cfg.cyclist_distance),
    ]
    for class_id, count_range, dist_range in specs:
        count = int(rng.integers(count_range[0], count_range[1] + 1))
        for _ in range(count):
            xy = sample_center(dist_range)
            if xy is None:
                continue
            if class_id == VEHICLE:
                length = rng.uniform(*_VEHICLE_SIZE[0])
                width = rng.uniform(*_VEHICLE_SIZE[1])
                height = rng.uniform(*_VEHICLE_SIZE[2])
                yaw = rng.uniform(0.0, math.pi)
                placed.append(
                    _Cuboid(
                        class_id=class_id,
                        center=np.array([xy[0], xy[1], height / 2.0]),
                        size=np.array([length, width, height]),
                        yaw=yaw,
                    )
                )
            else:
                size = _PEDESTRIAN_SIZE if class_id == PEDESTRIAN else _CYCLIST_SIZE
                radius = rng.uniform(*size[0])
                height = rng.uniform(*size[1])
                placed.append(
                    _Cylinder(
                        class_id=class_id, center_xy=xy, radius=radius, height=height
                    )
                )
            centers.append(xy)
    # Background walls face the sensor roughly tangentially, class 0.
    n_walls = int(rng.integers(cfg.background_walls[0], cfg.background_walls[1] + 1))
    for _ in range(n_walls):
        dist = rng.uniform(*cfg.wall_distance)
        az = rng.uniform(az_lo, az_hi)
        xy = np.array([dist * math.cos(az), dist * math.sin(az)])
        length = rng.uniform(16.0, 34.0)
        depth = rng.uniform(0.5, 2.0)
        height = rng.uniform(3.0, 7.0)
        yaw = az + math.pi / 2.0 + rng.uniform(-0.2, 0.2)
        placed.append(
            _Cuboid(
                class_id=0,
                center=np.array([xy[0], xy[1], height / 2.0]),
                size=np.array([length, depth, height]),
                yaw=yaw,
            )
        )
    return placed


def _default_calibration(cfg: SceneConfig) -> Calibration:
    k = np.array(
        [
            [cfg.focal, 0.0, cfg.image_width / 2.0],
            [0.0, cfg.focal, cfg.image_height / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = _LIDAR_TO_CAM
    extrinsic[:3, 3] = -_LIDAR_TO_CAM @ np.asarray(cfg.camera_offset)
    return Calibration(
        intrinsic=k, extrinsic=extrinsic, image_size=(cfg.image_width, cfg.image_height)
    )


def _ray_directions(cfg: SceneConfig) -> np.ndarray:
    """Unit direction of every ray, (beams * columns, 3), beam-major: beam b
    at the b-th of ``beams`` elevations from fov_up to fov_down, column k at
    azimuth ``-pi + (k + 0.5) * 2pi / columns``."""
    elev = np.radians(np.linspace(cfg.fov_up_deg, cfg.fov_down_deg, cfg.beams))[:, None]
    azim = -np.pi + (np.arange(cfg.columns) + 0.5) * (2.0 * np.pi / cfg.columns)
    dirs = np.empty((cfg.beams, cfg.columns, 3))
    dirs[..., 0] = np.cos(elev) * np.cos(azim)
    dirs[..., 1] = np.cos(elev) * np.sin(azim)
    dirs[..., 2] = np.sin(elev)
    return dirs.reshape(-1, 3)


def _span_rays(span: tuple[float, float] | None, beams: int, columns: int) -> np.ndarray:
    """The rays, in every beam, of the columns that look inside ``span``
    padded by one column on each side, wrapped at +-pi; all rays when there
    is no span or it reaches pi."""
    if span is None or span[1] - span[0] >= math.pi:
        return np.arange(beams * columns)
    width = 2.0 * math.pi / columns
    # Column k looks along -pi + (k + 0.5) * width.
    first = math.ceil((span[0] + math.pi) / width - 0.5) - 1
    last = math.floor((span[1] + math.pi) / width - 0.5) + 1
    if last - first + 1 >= columns:
        return np.arange(beams * columns)
    cols = np.arange(first, last + 1) % columns
    return (np.arange(beams)[:, None] * columns + cols).ravel()


def _cast(
    objects: list, origin: np.ndarray, dirs: np.ndarray, columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit of every ray: the index of what it hits (``len(objects)``
    for the ground) and the distance, inf where nothing is hit.

    Each object is cast only over the columns of its azimuth span. A strict
    ``<`` keeps the first of tied hits, objects before the ground, as an
    argmin over all of them would.
    """
    n_rays = dirs.shape[0]
    beams = n_rays // columns
    winner = np.full(n_rays, len(objects))
    t_hit = np.full(n_rays, np.inf)
    for oi, obj in enumerate(objects):
        rays = _span_rays(obj.azimuth_span(), beams, columns)
        t = obj.intersect(origin, dirs[rays])
        closer = t < t_hit[rays]
        t_hit[rays[closer]] = t[closer]
        winner[rays[closer]] = oi
    # The ground distance depends on the beam alone.
    dz = dirs[::columns, 2]
    t_ground = np.where(dz < -1e-12, -origin[2] / np.where(dz < -1e-12, dz, -1.0), np.inf)
    t_ground = np.repeat(np.where(t_ground > _RAY_T_MIN, t_ground, np.inf), columns)
    closer = t_ground < t_hit
    t_hit[closer] = t_ground[closer]
    winner[closer] = len(objects)
    return winner, t_hit


def generate_scene(cfg: SceneConfig, frame_id: str | None = None) -> Scene:
    """Ray-cast one frame and derive its ground truth and 2D boxes.

    Objects with at least one return and one visible pixel get instance ids
    1..n_box matching their box ids; objects with returns but no visible
    pixels keep instance ids after those, and boxless they stay recoverable
    only through ground truth.
    """
    rng = np.random.default_rng(cfg.seed)
    objects = _place_objects(cfg, rng)
    origin = np.array([0.0, 0.0, cfg.sensor_height])

    dirs = _ray_directions(cfg)
    n_rays = dirs.shape[0]
    winner, t_hit = _cast(objects, origin, dirs, cfg.columns)
    hit = np.isfinite(t_hit) & (t_hit <= cfg.max_range)

    if cfg.depth_jitter > 0:
        t_hit = t_hit + np.where(hit, rng.normal(0.0, cfg.depth_jitter, n_rays), 0.0)
        t_hit = np.maximum(t_hit, _RAY_T_MIN)

    idx = np.flatnonzero(hit)
    points_world = origin + t_hit[idx, None] * dirs[idx]
    points = np.zeros((idx.shape[0], 4))
    points[:, :3] = points_world - origin
    points[:, 3] = rng.uniform(0.0, 1.0, idx.shape[0])

    raw_obj = winner[idx]  # index into objects, len(objects) = ground
    class_of = np.array([obj.class_id for obj in objects] + [0], dtype=np.int32)
    gt_semantic = class_of[raw_obj]

    frame_id = frame_id or f"synth-{cfg.seed:08d}"
    frame = Frame(
        frame_id=frame_id,
        points=points,
        beam_row=idx // cfg.columns,
        gt_semantic=gt_semantic,
        gt_instance=np.zeros(idx.shape[0], dtype=np.int32),
    )
    calib = _default_calibration(cfg)
    index, pixels = project_points(calib, frame)

    # Boxed objects first, so instance ids equal box ids.
    boxes: list[Box2D] = []
    boxed: list[np.ndarray] = []
    unboxed: list[np.ndarray] = []
    for oi, obj in enumerate(objects):
        if obj.class_id == 0:
            continue
        mask = raw_obj == oi
        if not mask.any():
            continue
        vis = mask[index]
        if vis.any():
            u = pixels[vis, 0]
            v = pixels[vis, 1]
            pad = cfg.box_pad_px
            x0, x1 = float(u.min()) - pad, float(u.max()) + pad
            y0, y1 = float(v.min()) - pad, float(v.max()) + pad
            bounds = (
                max(x0, 0.0),
                max(y0, 0.0),
                min(x1 + 1e-3, float(cfg.image_width)),
                min(y1 + 1e-3, float(cfg.image_height)),
            )
            boxed.append(mask)
            boxes.append(
                Box2D(box_id=len(boxed), class_id=obj.class_id, bounds=bounds)
            )
        else:
            unboxed.append(mask)
    for inst_id, mask in enumerate(boxed + unboxed, start=1):
        frame.gt_instance[mask] = inst_id
    return Scene(frame=frame, calibration=calib, boxes=boxes, config=cfg)


def fabricate_votes(
    gt_semantic: np.ndarray,
    n_cls: int,
    sigma: float,
    seed: int,
    epoch: int = 0,
) -> np.ndarray:
    """Noisy stand-in for a teacher's per-point foreground votes: the best
    class score of clamp(one-hot + N(0, sigma)).

    Deterministic per (seed, epoch). Labels outside 1..n_cls get no one-hot
    column. Clamping commutes with the maximum, so only the maximum is clamped.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    gt_semantic = np.asarray(gt_semantic)
    fg = (gt_semantic >= 1) & (gt_semantic <= n_cls)
    if sigma == 0:
        return fg.astype(np.float64)
    rng = np.random.default_rng([seed, epoch])
    scores = rng.normal(0.0, sigma, (gt_semantic.shape[0], n_cls))
    scores[np.flatnonzero(fg), gt_semantic[fg] - 1] += 1.0
    # Column maxima: a reduction along each short row is several times slower.
    best = np.full(gt_semantic.shape[0], -np.inf)
    for column in scores.T:
        np.maximum(best, column, out=best)
    return np.clip(best, 0.0, 1.0)
