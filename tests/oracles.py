"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written as plain loops, straight from the
operation definitions, and shares no code with the package. The one
exception is ``generate_labels_per_box``: the box-at-a-time form of
``spatial.generate_labels``, built on the package's single-radius
``ccl_cluster`` (itself checked against ``bfs_components``). ``cast_full``
is synth's former ray cast, every object over every ray, kept as the
reference for the cast that culls by azimuth, and ``fabricate_votes_full``
the former class-score matrix that synth's votes were the row maxima of.
"""

from __future__ import annotations

import math

import numpy as np


def range_image_trace(
    points: np.ndarray, beam_row: np.ndarray, beams: int, columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Literal per-point raster: the depth matrix and each point's flat cell.

    A cell keeps the nearest range it is given. The azimuth is numpy's
    ``arctan2``, one point at a time: numpy's vector loops may round
    differently from ``math.atan2`` in the last place, which moves a point on
    a column edge.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    depth = np.full((beams, columns), np.nan)
    cell = np.zeros(n, dtype=int)
    for i in range(n):
        x, y, z = (float(v) for v in points[i, :3])
        azimuth = float(np.arctan2(y, x))
        col = math.floor((azimuth + math.pi) / (2.0 * math.pi) * columns) % columns
        row = int(beam_row[i])
        rng = math.sqrt((x * x + y * y) + z * z)
        cell[i] = row * columns + col
        if math.isnan(depth[row, col]) or rng < depth[row, col]:
            depth[row, col] = rng
    return depth, cell


def dcs_simplified_trace(depth: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """Literal left-to-right scan; returns the per-cell id matrix and count."""
    depth = np.asarray(depth, dtype=float)
    m, n = depth.shape
    ids = np.full((m, n), -1, dtype=int)
    n_clu = 0
    for r in range(m):
        for i in range(n):
            if math.isnan(depth[r, i]):
                continue
            if (
                i >= 1
                and not math.isnan(depth[r, i - 1])
                and abs(depth[r, i] - depth[r, i - 1]) < threshold
            ):
                ids[r, i] = ids[r, i - 1]
            else:
                ids[r, i] = n_clu
                n_clu += 1
    return ids, n_clu


def dcs_dynamic_trace(
    depth: np.ndarray, windows: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, int]:
    """Literal equal-table trace: link, assign ids to roots, relabel."""
    depth = np.asarray(depth, dtype=float)
    m, n = depth.shape
    ids = np.full((m, n), -1, dtype=int)
    n_clu = 0
    for r in range(m):
        equal = list(range(n))
        half = max(1, int(windows[r] // 2))
        t_r = thresholds[r]
        for i in range(n):
            if math.isnan(depth[r, i]):
                continue
            for j in range(1, min(half, i) + 1):
                if not math.isnan(depth[r, i - j]) and abs(depth[r, i - j] - depth[r, i]) < t_r:
                    equal[i] = equal[i - j]
                    break
        for i in range(n):
            if not math.isnan(depth[r, i]) and equal[i] == i:
                ids[r, i] = n_clu
                n_clu += 1
        for i in range(n):
            if math.isnan(depth[r, i]):
                continue
            label = i
            while label != equal[label]:
                label = equal[label]
            ids[r, i] = ids[r, label]
    return ids, n_clu


def bfs_components(points: np.ndarray, radius: float) -> np.ndarray:
    """Components of the <=radius graph by breadth-first search."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = pts.shape[0]
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    adj = np.zeros((n, n), dtype=bool)
    for i in range(0, n, 256):  # row blocks keep the difference array small
        d2 = ((pts[i : i + 256, None, :] - pts[None, :, :]) ** 2).sum(-1)
        adj[i : i + 256] = d2 <= radius * radius
    nxt = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        comp = np.zeros(n, dtype=bool)
        while frontier.any():
            comp |= frontier
            frontier = adj[frontier].any(axis=0) & ~comp
        labels[comp] = nxt
        nxt += 1
    return labels


def generate_labels_per_box(frame, trinary, box_assign, boxes, radii):
    """Semantic and instance labels, one ``ccl_cluster`` call per box in list order."""
    from wlf.clustering import ccl_cluster, max_component

    n = frame.num_points
    semantic = np.zeros(n, dtype=np.int32)
    semantic[np.asarray(trinary) == -1] = -1
    instance = np.zeros(n, dtype=np.int32)
    for box in boxes:
        idx = np.flatnonzero((np.asarray(box_assign) == box.box_id) & (np.asarray(trinary) == 1))
        if idx.size == 0:
            continue
        sub = frame.xyz[idx]
        comps = ccl_cluster(sub, radii.for_class(box.class_id))
        keep = idx[max_component(comps.labels, sub)]
        semantic[idx] = -1
        semantic[keep] = box.class_id
        instance[keep] = box.box_id
    return semantic, instance


def edge_list_components(n: int, a, b) -> np.ndarray:
    """Components of an n-node edge list by depth-first search from each
    unlabelled node in index order, so ids follow first occurrence."""
    neighbours = [[] for _ in range(n)]
    for u, v in zip(list(a), list(b)):
        neighbours[u].append(v)
        neighbours[v].append(u)
    labels = [-1] * n
    nxt = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        stack = [start]
        while stack:
            for v in neighbours[stack.pop()]:
                if labels[v] < 0:
                    labels[v] = nxt
                    stack.append(v)
        nxt += 1
    return np.array(labels, dtype=int)


def rsc_trace(
    pred: np.ndarray,
    seg: np.ndarray,
    t1: float,
    t2: float,
    classes: list[int],
) -> np.ndarray:
    """Literal class-by-class, segment-by-segment voting pass."""
    pred = np.asarray(pred)
    seg = np.asarray(seg)
    out = pred.copy()
    mask_bg = pred == 0
    for cls in classes:
        mask_i = pred == cls
        for s in sorted(set(seg[mask_i].tolist())):
            in_s = seg == s
            n_bg = int((mask_bg & in_s).sum())
            n_i = int((mask_i & in_s).sum())
            n_tot = int(in_s.sum())
            if n_bg / n_i > t1:
                out[in_s] = 0
            elif n_i / n_tot > t2:
                out[in_s] = cls
    return out


def vote_enumerate(
    scores: np.ndarray,
    tau_high: float,
    tau_low: float,
    t_reliable: int,
    semantic: np.ndarray,
    instance: np.ndarray,
    box_assign: np.ndarray,
    box_class: dict[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Point-by-point, epoch-by-epoch vote counting."""
    out_sem = semantic.copy()
    out_inst = instance.copy()
    n_epochs, n = scores.shape
    for p in range(n):
        fg = sum(1 for e in range(n_epochs) if scores[e, p] > tau_high)
        bg = sum(1 for e in range(n_epochs) if scores[e, p] < tau_low)
        if fg >= t_reliable and box_assign[p] > 0:
            out_sem[p] = box_class[int(box_assign[p])]
            out_inst[p] = box_assign[p]
        elif bg >= t_reliable:
            out_sem[p] = 0
            out_inst[p] = 0
    return out_sem, out_inst


def miou_trace(pred: np.ndarray, gt: np.ndarray, n_cls: int) -> tuple[dict[int, float], float]:
    """Confusion counting with explicit loops."""
    per_class: dict[int, float] = {}
    for c in range(1, n_cls + 1):
        tp = fp = fn = 0
        for p, g in zip(pred.tolist(), gt.tolist()):
            if g == -1:
                continue
            if p == c and g == c:
                tp += 1
            elif p == c and g != c:
                fp += 1
            elif p != c and g == c:
                fn += 1
        if tp + fp + fn > 0:
            per_class[c] = tp / (tp + fp + fn)
    mean = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return per_class, mean


def ap_trace(preds: list, gts: list, threshold: float) -> float:
    """AP for one class at one threshold: explicit greedy matching followed by
    a literal 101-point interpolation over prefix precision/recall pairs.

    ``preds`` are (frame_id, indices, score) already sorted by score rule;
    ``gts`` are (frame_id, indices).
    """
    n_gt = len(gts)
    if n_gt == 0:
        return 0.0
    matched = [False] * n_gt
    hits = []
    for frame_id, indices, _score in preds:
        best = -1
        best_iou = 0.0
        for gi, (g_frame, g_idx) in enumerate(gts):
            if matched[gi] or g_frame != frame_id:
                continue
            a, b = set(indices), set(g_idx)
            union = len(a | b)
            iou = len(a & b) / union if union else 0.0
            if iou > best_iou:
                best_iou = iou
                best = gi
        if best >= 0 and best_iou >= threshold:
            matched[best] = True
            hits.append(True)
        else:
            hits.append(False)
    points = []
    tp = 0
    for k, hit in enumerate(hits, start=1):
        tp += 1 if hit else 0
        points.append((tp / n_gt, tp / k))
    total = 0.0
    for grid in np.linspace(0.0, 1.0, 101):
        best_p = 0.0
        for rec, prec in points:
            if rec >= grid and prec > best_p:
                best_p = prec
        total += best_p
    return total / 101.0


def fusion_weights_direct(scores, ious, k) -> np.ndarray:
    """Plain-float evaluation of the score/overlap weighting formula."""
    raw = [s * math.exp(k * i) for s, i in zip(scores, ious)]
    total = sum(raw)
    if total <= 0:
        return np.full(len(raw), 1.0 / len(raw))
    return np.array([w / total for w in raw])


def back_project(calib, pixels: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Invert the pinhole projection: (u, v, camera depth) back to LiDAR xyz,
    read straight off the intrinsic and extrinsic matrices."""
    k, ext = calib.intrinsic, calib.extrinsic
    x = (pixels[:, 0] - k[0, 2]) / k[0, 0] * depth
    y = (pixels[:, 1] - k[1, 2]) / k[1, 1] * depth
    cam = np.stack([x, y, depth], axis=1)
    return (cam - ext[:3, 3]) @ ext[:3, :3]


def project_points_full(calib, frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-array pinhole projection, one point at a time: every point's pixel
    (NaN behind the camera), its camera depth, and whether it is valid (in
    front of the camera, pixel inside the image).

    Camera coordinates are summed as ``((x*r[i,0] + y*r[i,1]) + z*r[i,2]) +
    t[i]``, the package's column order, in plain floats, so these pixels
    equal the package's bit for bit and a point on a box edge stays on it.
    """
    r = calib.extrinsic[:3, :3].tolist()
    t = calib.extrinsic[:3, 3].tolist()
    k = calib.intrinsic
    fx, fy, cx, cy = float(k[0, 0]), float(k[1, 1]), float(k[0, 2]), float(k[1, 2])
    w, h = calib.image_size
    n = frame.points.shape[0]
    pixels = np.full((n, 2), np.nan)
    depth = np.zeros(n)
    valid = np.zeros(n, dtype=bool)
    for i, (x, y, z) in enumerate(frame.points[:, :3].tolist()):
        cam = [x * r[a][0] + y * r[a][1] + z * r[a][2] + t[a] for a in range(3)]
        depth[i] = cam[2]
        if cam[2] > 0:
            u = fx * cam[0] / cam[2] + cx
            v = fy * cam[1] / cam[2] + cy
            pixels[i] = u, v
            valid[i] = 0 <= u < w and 0 <= v < h
    return pixels, depth, valid


def crop_frustum_trace(pixels: np.ndarray, valid: np.ndarray, boxes) -> np.ndarray:
    """Each point's box by enumeration: among the boxes whose half-open bounds
    hold its valid pixel, the smallest area, then the smallest id; 0 if none."""
    out = np.zeros(len(valid), dtype=np.int32)
    for p in np.flatnonzero(valid):
        u, v = pixels[p]
        containing = [
            b for b in boxes if b.bounds[0] <= u < b.bounds[2] and b.bounds[1] <= v < b.bounds[3]
        ]
        if containing:
            out[p] = min(containing, key=lambda b: (b.area, b.box_id)).box_id
    return out


RAY_T_MIN = 0.3  # synth's nearest admissible hit distance


def ray_directions_grid(beams: int, columns: int, fov_up_deg: float, fov_down_deg: float):
    """Unit ray directions, (beams * columns, 3), beam-major, from a full
    (elevation, azimuth) meshgrid: column k looks along -pi + (k + 0.5) * 2pi /
    columns."""
    elev = np.radians(np.linspace(fov_up_deg, fov_down_deg, beams))
    azim = -np.pi + (np.arange(columns) + 0.5) * (2.0 * np.pi / columns)
    ee, aa = np.meshgrid(elev, azim, indexing="ij")
    return np.stack(
        [np.cos(ee) * np.cos(aa), np.cos(ee) * np.sin(aa), np.sin(ee)], axis=-1
    ).reshape(-1, 3)


def cuboid_hits_full(box, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Slab test of a yawed box over every ray at once, reduced over (N, 3)
    arrays; inf on a miss."""
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    o = rot @ (origin - box.center)
    d = dirs @ rot.T
    d = np.where(np.abs(d) < 1e-12, 1e-12, d)
    half = box.size / 2.0
    t1 = (-half - o) / d
    t2 = (half - o) / d
    enter = np.minimum(t1, t2).max(axis=1)
    exit_ = np.maximum(t1, t2).min(axis=1)
    hit = (exit_ >= enter) & (enter > RAY_T_MIN)
    return np.where(hit, enter, np.inf)


def cylinder_hits_full(cyl, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Nearest admissible hit of a capped vertical cylinder on the ground, over
    every ray: the side's two roots, then the top cap; inf on a miss."""
    ox, oy, oz = origin - np.array([cyl.center_xy[0], cyl.center_xy[1], 0.0])
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - cyl.radius * cyl.radius
    disc = b * b - 4.0 * a * c
    best = np.full(dirs.shape[0], np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    for sign in (-1.0, 1.0):
        t = np.where(ok, (-b + sign * sq) / (2.0 * np.where(ok, a, 1.0)), np.inf)
        # A miss's inf times dz = 0 (a beam at 0 deg) is NaN, which fails
        # every comparison below, as a miss should.
        with np.errstate(invalid="ignore"):
            z = oz + t * dz
        good = ok & (t > RAY_T_MIN) & (z >= 0.0) & (z <= cyl.height)
        best = np.where(good & (t < best), t, best)
    dz_safe = np.where(np.abs(dz) < 1e-12, 1e-12, dz)
    t_cap = (cyl.height - oz) / dz_safe
    x = ox + t_cap * dx
    y = oy + t_cap * dy
    good = (t_cap > RAY_T_MIN) & (x * x + y * y <= cyl.radius * cyl.radius)
    return np.where(good & (t_cap < best), t_cap, best)


def cast_full(objects, origin: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit of every ray from a full (objects + ground) x rays table of
    distances and its argmin: every object over every ray, and the first of
    tied hits wins, objects before the ground. Returns each ray's winner
    (``len(objects)`` for the ground) and distance, inf where nothing is hit."""
    t_all = np.full((len(objects) + 1, dirs.shape[0]), np.inf)
    for oi, obj in enumerate(objects):
        hits = cuboid_hits_full if hasattr(obj, "yaw") else cylinder_hits_full
        t_all[oi] = hits(obj, origin, dirs)
    dz = dirs[:, 2]
    t_ground = np.where(dz < -1e-12, -origin[2] / np.where(dz < -1e-12, dz, -1.0), np.inf)
    t_all[-1] = np.where(t_ground > RAY_T_MIN, t_ground, np.inf)
    winner = np.argmin(t_all, axis=0)
    return winner, t_all[winner, np.arange(dirs.shape[0])]


def fabricate_votes_full(gt_semantic, n_cls: int, sigma: float, seed: int, epoch: int = 0):
    """Teacher votes from the full class-score matrix: clamp(one-hot +
    N(0, sigma)) with the noise drawn as one (N, n_cls) array per (seed,
    epoch), then each point's best class score (0 with no classes)."""
    gt_semantic = np.asarray(gt_semantic)
    n = gt_semantic.shape[0]
    onehot = np.zeros((n, n_cls))
    for i in range(n):
        if 1 <= gt_semantic[i] <= n_cls:
            onehot[i, gt_semantic[i] - 1] = 1.0
    scores = onehot
    if sigma > 0:
        rng = np.random.default_rng([seed, epoch])
        scores = np.clip(onehot + rng.normal(0.0, sigma, onehot.shape), 0.0, 1.0)
    return np.array([max(row, default=0.0) for row in scores.tolist()])
