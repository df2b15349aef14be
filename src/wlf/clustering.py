"""Radius-graph connected components over 3D points.

Two points are connected iff their Euclidean distance is <= radius; clusters
are the transitive closure. Neighbour search uses a uniform voxel grid with
edge length equal to the radius, so only point pairs in the same or adjacent
voxels are tested, which matches the naive all-pairs definition exactly.
``connected_components`` merges the edges by hooking and pointer jumping; it
is also the merge behind the ring segments of ``range_image.dcs_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClassRadii",
    "Components",
    "EmptySelectionError",
    "ccl_cluster",
    "connected_components",
    "max_component",
]


class EmptySelectionError(ValueError):
    """Raised when a largest component is requested from an empty point set."""


@dataclass
class ClassRadii:
    """Per-class clustering radius in metres."""

    radii: dict[int, float] = field(
        default_factory=lambda: {1: 0.6, 2: 0.1, 3: 0.15}
    )

    def __post_init__(self) -> None:
        for cls, r in self.radii.items():
            if r <= 0:
                raise ValueError(f"radius for class {cls} must be positive")

    def for_class(self, class_id: int) -> float:
        try:
            return self.radii[class_id]
        except KeyError:
            raise KeyError(f"no clustering radius for class {class_id}") from None


@dataclass
class Components:
    """Dense per-point component ids (first-occurrence order) and sizes."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num(self) -> int:
        return self.sizes.shape[0]


# The same voxel and its half-space neighbours: with cell edge == radius, any
# pair within the radius lies in the same or an adjacent voxel, and each
# unordered voxel pair is visited once.
_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) >= (0, 0, 0)
]


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component id of each of ``n`` nodes joined by the edges ``a[k]``-``b[k]``.

    Hooking plus pointer jumping (Shiloach & Vishkin, J. Algorithms 1982):
    each round hooks the larger root of every edge onto the smaller, then
    jumps pointers until every node points at its root. Every root ends as
    its component's smallest node, so ids are dense in first-occurrence order.
    """
    parent = np.arange(n)
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    while True:
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.any():
            break
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:  # parents never exceed their node, so jumping converges
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
    return (np.cumsum(parent == np.arange(n)) - 1)[parent]  # rank of each root


def ccl_cluster(points: np.ndarray, radius: float) -> Components:
    """Cluster points into radius-connected components."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    if n == 0:
        return Components(labels=np.zeros(0, dtype=np.int32), sizes=np.zeros(0, dtype=np.int64))
    # Voxel coordinates with every gap of two or more cells narrowed to two and
    # one cell of padding each side: adjacency is kept, a neighbour's code never
    # aliases another voxel's, and codes fit int64 up to a million points.
    keys = np.floor(pts / radius).astype(np.int64)
    for axis in range(3):
        u, inv = np.unique(keys[:, axis], return_inverse=True)
        keys[:, axis] = np.cumsum(np.minimum(np.diff(u, prepend=u[0] - 1), 2))[inv]
    dims = keys.max(axis=0) + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    codes = keys @ strides
    order = np.argsort(codes, kind="stable")
    voxels, starts, counts = np.unique(codes[order], return_index=True, return_counts=True)
    xyz = np.ascontiguousarray(pts[order].T)  # one gather per coordinate is faster
    left = [np.zeros(0, dtype=np.intp)]
    right = [np.zeros(0, dtype=np.intp)]
    for off in np.array(_OFFSETS) @ strides:
        # Each member of voxel v[k] against each member of voxel w[k] = v[k] + off,
        # by sorted position.
        w = np.minimum(np.searchsorted(voxels, voxels + off), voxels.shape[0] - 1)
        v = np.flatnonzero(voxels[w] == voxels + off)
        w = w[v]
        sizes = counts[v] * counts[w]
        pair = np.repeat(np.arange(v.shape[0]), sizes)
        k = np.arange(pair.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        ia, ib = np.divmod(k, counts[w][pair])
        ia += starts[v][pair]
        ib += starts[w][pair]
        if off == 0:  # same voxel: each unordered pair once
            once = ia < ib
            ia, ib = ia[once], ib[once]
        hits = sum((c[ia] - c[ib]) ** 2 for c in xyz) <= radius * radius
        left.append(order[ia[hits]])
        right.append(order[ib[hits]])
    labels = connected_components(n, np.concatenate(left), np.concatenate(right)).astype(np.int32)
    sizes = np.bincount(labels).astype(np.int64)
    return Components(labels=labels, sizes=sizes)


def max_component(comps: Components, points: np.ndarray) -> np.ndarray:
    """Indices of the largest component.

    Size ties go to the component with the smaller mean range to the sensor,
    then the smaller component id.
    """
    if comps.num == 0:
        raise EmptySelectionError("no points to select a component from")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    best = int(comps.sizes.max())
    tied = np.flatnonzero(comps.sizes == best)
    if tied.shape[0] > 1:
        ranges = np.linalg.norm(pts, axis=1)
        means = [float(ranges[comps.labels == c].mean()) for c in tied]
        tied = tied[np.lexsort((tied, np.asarray(means)))]
    winner = int(tied[0])
    return np.flatnonzero(comps.labels == winner)
