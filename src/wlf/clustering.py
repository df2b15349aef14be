"""Radius-graph connected components over 3D points.

Two points are connected iff ``(dx**2 + dy**2) + dz**2 <= r*r`` in float64;
clusters are the transitive closure. ``ccl_cluster`` can cluster several
groups of points at once, each at its own radius, and never joins two groups.

Neighbour search uses cells of edge r/2 (the grid argument of Gan & Tao,
"DBSCAN Revisited", SIGMOD 2015), so any pair within r lies in cells at most
two apart per axis. A cell whose own bounding box passes the test is a
clique, which at edge r/2 is every cell. A pair of neighbouring cells is
decided from the two boxes when it can be: skipped when the gap between them
fails the test, linked when their union box passes. Float subtraction,
squaring and addition are monotone, so these box decisions agree with the
point test bit for bit. Only the remaining pairs whose cells the sure links
leave apart are tested point by point. The result equals the all-pairs
definition while coordinates stay within 2**33 radii of the origin.

``connected_components`` merges the edges by hooking and pointer jumping.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
            if not 0 < r < math.inf:  # also rejects NaN
                raise ValueError(f"radius for class {cls} must be finite and positive")

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


# Neighbour columns (dx, dy) >= (0, 0) of a cell's half space.
_COLUMNS = np.array(
    [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3) if (dx, dy) >= (0, 0)]
)


def _expand(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, i) for every i < sizes[k], in order."""
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    return owner, np.arange(owner.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _member_pairs(
    starts: np.ndarray, counts: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted positions of each member of cell v[k] and each member of cell
    w[k], for every k, and the k of each pair."""
    pair, i = _expand(counts[v])
    row, j = _expand(counts[w][pair])
    pair = pair[row]
    return starts[v[pair]] + i[row], starts[w[pair]] + j, pair


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


def _squeeze(keys: np.ndarray) -> np.ndarray:
    """Integer keys with every gap of three or more narrowed to three and the
    smallest key at 2: gaps of one and two cells are kept, so neighbours within
    two cells stay neighbours and no farther key aliases one."""
    u, inv = np.unique(keys, return_inverse=True)
    return np.cumsum(np.minimum(np.diff(u, prepend=u[0] - 2), 3))[inv]


def _within(ext: Sequence[np.ndarray], rr: np.ndarray) -> np.ndarray:
    """The point test ``(dx**2 + dy**2) + dz**2 <= r*r`` on per-axis arrays."""
    dx, dy, dz = ext
    return (dx * dx + dy * dy) + dz * dz <= rr


def _cell_codes(pts: np.ndarray, r: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each point's cell code and the code's (x, y, z) extents.

    Cells are a hair over r/2 on a side, so that rounding in pts / edge never
    puts a pair within r three cells apart. The group leads the x key, with a
    narrowed gap of three between groups, so groups never neighbour.
    """
    keys = np.floor(pts / (r * (0.5 + 2.0**-20))[g][:, None]).astype(np.int64)
    kx, ky, kz = (_squeeze(keys[:, axis]) for axis in range(3))
    if r.size > 1:
        kx = _squeeze(g * (int(kx.max()) + 3) + kx)
    dims = [int(k.max()) + 3 for k in (kx, ky, kz)]
    if dims[0] * dims[1] * dims[2] >= 2**63:
        raise ValueError("too many cells to key in int64")
    return (kx * dims[1] + ky) * dims[2] + kz, dims


def _neighbour_cells(cells: np.ndarray, dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (v, w), v < w, of the sorted cell codes ``cells`` at most two
    cells apart per axis.

    A neighbour column's cells within two in z, or the next two in v's own
    column, are one run of codes, found with two searches per column.
    """
    base = cells[:, None] + _COLUMNS @ np.array([dims[1] * dims[2], dims[2]])
    begin = np.searchsorted(cells, base + np.where(_COLUMNS.any(axis=1), -2, 1))
    run, k = _expand((np.searchsorted(cells, base + 2, "right") - begin).ravel())
    return run // _COLUMNS.shape[0], begin.ravel()[run] + k


def ccl_cluster(
    points: np.ndarray, radius: float | np.ndarray, groups: np.ndarray | None = None
) -> Components:
    """Cluster points into radius-connected components.

    With ``groups``, point i belongs to group ``groups[i]`` and is clustered at
    ``radius[groups[i]]``; points of different groups never connect. Ids are
    dense in first-occurrence order over all points.
    """
    r = np.asarray(radius, dtype=np.float64).reshape(-1)
    if r.size == 0 or not np.all((r > 0) & np.isfinite(r)):
        raise ValueError("radius must be finite and positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    g = np.zeros(n, dtype=np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    if g.shape != (n,) or (n and (g.min() < 0 or g.max() >= r.size)):
        raise ValueError("groups must give each point an index into radius")
    if n == 0:
        return Components(labels=np.zeros(0, dtype=np.int32), sizes=np.zeros(0, dtype=np.int64))
    codes, dims = _cell_codes(pts, r, g)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.diff(sorted_codes, prepend=-1))
    cells = sorted_codes[starts]
    counts = np.diff(starts, append=n)
    xyz = pts[order].T.copy()  # one array per axis gathers faster
    lo = np.minimum.reduceat(xyz, starts, axis=1)
    hi = np.maximum.reduceat(xyz, starts, axis=1)
    cell_rr = (r * r)[g[order[starts]]]
    # A clique cell: its own box passes the point test, so every member pair
    # does (float subtraction, squaring and addition are monotone). At edge
    # r/2 that is every cell but for rounding.
    clique = _within(hi - lo, cell_rr)

    # Nodes: one per clique cell, one per point of any other cell, numbered by
    # their first point so that node ids keep first-occurrence order.
    cell_of = np.repeat(np.arange(cells.shape[0]), counts)  # per sorted point
    first = np.where(clique[cell_of], order[starts][cell_of], order)
    _, node = np.unique(first, return_inverse=True)
    num_nodes = int(node.max()) + 1
    head = node[starts]  # a clique cell's node

    v, w = _neighbour_cells(cells, dims)
    # Skip a pair whose box gap fails the test, link it when its union box passes.
    gap, union = [], []
    for a, b in zip(lo, hi):
        av, aw, bv, bw = a[v], a[w], b[v], b[w]
        gap.append(np.maximum(np.maximum(aw - bv, av - bw), 0.0))
        union.append(np.maximum(bv, bw) - np.minimum(av, aw))
    near, sure = _within(gap, cell_rr[v]), _within(union, cell_rr[v])
    sure_a, sure_b = head[v[sure]], head[w[sure]]
    # Point-test the other near pairs whose cells the sure links left apart,
    # and the member pairs of every cell that is not a clique.
    v, w = v[near & ~sure], w[near & ~sure]
    comp = connected_components(num_nodes, sure_a, sure_b)
    apart = ~(clique[v] & clique[w]) | (comp[head[v]] != comp[head[w]])
    own = np.flatnonzero(~clique)
    v = np.concatenate([own, v[apart]])
    w = np.concatenate([own, w[apart]])
    ia, ib, pair = _member_pairs(starts, counts, v, w)
    if own.size:  # a cell's own pairs once each
        once = (pair >= own.shape[0]) | (ia < ib)
        ia, ib, pair = ia[once], ib[once], pair[once]
    hits = _within([c[ia] - c[ib] for c in xyz], cell_rr[v][pair])
    ids = connected_components(
        num_nodes,
        np.concatenate([sure_a, node[ia[hits]]]),
        np.concatenate([sure_b, node[ib[hits]]]),
    )
    labels = np.empty(n, dtype=np.int32)
    labels[order] = ids[node]
    sizes = np.bincount(labels).astype(np.int64)
    return Components(labels=labels, sizes=sizes)


def max_component(labels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Indices of the largest component, given each point's component id.

    Size ties go to the component with the smaller mean range to the sensor,
    then the smaller component id.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptySelectionError("no points to select a component from")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    sizes = np.bincount(labels)
    tied = np.flatnonzero(sizes == sizes.max())
    if tied.shape[0] > 1:
        ranges = np.linalg.norm(pts, axis=1)
        means = [float(ranges[labels == c].mean()) for c in tied]
        tied = tied[np.lexsort((tied, np.asarray(means)))]
    return np.flatnonzero(labels == tied[0])
