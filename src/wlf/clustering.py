"""Radius-graph connected components over 3D points.

Two points are connected iff ``(dx**2 + dy**2) + dz**2 <= r*r`` in float64;
clusters are the transitive closure. ``ccl_cluster`` can cluster several
groups of points in one call, each at its radius, and never joins two groups.
The radii are plain numbers (spg looks each box's up in the class id to
metres dict ``PipelineConfig.radii``); the result is each point's component
id and the number of components.

Neighbour search uses cells of edge r/2 (the grid argument of Gan & Tao,
"DBSCAN Revisited", SIGMOD 2015), so any pair within r lies in cells at most
two apart per axis, and any two points of one cell are within r: its box's
diagonal is about 0.87 r. Each cell is therefore one graph node. A pair of
neighbouring cells is decided from the two boxes when it can be: skipped
when the gap between them fails the test, linked when their union box
passes. Float subtraction, squaring and addition are monotone, so these box
decisions agree with the point test bit for bit. The cell pairs are
searched and box-tested in blocks of ``_CELL_BLOCK`` query cells, and a
block keeps only its sure links and its other near pairs, so the search's
scratch stays small however many neighbouring cells a call has. Both box
tests build one sum of squares each, axis by axis and in place, in the
point test's order. Only the remaining pairs whose cells the sure links
leave apart are tested point by point, in blocks of whole cell pairs of
about ``_BLOCK`` member pairs each; a cell pair adds one edge at its first
member pair that hits.
The result equals the all-pairs definition while coordinates stay within
2**33 radii of the origin: there, rounding in the cell keys moves a point by
at most 2**-19 cells, so a cell's points stay within r of each other.
``ccl_cluster`` refuses points farther out with a ValueError.

``connected_components`` merges the edges by hooking and pointer jumping.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Components",
    "ccl_cluster",
    "connected_components",
    "max_component",
]


@dataclass
class Components:
    """Dense per-point component ids, in first-occurrence order, and their count."""

    labels: np.ndarray
    num: int


# About this many member pairs are point-tested together, in blocks of whole
# cell pairs, so the test's scratch arrays stay small however many candidate
# pairs a call has.
_BLOCK = 2**14

# Neighbour columns (dx, dy) >= (0, 0) of a cell's half space.
_COLUMNS = np.array(
    [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3) if (dx, dy) >= (0, 0)]
)

# Cell pairs are searched and box-tested for this many query cells at a time,
# one search per neighbour column each, so their scratch stays about as small
# as the point test's.
_CELL_BLOCK = _BLOCK // _COLUMNS.shape[0]


def _expand(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, i) for every i < sizes[k], in order."""
    owner = np.repeat(np.arange(sizes.shape[0]), sizes)
    return owner, np.arange(owner.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end, and a lone array itself rather than a copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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


def _neighbour_cells(
    cells: np.ndarray, dims: list[int], first: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (v, w), v < w and first <= v < stop, of the sorted cell codes
    ``cells`` at most two cells apart per axis.

    A neighbour column's cells within two in z, or the next two in v's
    column, are one run of codes, found with two searches per column. The
    queries are laid out one row per column, so each row searched is sorted.
    """
    query = cells[first:stop]
    base = (_COLUMNS @ np.array([dims[1] * dims[2], dims[2]]))[:, None] + query
    begin = np.searchsorted(cells, base + np.where(_COLUMNS.any(axis=1), -2, 1)[:, None])
    run, k = _expand((np.searchsorted(cells, base + 2, "right") - begin).ravel())
    return first + run % query.shape[0], begin.ravel()[run] + k


def _box_tests(
    lo: np.ndarray, hi: np.ndarray, v: np.ndarray, w: np.ndarray, rr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether the gap between the boxes of cells v[k] and w[k] passes the
    point test, and whether their union box does.

    Each sum of squares is built axis by axis in place, in the test's order
    ``(dx*dx + dy*dy) + dz*dz``: an axis's gathers turn into its gap and
    union extents where they lie, and none outlives its axis.
    """
    gap_ss = union_ss = None
    for a, b in zip(lo, hi):
        av, aw, bv, bw = a[v], a[w], b[v], b[w]
        union = np.minimum(av, aw)
        aw -= bv
        av -= bw
        gap = np.maximum(aw, av, out=aw)  # max(aw - bv, av - bw)
        np.maximum(gap, 0.0, out=gap)
        np.subtract(np.maximum(bv, bw, out=bv), union, out=union)  # max(bv, bw) - min(av, aw)
        gap *= gap
        union *= union
        if gap_ss is None:
            gap_ss, union_ss = gap, union
        else:
            gap_ss += gap
            union_ss += union
        del av, aw, bv, bw, gap, union  # before the next axis's gathers
    return gap_ss <= rr, union_ss <= rr


def ccl_cluster(
    points: np.ndarray, radius: float | np.ndarray, groups: np.ndarray | None = None
) -> Components:
    """Cluster (N, 3) points of any float dtype, widened to float64, into
    radius-connected components, one graph node per occupied cell.

    With ``groups``, point i belongs to group ``groups[i]`` and is clustered at
    ``radius[groups[i]]``; points of different groups never connect. Ids are
    dense in first-occurrence order over all points. ValueError if a
    coordinate's magnitude exceeds 2**33 times its group's radius, or is NaN:
    past that bound, rounding can put points more than a radius apart in one
    cell.
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
        return Components(labels=np.zeros(0, dtype=np.int32), num=0)
    limit = (2.0**33 * r)[g]
    for c in pts.T:  # an axis at a time, so the test's scratch is (N,) arrays
        if not np.all(np.abs(c) <= limit):  # also refuses NaN
            raise ValueError("points must lie within 2**33 radii of the origin to be clustered")
    del limit
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
    # A cell's points are all within r of each other, so it is one node,
    # numbered by its first point so that node ids keep first-occurrence order.
    node = np.empty(cells.shape[0], dtype=np.intp)
    node[np.argsort(order[starts])] = np.arange(cells.shape[0])

    # Skip a pair whose box gap fails the test, link it when its union box
    # passes. A block of query cells at a time keeps only its sure links and
    # its other near pairs.
    sure_a, sure_b, near_v, near_w = [], [], [], []
    for first in range(0, cells.shape[0], _CELL_BLOCK):
        v, w = _neighbour_cells(cells, dims, first, first + _CELL_BLOCK)
        near, sure = _box_tests(lo, hi, v, w, cell_rr[v])
        sure_a.append(node[v[sure]])
        sure_b.append(node[w[sure]])
        near &= ~sure
        near_v.append(v[near])
        near_w.append(w[near])
        del v, w, near, sure  # before the next block's search
    sure_a, sure_b = _joined(sure_a), _joined(sure_b)
    # Point-test the other near pairs whose cells the sure links left apart.
    v, w = _joined(near_v), _joined(near_w)
    del near_v, near_w
    comp = connected_components(cells.shape[0], sure_a, sure_b)
    apart = comp[node[v]] != comp[node[w]]
    v, w = v[apart], w[apart]
    ends = np.cumsum(counts[v] * counts[w])
    edges_a, edges_b = [sure_a], [sure_b]
    lo_k = 0
    while lo_k < v.shape[0]:
        done = ends[lo_k - 1] if lo_k else 0
        hi_k = max(int(np.searchsorted(ends, done + _BLOCK, "right")), lo_k + 1)
        bv, bw = v[lo_k:hi_k], w[lo_k:hi_k]
        ia, ib, pair = _member_pairs(starts, counts, bv, bw)
        pair = pair[_within([c[ia] - c[ib] for c in xyz], cell_rr[bv[pair]])]
        pair = pair[np.diff(pair, prepend=-1) != 0]  # one edge per linked cell pair
        edges_a.append(node[bv[pair]])
        edges_b.append(node[bw[pair]])
        lo_k = hi_k
    ids = connected_components(cells.shape[0], np.concatenate(edges_a), np.concatenate(edges_b))
    labels = np.empty(n, dtype=np.int32)
    labels[order] = np.repeat(ids[node], counts)
    return Components(labels=labels, num=int(ids.max()) + 1)


def max_component(labels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Indices of the largest component, given each point's component id.

    Size ties go to the component with the smaller summed range to the
    sensor (tied components have equal counts, so that is the smaller mean),
    then the smaller component id. The sum is ``math.fsum``'s correctly
    rounded one, so the choice does not depend on the order of the points.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("no points to select a component from")
    sizes = np.bincount(labels)
    tied = np.flatnonzero(sizes == sizes.max())
    if tied.shape[0] > 1:  # only the tied components' points are widened
        in_tie = np.isin(labels, tied)
        pts = np.asarray(points).reshape(-1, 3)[in_tie]
        ranges = np.linalg.norm(pts.astype(np.float64), axis=1)
        sums = [math.fsum(ranges[labels[in_tie] == c]) for c in tied]
        tied = tied[np.lexsort((tied, np.asarray(sums)))]
    return np.flatnonzero(labels == tied[0])
