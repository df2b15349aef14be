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
diagonal is about 0.87 r. Each cell is therefore one graph node. A cell's
code is its group and its raw floor keys, each shifted to start at 2, in
one int64; a call sorts the codes once, and their order is the
lexicographic (group, x, y, z) order of the cells. Only keys whose code
would not fit in int64, such as points 10**7 radii apart, are squeezed
first (``_squeeze``), in the same order. A pair of
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
member pair that hits. Those links join the components of the sure links
rather than cells, so merging them is a second union over a contracted
graph, and no sure link is merged twice. The point test takes two rounds
over that graph: the first tests one cell pair for each pair of
components, and the second only the other cell pairs whose components the
first round's links leave apart. A pair the second round skips could only
join components already joined, so the partition, and with it the
first-occurrence ids, is that of testing every pair. Where two components
have many near cell pairs, as the parts of a large object do, one hit
settles them all.
The result equals the all-pairs definition while coordinates stay within
2**33 radii of the origin: there, rounding in the cell keys moves a point by
at most 2**-19 cells, so a cell's points stay within r of each other.
``ccl_cluster`` refuses points farther out with a ValueError.

``connected_components`` merges the edges by hooking and pointer jumping;
the jumps take turns between two node arrays, in place, and a round keeps
only the edges it has not yet joined, copying none while all are live.
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
_BLOCK = 2**13

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
    """The arrays end to end, a lone array itself rather than a copy, and an
    empty index array for none."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def _member_pairs(
    starts: np.ndarray, counts: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted positions of each member of cell v[k] and each member of cell
    w[k], for every k, and the k of each pair."""
    pair, i = _expand(counts[v])
    row, j = _expand(counts[w][pair])
    pair = pair[row]
    return starts[v[pair]] + i[row], starts[w[pair]] + j, pair


def _linked(
    xyz: np.ndarray, starts: np.ndarray, counts: np.ndarray, rr: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """The k, in order, of every cell pair (v[k], w[k]) with a member pair
    that passes the point test at its cells' ``rr``, tested in blocks of whole
    cell pairs of about ``_BLOCK`` member pairs each."""
    ends = np.cumsum(counts[v] * counts[w])
    hits = []
    lo_k = 0
    while lo_k < v.shape[0]:
        done = ends[lo_k - 1] if lo_k else 0
        hi_k = max(int(np.searchsorted(ends, done + _BLOCK, "right")), lo_k + 1)
        bv, bw = v[lo_k:hi_k], w[lo_k:hi_k]
        ia, ib, pair = _member_pairs(starts, counts, bv, bw)
        pair = pair[_within([c[ia] - c[ib] for c in xyz], rr[bv[pair]])]
        hits.append(lo_k + pair[np.diff(pair, prepend=-1) != 0])  # once per cell pair
        lo_k = hi_k
    return _joined(hits)


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component id of each of ``n`` nodes joined by the edges ``a[k]``-``b[k]``.

    Hooking plus pointer jumping (Shiloach & Vishkin, J. Algorithms 1982):
    each round hooks the larger root of every edge onto the smaller, then
    jumps pointers until every node points at its root. Every root ends as
    its component's smallest node, so ids are dense in first-occurrence order.
    A round keeps only the edges whose ends it has not joined yet, and the
    jumps take turns between two n-arrays.
    """
    parent = np.arange(n)
    jumped = np.empty_like(parent)
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    while True:
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.all():
            a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        del live
        if not a.size:
            break
        high = np.maximum(ra, rb)
        low = np.minimum(ra, rb, out=ra)
        del ra, rb
        np.minimum.at(parent, high, low)
        del high, low
        while True:  # parents never exceed their node, so jumping converges
            np.take(parent, parent, out=jumped, mode="clip")  # 'clip' writes unbuffered
            if np.array_equal(jumped, parent):
                break
            parent, jumped = jumped, parent
    np.cumsum(parent == np.arange(n), out=jumped)
    jumped -= 1
    return jumped[parent]  # rank of each root


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
    puts a pair within r three cells apart. Each group's keys on each axis
    are shifted to start at 2, and the group leads the x key, each group's
    keys after the previous group's with a gap of three, so groups never
    neighbour. Keys too wide to code in int64 are squeezed instead.
    """
    edge = r * (0.5 + 2.0**-20)
    edge = edge[0] if r.size == 1 else edge[g]  # one group needs no per-point edge
    keys = []
    for c in pts.T:  # an axis at a time, so the key's scratch is (N,) arrays
        k = np.floor(c / edge).astype(np.int64)
        if r.size == 1:
            k -= int(k.min()) - 2
        else:  # far out, groups of other radii have far other keys
            low = np.full(r.size, np.iinfo(np.int64).max)
            np.minimum.at(low, g, k)
            low -= 2
            k -= low[g]
        keys.append(k)
    del edge
    top = [int(k.max()) for k in keys]
    stride = top[0] + 1  # group j's x keys run from j * stride + 2
    dims = [int(g.max()) * stride + top[0] + 3, top[1] + 3, top[2] + 3]
    if dims[0] * dims[1] * dims[2] >= 2**63:
        keys = [_squeeze(k) for k in keys]
        if r.size > 1:
            keys[0] = _squeeze(g * (int(keys[0].max()) + 3) + keys[0])
        dims = [int(k.max()) + 3 for k in keys]
        if dims[0] * dims[1] * dims[2] >= 2**63:
            raise ValueError("too many cells to key in int64")
    elif r.size > 1:
        keys[0] += g * stride
    kx, ky, kz = keys
    del keys
    kx *= dims[1]
    kx += ky
    del ky
    kx *= dims[2]
    kx += kz
    return kx, dims


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
    """Cluster (N, 3) points of any float dtype, compared in float64, into
    radius-connected components, one graph node per occupied cell.

    Cell pairs that the box tests leave undecided are point-tested in two
    rounds, one cell pair per pair of sure-link components first, then the
    pairs whose components are still apart; the ids depend only on the
    partition, so they are those of testing every pair.

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
    pts = np.asarray(points)
    if pts.dtype not in (np.float32, np.float64):  # both widen to float64 exactly
        pts = pts.astype(np.float64)
    pts = pts.reshape(-1, 3)
    n = pts.shape[0]
    g = np.zeros(n, dtype=np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    if g.shape != (n,) or (n and (g.min() < 0 or g.max() >= r.size)):
        raise ValueError("groups must give each point an index into radius")
    if n == 0:
        return Components(labels=np.zeros(0, dtype=np.int32), num=0)
    limit = 2.0**33 * r
    limit = limit[0] if r.size == 1 else limit[g]
    for c in pts.T:  # an axis at a time, so the test's scratch is (N,) arrays
        if not np.all(np.abs(c) <= limit):  # also refuses NaN
            raise ValueError("points must lie within 2**33 radii of the origin to be clustered")
    del limit
    codes, dims = _cell_codes(pts, r, g)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.empty(n, dtype=bool)  # whether a sorted point starts its cell
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    cells = codes[starts]
    del codes
    counts = np.diff(starts, append=n)
    lead = order[starts]  # each cell's first point: the sort is stable
    xyz = pts.T.take(order, axis=1).astype(np.float64, copy=False)  # one row per axis
    del pts
    lo = np.minimum.reduceat(xyz, starts, axis=1)
    hi = np.maximum.reduceat(xyz, starts, axis=1)
    cell_rr = (r * r)[g[lead]]
    del g
    # A cell's points are all within r of each other, so it is one node,
    # numbered by its first point so that node ids keep first-occurrence order.
    first[:] = False
    first[lead] = True
    node = (np.cumsum(first) - 1)[lead]
    del first, lead

    # Skip a pair whose box gap fails the test, link it when its union box
    # passes. A block of query cells at a time keeps only its sure links and
    # its other near pairs.
    sure_a, sure_b, near_v, near_w = [], [], [], []
    for start in range(0, cells.shape[0], _CELL_BLOCK):
        v, w = _neighbour_cells(cells, dims, start, start + _CELL_BLOCK)
        near, sure = _box_tests(lo, hi, v, w, cell_rr[v])
        sure_a.append(node[v[sure]])
        sure_b.append(node[w[sure]])
        near &= ~sure
        near_v.append(v[near])
        near_w.append(w[near])
        del v, w, near, sure  # before the next block's search
    del lo, hi
    # Each cell's component over the sure links. The point-tested links join
    # those components, not cells, so no sure link is merged twice.
    sure_a, sure_b = _joined(sure_a), _joined(sure_b)
    comp = connected_components(cells.shape[0], sure_a, sure_b)[node]
    del sure_a, sure_b, node
    # Point-test the other near pairs whose cells the sure links left apart:
    # first one cell pair per pair of components, then only the cell pairs
    # whose components those hits left apart.
    v, w = _joined(near_v), _joined(near_w)
    del near_v, near_w
    a, b = comp[v], comp[w]
    apart = a != b
    v, w, a, b = v[apart], w[apart], a[apart], b[apart]
    del apart
    num = int(comp.max()) + 1
    _, rep = np.unique(np.minimum(a, b) * num + np.maximum(a, b), return_index=True)
    hit = rep[_linked(xyz, starts, counts, cell_rr, v[rep], w[rep])]
    if rep.shape[0] < v.shape[0]:  # else each pair of components has one cell pair, tested
        joined = connected_components(num, a[hit], b[hit])
        rest = joined[a] != joined[b]
        rest[rep] = False
        rest = np.flatnonzero(rest)
        hit = np.concatenate([hit, rest[_linked(xyz, starts, counts, cell_rr, v[rest], w[rest])]])
    # Components ranked by their smallest sure-link component are ranked by
    # their smallest node, so the contracted ids keep first-occurrence order.
    ids = connected_components(num, a[hit], b[hit])[comp]
    labels = np.empty(n, dtype=np.int32)
    labels[order] = np.repeat(ids, counts)
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
