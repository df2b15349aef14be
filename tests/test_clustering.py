import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_components, edge_list_components

from wlf import clustering
from wlf.clustering import (
    ccl_cluster,
    connected_components,
    max_component,
)


@st.composite
def edge_lists(draw):
    """Random graphs whose edges include self-loops and repeats."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, [], []
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=20))
    return n, [u for u, _ in edges], [v for _, v in edges]


class TestConnectedComponents:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_matches_edge_list_oracle(self, graph):
        n, a, b = graph
        got = connected_components(n, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        assert np.array_equal(got, edge_list_components(n, a, b))

    def test_long_path_with_reversed_edges(self):
        # Edges listed from the far end of the path first.
        n = 10_000
        a = np.arange(n - 1)[::-1]
        got = connected_components(n, a, a + 1)
        assert np.array_equal(got, np.zeros(n, dtype=np.int64))

    def test_no_nodes(self):
        empty = np.zeros(0, dtype=np.int64)
        assert connected_components(0, empty, empty).shape == (0,)

    def test_nodes_without_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        assert np.array_equal(connected_components(7, empty, empty), np.arange(7))


class TestCclCluster:
    def test_close_pair_joined(self):
        comps = ccl_cluster([[0, 0, 0], [0.3, 0, 0]], 0.6)
        assert comps.num == 1

    def test_far_pair_split(self):
        comps = ccl_cluster([[0, 0, 0], [0.7, 0, 0]], 0.6)
        assert comps.num == 2

    def test_chain_connects_transitively(self):
        # a-b and b-c within radius, a-c outside: still one component.
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]])
        comps = ccl_cluster(pts, 0.6)
        assert comps.num == 1
        assert np.array_equal(comps.labels, bfs_components(pts, 0.6))

    def test_boundary_distance_connects(self):
        comps = ccl_cluster([[0, 0, 0], [0.6, 0, 0]], 0.6)
        assert comps.num == 1  # closed ball

    def test_empty_input(self):
        comps = ccl_cluster(np.zeros((0, 3)), 0.5)
        assert comps.num == 0 and comps.labels.size == 0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ccl_cluster([[0, 0, 0]], 0.0)

    def test_sizes_sum_to_count(self, rng):
        pts = rng.uniform(-5, 5, (150, 3))
        comps = ccl_cluster(pts, 0.8)
        sizes = np.bincount(comps.labels)
        assert sizes.sum() == 150
        assert sizes.shape[0] == comps.num and sizes.min() > 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 120), st.floats(0.2, 2.0))
    def test_matches_bfs_oracle(self, seed, n, radius):
        pts = np.random.default_rng(seed).uniform(-4, 4, (n, 3))
        got = ccl_cluster(pts, radius)
        assert np.array_equal(got.labels, bfs_components(pts, radius))

    def test_far_apart_points(self):
        # Gaps of millions of voxels between points still cluster exactly.
        pts = np.array([[0, 0, 0], [1e6, 1e6, 1e6], [1e6 + 0.05, 1e6, 1e6], [3e7, -4e7, 1e3]])
        comps = ccl_cluster(pts, 0.1)
        assert np.array_equal(comps.labels, [0, 1, 1, 2])

    def test_partition_invariant_under_permutation(self, rng):
        pts = rng.uniform(-3, 3, (80, 3))
        base = ccl_cluster(pts, 0.7).labels
        perm = rng.permutation(80)
        shuffled = ccl_cluster(pts[perm], 0.7).labels
        # Same partition: co-membership must agree pairwise.
        same_base = base[perm][:, None] == base[perm][None, :]
        same_perm = shuffled[:, None] == shuffled[None, :]
        assert np.array_equal(same_base, same_perm)

    def test_partition_invariant_under_rigid_transform(self, rng):
        pts = rng.uniform(-3, 3, (60, 3))
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        moved = pts @ rot.T + np.array([5.0, -2.0, 1.0])
        a = ccl_cluster(pts, 0.7).labels
        b = ccl_cluster(moved, 0.7).labels
        assert np.array_equal(a, b)


def per_group_labels(pts, radii, groups, label=lambda p, r: ccl_cluster(p, r).labels):
    """Labels of one ``label(points, radius)`` call per group, renumbered in
    first-occurrence order over all points."""
    local = np.zeros(len(pts), dtype=np.int64)
    for j, r in enumerate(radii):
        mine = groups == j
        local[mine] = label(pts[mine], r)
    _, first, inv = np.unique(groups * (len(pts) + 1) + local, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


@contextmanager
def squeezes():
    """A list that gains an item each time ``ccl_cluster`` squeezes a key
    array, which it does only when the raw cell keys do not fit in int64."""
    calls = []
    squeeze = clustering._squeeze
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_squeeze", lambda keys: calls.append(1) or squeeze(keys))
        yield calls


def cluster_on(key_path, points, radius, groups=None):
    """``ccl_cluster``'s labels of ``points`` on the given key path, which is
    asserted to be the one taken. For "squeezed", two points are appended at
    opposite corners of group 0's bound, 2**33 radii out on every axis, so
    that no int64 code can hold the raw keys; they are isolated, and come
    last, so the given points keep their ids."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    if key_path == "squeezed":
        corner = 2.0**33 * float(np.reshape(radius, -1)[0])
        pts = np.vstack([pts, [[corner] * 3, [-corner] * 3]])
        groups = None if groups is None else np.append(groups, [0, 0])
    with squeezes() as calls:
        labels = ccl_cluster(pts, radius, groups).labels
    assert bool(calls) == (key_path == "squeezed")
    return labels[:n]


class TestGroupedCcl:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.lists(st.floats(0.02, 1.5), min_size=1, max_size=5),
        st.floats(0.05, 3.0),
    )
    def test_equals_separate_calls(self, seed, n, radii, extent):
        # Groups interleave and overlap in space; none may join another.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-extent, extent, (n, 3))
        groups = rng.integers(0, len(radii), n)
        got = ccl_cluster(pts, radii, groups)
        want = per_group_labels(pts, radii, groups)
        assert np.array_equal(got.labels, want)
        assert got.num == np.bincount(want).shape[0]

    def test_scalar_radius_is_one_group(self, rng):
        pts = rng.uniform(-2, 2, (200, 3))
        plain = ccl_cluster(pts, 0.4)
        grouped = ccl_cluster(pts, [0.4], np.zeros(200, dtype=np.int64))
        assert np.array_equal(plain.labels, grouped.labels)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -0.5, 0.0])
    def test_non_finite_or_nonpositive_radius(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            ccl_cluster([[0, 0, 0], [1, 0, 0]], [0.5, radius], [0, 1])
        with pytest.raises(ValueError, match="finite and positive"):
            ccl_cluster(np.zeros((0, 3)), radius)

    @pytest.mark.parametrize("groups", [[0, 2], [-1, 0], [0]])
    def test_groups_must_index_radius(self, groups):
        with pytest.raises(ValueError, match="groups"):
            ccl_cluster([[0, 0, 0], [1, 0, 0]], [0.5, 0.6], groups)


@st.composite
def blocked_clouds(draw, min_groups=1):
    """(points, radii, groups): a cloud a few radii across in ``min_groups``
    to three groups, near the origin or centred up to 2**33 of its smallest
    radii out, the bound within which cells are cliques, where cell keys
    round most."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(1, 120))
    radii = draw(st.lists(st.floats(0.1, 1.5), min_size=min_groups, max_size=3))
    extent = draw(st.floats(0.3, 2.0))
    pts = rng.uniform(-extent, extent, (n, 3))
    if draw(st.booleans()):
        reach = 2.0**33 - 32  # the cloud spans at most 20 radii of 0.1
        centre = draw(st.tuples(*[st.floats(-reach, reach)] * 3))
        pts += np.array(centre) * min(radii)
    return pts, radii, rng.integers(0, len(radii), n)


class TestBlockedCcl:
    """Cell pairs searched and box-tested a few query cells at a time, and
    point-tested a few member pairs at a time, against BFS, on the raw cell
    keys."""

    key_path = "raw"

    @pytest.mark.parametrize("block", [1, 5])
    @settings(max_examples=150, deadline=None)
    @given(blocked_clouds())
    def test_matches_bfs_oracle(self, block, cloud):
        pts, radii, groups = cloud
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_BLOCK", block)
            got = cluster_on(self.key_path, pts, radii, groups)
        assert np.array_equal(got, per_group_labels(pts, radii, groups, bfs_components))

    @pytest.mark.parametrize("cell_block", [1, 7])
    @settings(max_examples=150, deadline=None)
    @given(blocked_clouds(min_groups=2))
    def test_cell_blocks_match_bfs_oracle(self, cell_block, cloud):
        # Most neighbouring cells fall in different blocks of query cells.
        pts, radii, groups = cloud
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_CELL_BLOCK", cell_block)
            got = cluster_on(self.key_path, pts, radii, groups)
        assert np.array_equal(got, per_group_labels(pts, radii, groups, bfs_components))


class TestBlockedCclSqueezed(TestBlockedCcl):
    """The same, on keys squeezed as keys too wide for int64 are."""

    key_path = "squeezed"


class TestCclAdversarial:
    """Cases built on the cell and box boundaries of the grid, against BFS."""

    @pytest.mark.parametrize("radius", [0.5, 0.3, 0.15, 0.6, 1.0 / 3.0])
    def test_half_radius_lattice(self, radius, rng):
        for shift in (0.0, radius / 4, -radius / 2):
            pts = rng.integers(-4, 5, (200, 3)) * (radius / 2) + shift
            assert np.array_equal(ccl_cluster(pts, radius).labels, bfs_components(pts, radius))

    @pytest.mark.parametrize("radius", [0.6, 0.1, 0.15, 0.5, 0.7])
    def test_pairs_at_radius_and_one_ulp_either_side(self, radius, rng):
        pts = []
        for k in range(60):
            p = rng.uniform(-3, 3, 3)
            q = p.copy()
            axis = k % 3
            q[axis] = p[axis] + radius
            q[axis] = (q[axis], np.nextafter(q[axis], np.inf), np.nextafter(q[axis], -np.inf))[k // 3 % 3]
            pts += [p, q]
        pts = np.array(pts)
        assert np.array_equal(ccl_cluster(pts, radius).labels, bfs_components(pts, radius))

    @pytest.mark.parametrize("sides, radius", [((1, 2, 2), 0.75), ((2, 3, 6), 0.7), ((1, 4, 8), 0.9)])
    def test_box_corners_at_radius(self, sides, radius, rng):
        # Boxes whose corner-to-corner distance is the radius (a Pythagorean
        # quadruple scaled to it), so box tests sit on the boundary; each
        # corner also appears one ulp outward.
        edge = np.array(sides) * (radius / np.linalg.norm(sides))
        corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]) * edge
        pts = []
        for _ in range(12):
            base = rng.integers(-8, 8, 3) * (radius / 2) + rng.choice([0.0, radius / 4], 3)
            box = base + corners
            pts += [box, np.nextafter(box, box + np.sign(corners - edge / 2) * np.inf)]
        pts = np.vstack(pts)
        assert np.array_equal(ccl_cluster(pts, radius).labels, bfs_components(pts, radius))

    @pytest.mark.parametrize("radius", [0.6, 0.1, 0.15, 0.5, 1.0])
    def test_cell_boxes_within_radius_whose_points_are_not(self, radius):
        # Cell {(e, c, 0), (c, e, 0)} against cell {origin}: the gap between
        # the boxes, (c, c, 0), passes the test, the union box (e, e, 0) fails
        # it by a few ulps, and neither point is within the radius.
        def d2(x, y):
            return (x * x + y * y) + 0.0

        c = radius / np.sqrt(2)
        while d2(c, c) > radius * radius:
            c = np.nextafter(c, 0)
        e = c
        while d2(e, c) <= radius * radius:
            e = np.nextafter(e, 1)
        assert d2(e, e) <= radius * radius * (1 + 1e-15)
        pts = np.array([[0.0, 0.0, 0.0], [e, c, 0.0], [c, e, 0.0]])
        labels = ccl_cluster(pts, radius).labels
        assert np.array_equal(labels, bfs_components(pts, radius))
        assert np.array_equal(labels, [0, 1, 1])

    @pytest.mark.parametrize("n, radius", [(1000, 0.05), (2000, 0.1), (3000, 0.2)])
    def test_dense_cloud_within_a_metre(self, n, radius, rng):
        pts = rng.uniform(0.0, 1.0, (n, 3)) + np.array([12.0, -3.0, 0.5])
        assert np.array_equal(ccl_cluster(pts, radius).labels, bfs_components(pts, radius))


class TestCclBound:
    """Coordinates up to 2**33 radii from the origin are clustered; any
    farther, or NaN, are refused; on the raw cell keys."""

    key_path = "raw"

    @pytest.mark.parametrize("radius", [0.1, 0.6, 1.0 / 3.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_just_inside_clusters_just_past_raises(self, radius, axis, sign):
        bound = sign * 2.0**33 * radius
        pts = np.zeros((4, 3))
        pts[:, axis] = [bound, bound - sign * radius / 2, bound - sign * 2.5 * radius, 0.0]
        labels = cluster_on(self.key_path, pts, radius)
        assert np.array_equal(labels, bfs_components(pts, radius))
        assert np.array_equal(labels, [0, 0, 1, 2])
        pts[0, axis] = np.nextafter(bound, sign * np.inf)
        with pytest.raises(ValueError, match=r"2\*\*33 radii"):
            cluster_on(self.key_path, pts, radius)

    def test_bound_is_each_groups_own(self):
        # Inside the bound of group 1's radius but past that of group 0's.
        x = 2.0**33 * 0.2
        assert np.array_equal(cluster_on(self.key_path, [[0, 0, 0], [x, 0, 0]], [0.1, 0.2], [0, 1]),
                              [0, 1])
        with pytest.raises(ValueError, match=r"2\*\*33 radii"):
            cluster_on(self.key_path, [[0, 0, 0], [x, 0, 0]], [0.1, 0.2], [1, 0])

    def test_nan_refused(self):
        with pytest.raises(ValueError, match=r"2\*\*33 radii"):
            cluster_on(self.key_path, [[0, 0, 0], [0, np.nan, 0]], 0.5)


class TestCclBoundSqueezed(TestCclBound):
    """The same, on keys squeezed as keys too wide for int64 are."""

    key_path = "squeezed"


class TestSqueezedKeys:
    """Raw cell keys too wide for an int64 code are squeezed, one axis at a
    time and then with the groups, and cluster as the raw keys would."""

    def test_grouped_cloud_too_wide_for_raw_keys(self, rng):
        # Blobs up to 2 * 10**7 radii apart on every axis: the raw keys'
        # product is far past 2**63.
        radii = [0.1, 0.25, 0.6]
        centres = np.array([[0, 0, 0], [1, 1, 1], [-2, 1, -1], [1, -2, 2]]) * 1e6
        pts = np.vstack([c + rng.uniform(-1.0, 1.0, (60, 3)) for c in centres])
        groups = rng.integers(0, len(radii), pts.shape[0])
        with squeezes() as calls:
            got = ccl_cluster(pts, radii, groups)
        assert len(calls) == 4  # three axes, then x with the groups
        want = per_group_labels(pts, radii, groups, bfs_components)
        assert np.array_equal(got.labels, want)
        assert got.num == np.bincount(want).shape[0]

    def test_single_group_squeezes_only_the_axes(self):
        pts = [[0, 0, 0], [1e6, 1e6, 1e6], [1e6 + 0.05, 1e6, 1e6], [3e7, -4e7, 1e3]]
        with squeezes() as calls:
            assert np.array_equal(ccl_cluster(pts, 0.1).labels, [0, 1, 1, 2])
        assert len(calls) == 3


@st.composite
def linked_clouds(draw):
    """(points, radii, groups): two to four interleaved groups, each of clumps
    about half its radius across on a lattice of a pitch near its radius.
    A clump's cells link through their boxes; neighbouring clumps' cells
    are near but not sure, so they link only through point tests."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    radii = draw(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=4))
    n = draw(st.integers(2, 400))
    groups = rng.integers(0, len(radii), n)
    r = np.array(radii)[groups, None]
    pitch = rng.uniform(0.9, 1.1, len(radii))[groups, None]
    spread = draw(st.floats(0.1, 0.3))
    pts = (rng.integers(0, 5, (n, 3)) * pitch + rng.uniform(-spread, spread, (n, 3))) * r
    return pts, radii, groups


class TestContractedMerge:
    """The point-tested links join the components of the box-tested sure
    links; with many of both, across groups, ids match the edge-list oracle
    over all point pairs within their group's radius."""

    @settings(max_examples=150, deadline=None)
    @given(linked_clouds())
    def test_matches_edge_list_oracle(self, cloud):
        pts, radii, groups = cloud
        d = pts[:, None, :] - pts[None, :, :]
        rr = np.square(radii)[groups]
        linked = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2] <= rr[:, None]
        linked &= groups[:, None] == groups[None, :]
        a, b = np.nonzero(np.triu(linked, 1))
        want = edge_list_components(pts.shape[0], a.tolist(), b.tolist())
        assert np.array_equal(ccl_cluster(pts, radii, groups).labels, want)


def facing_chains(links, cells, per_cell, radius):
    """Pairs of parallel chains a and b of ``cells`` cells along x, each cell
    of ``per_cell`` points; pair p lies 7 radii along x from pair p - 1. A
    chain's neighbouring cells link through their boxes, so each chain is one
    sure-link component. Facing cells a_i and b_i are the only undecided cell
    pairs between components: a_i's upper points and b_i's lower points are
    0.95 radii apart in y, and in z about 0.44 radii, out of reach, or for
    the i in ``links[p]`` about 0.23, within it. The points come chain by
    chain, a before b."""
    jitter = np.arange(per_cell // 2) * 1e-3
    pts = []
    for p, linked in enumerate(links):
        x = 7.0 * p + 0.5 * np.arange(cells) + 0.25
        for xi in x:
            pts += [(xi, 0.02, 0.25 + j) for j in jitter] + [(xi, 0.48, 0.02 + j) for j in jitter]
        for i, xi in enumerate(x):
            low = 0.25 if i in linked else 0.46
            pts += [(xi, 1.43, low + j) for j in jitter] + [(xi, 1.49, 0.25 + j) for j in jitter]
    return np.array(pts) * radius


class TestTwoRoundPointTest:
    """Undecided cell pairs are point-tested one per pair of sure-link
    components first, and the others only where those components are still
    apart; ids match BFS either way."""

    @pytest.mark.parametrize("radius", [1.0, 0.6])
    @pytest.mark.parametrize(
        "links",
        [[{5}], [set()], [{5}, set(), {3}]],
        ids=["later-pair-links", "never-links", "mixed"],
    )
    def test_facing_chains(self, links, radius):
        # The first facing pair, tested in the first round, misses; only a
        # later one, tested in the second, can join the two chains.
        pts = facing_chains(links, cells=6, per_cell=4, radius=radius)
        labels = ccl_cluster(pts, radius).labels
        assert np.array_equal(labels, bfs_components(pts, radius))
        want = []  # each chain's id
        for linked in links:
            k = want[-1] + 1 if want else 0
            want += [k, k] if linked else [k, k + 1]
        assert np.array_equal(labels, np.repeat(want, 6 * 4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
           st.integers(50, 600), st.floats(0.3, 1.0))
    def test_dense_grouped_clouds(self, seed, radii, n, spread):
        # Clumps of about a radius holding several points per cell: the box
        # tests leave many sure-link components, and many cell pairs between
        # them that only the point test decides.
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, len(radii), n)
        centres = rng.uniform(0.0, 3.0, (len(radii), 3, 3))[groups, rng.integers(0, 3, n)]
        pts = (centres + rng.normal(0.0, spread, (n, 3))) * np.array(radii)[groups, None]
        got = ccl_cluster(pts, radii, groups).labels
        assert np.array_equal(got, per_group_labels(pts, radii, groups, bfs_components))

    def test_point_tests_one_cell_pair_per_pair_of_components(self):
        # Every facing pair links, so the first one joins its two chains and
        # the others need no point test: one in ``cells`` of the member pairs
        # of the undecided cell pairs between components is tested.
        links, cells, per_cell = [set(range(8))] * 3, 8, 10
        pts = facing_chains(links, cells, per_cell, radius=0.6)
        tested = []
        within = clustering._within

        def counted(ext, rr):
            tested.append(ext[0].shape[0])
            return within(ext, rr)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "_within", counted)
            labels = ccl_cluster(pts, 0.6).labels
        assert np.array_equal(labels, bfs_components(pts, 0.6))
        assert labels.max() + 1 == len(links)
        undecided = len(links) * cells * per_cell**2
        assert sum(tested) <= undecided / 5


class TestMaxComponent:
    def test_largest_wins(self):
        pts = np.vstack([np.random.default_rng(0).normal(0, 0.05, (5, 3)),
                         np.random.default_rng(1).normal(10, 0.05, (3, 3))])
        comps = ccl_cluster(pts, 0.5)
        idx = max_component(comps.labels, pts)
        assert len(idx) == 5 == np.bincount(comps.labels).max()

    def test_tie_breaks_to_nearer_cluster(self):
        near = np.array([[8.0, 0, 0], [8.3, 0, 0], [8.6, 0, 0]])
        far = np.array([[20.0, 0, 0], [20.3, 0, 0], [20.6, 0, 0]])
        pts = np.vstack([far, near])
        comps = ccl_cluster(pts, 0.5)
        idx = max_component(comps.labels, pts)
        assert sorted(idx.tolist()) == [3, 4, 5]

    def test_exact_tie_ignores_point_order(self):
        # Both components' ranges sum to 1 + 2**-52 exactly, so the smaller
        # id (0) wins. Summed in point order, 1 + 2**-53 + 2**-53 rounds to 1
        # and would hand the tie to component 1 in some orders.
        tiny = 2.0**-53
        pts = np.array([[1 + 2**-52, 0, 0], [0, 0, 0], [0, 0, 0],
                        [1, 0, 0], [tiny, 0, 0], [tiny, 0, 0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        ranges = np.linalg.norm(pts, axis=1)
        assert math.fsum(ranges[:3]) == math.fsum(ranges[3:])
        for order in itertools.permutations(range(6)):
            order = np.array(order)
            picked = order[max_component(labels[order], pts[order])]
            assert sorted(picked.tolist()) == [0, 1, 2], order

    def test_single_component_is_identity(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0]])
        comps = ccl_cluster(pts, 0.5)
        assert sorted(max_component(comps.labels, pts).tolist()) == [0, 1]

    def test_empty_selection_error(self):
        comps = ccl_cluster(np.zeros((0, 3)), 0.5)
        with pytest.raises(ValueError, match="no points"):
            max_component(comps.labels, np.zeros((0, 3)))

    def test_size_matches_sizes_max(self, rng):
        pts = rng.uniform(-4, 4, (100, 3))
        comps = ccl_cluster(pts, 0.6)
        assert len(max_component(comps.labels, pts)) == np.bincount(comps.labels).max()

