import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_components, edge_list_components

from wlf.clustering import (
    ClassRadii,
    EmptySelectionError,
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
        assert comps.sizes.sum() == 150
        assert np.array_equal(np.bincount(comps.labels), comps.sizes)

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


def per_group_labels(pts, radii, groups):
    """Labels of one ccl_cluster call per group, renumbered in first-occurrence
    order over all points."""
    local = np.zeros(len(pts), dtype=np.int64)
    for j, r in enumerate(radii):
        mine = groups == j
        local[mine] = ccl_cluster(pts[mine], r).labels
    _, first, inv = np.unique(groups * (len(pts) + 1) + local, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


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
        assert np.array_equal(got.sizes, np.bincount(want))

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

    def test_cells_that_are_not_cliques(self):
        # So far from the origin that adjacent x values are 2048 apart: x keys
        # round together, so cells hold points more than r apart and their
        # own pairs are tested point by point.
        radius = 1068.6682179493275
        x0 = 1.350598106458436e19
        xs = x0 + np.arange(6) * np.spacing(x0)
        pts = np.array([[x, y, 0.0] for x in xs for y in (0.0, radius / 2)])
        labels = ccl_cluster(pts, radius).labels
        assert np.array_equal(labels, bfs_components(pts, radius))
        assert np.array_equal(labels, np.repeat(np.arange(6), 2))


class TestMaxComponent:
    def test_largest_wins(self):
        pts = np.vstack([np.random.default_rng(0).normal(0, 0.05, (5, 3)),
                         np.random.default_rng(1).normal(10, 0.05, (3, 3))])
        comps = ccl_cluster(pts, 0.5)
        idx = max_component(comps.labels, pts)
        assert len(idx) == 5 == comps.sizes.max()

    def test_tie_breaks_to_nearer_cluster(self):
        near = np.array([[8.0, 0, 0], [8.3, 0, 0], [8.6, 0, 0]])
        far = np.array([[20.0, 0, 0], [20.3, 0, 0], [20.6, 0, 0]])
        pts = np.vstack([far, near])
        comps = ccl_cluster(pts, 0.5)
        idx = max_component(comps.labels, pts)
        assert sorted(idx.tolist()) == [3, 4, 5]

    def test_single_component_is_identity(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0]])
        comps = ccl_cluster(pts, 0.5)
        assert sorted(max_component(comps.labels, pts).tolist()) == [0, 1]

    def test_empty_selection_error(self):
        comps = ccl_cluster(np.zeros((0, 3)), 0.5)
        with pytest.raises(EmptySelectionError):
            max_component(comps.labels, np.zeros((0, 3)))

    def test_size_matches_sizes_max(self, rng):
        pts = rng.uniform(-4, 4, (100, 3))
        comps = ccl_cluster(pts, 0.6)
        assert len(max_component(comps.labels, pts)) == comps.sizes.max()


class TestClassRadii:
    def test_defaults(self):
        radii = ClassRadii()
        assert radii.for_class(1) == 0.6
        assert radii.for_class(2) == 0.1
        assert radii.for_class(3) == 0.15

    def test_unknown_class(self):
        with pytest.raises(KeyError):
            ClassRadii().for_class(9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ClassRadii(radii={1: 0.0})

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            ClassRadii(radii={1: radius, 2: 0.1})
