import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_range_image, ri_from_depth
from oracles import dcs_dynamic_trace, dcs_simplified_trace, range_image_trace

from wlf.frames import Frame
from wlf.range_image import (
    MIN_DEPTH_THRESHOLD,
    MIN_WINDOW,
    DcsConfig,
    build_range_image,
    dcs_dynamic,
    dcs_rows,
)
from wlf.synth import SceneConfig, generate_scene


def frame_from_xyz(xyz, beam_row) -> Frame:
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    pts = np.zeros((xyz.shape[0], 4))
    pts[:, :3] = xyz
    return Frame(frame_id="t", points=pts, beam_row=np.asarray(beam_row))


class TestBuildRangeImage:
    def test_azimuth_zero_maps_to_middle_column(self):
        frame = frame_from_xyz([[10.0, 0.0, 0.0]], [3])
        depth, cell = build_range_image(frame, beams=8, columns=512)
        assert cell.tolist() == [3 * 512 + 256]
        assert depth[3, 256] == pytest.approx(10.0)

    def test_collision_keeps_nearer(self):
        # Same beam and azimuth, depths 5 and 7: both points map to the one
        # cell, which holds the nearer depth.
        frame = frame_from_xyz([[7.0, 0.0, 0.0], [5.0, 0.0, 0.0]], [0, 0])
        depth, cell = build_range_image(frame, beams=1, columns=8)
        assert cell[0] == cell[1]
        assert depth.flat[cell[0]] == pytest.approx(5.0)

    def test_empty_frame_all_nan(self):
        frame = frame_from_xyz(np.zeros((0, 3)), np.zeros(0, dtype=int))
        depth, cell = build_range_image(frame, beams=4, columns=16)
        assert depth.shape == (4, 16) and np.isnan(depth).all()
        assert cell.size == 0

    def test_seam_wraps(self):
        # Azimuth exactly pi maps onto column 0, not out of range.
        frame = frame_from_xyz([[-10.0, 0.0, 0.0]], [0])
        _, cell = build_range_image(frame, beams=1, columns=16)
        assert cell[0] in (0, 8)

    def test_beam_out_of_range_rejected(self):
        frame = frame_from_xyz([[1.0, 0.0, 0.0]], [5])
        with pytest.raises(ValueError, match="beam_row"):
            build_range_image(frame, beams=4, columns=8)

    def test_depth_is_euclidean_range(self):
        frame = frame_from_xyz([[3.0, 0.0, 4.0]], [0])
        depth, cell = build_range_image(frame, beams=1, columns=8)
        assert depth.flat[cell[0]] == pytest.approx(5.0)


# Small values make crowded cells and exact range ties; signed zeros and
# tiny y on the negative x axis sit on the azimuth seam.
COORDS = st.one_of(
    st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1e-300, -1e-300, 1.0, 3.0, 4.0]),
    st.floats(-60.0, 60.0),
)
SEAM_Y = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17])


@st.composite
def sweeps(draw):
    beams = draw(st.integers(1, 4))
    columns = draw(st.integers(1, 48))
    row = st.integers(0, beams - 1)
    point = st.tuples(COORDS, COORDS, COORDS, row)
    seam = st.tuples(st.floats(-60.0, -1e-3), SEAM_Y, COORDS, row)
    pts = draw(st.lists(st.one_of(point, seam), max_size=60))
    if pts:
        # Repeats tie exactly in one cell; power-of-two scalings put nearer
        # and farther returns in it.
        extra = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                        st.sampled_from([1.0, 0.5, 2.0])), max_size=40))
        pts += [(x * k, y * k, z * k, r) for (x, y, z, r), k in ((pts[i], k) for i, k in extra)]
    pts = draw(st.permutations(pts))
    xyz = np.array([p[:3] for p in pts], dtype=float).reshape(-1, 3)
    return xyz, np.array([p[3] for p in pts], dtype=int), beams, columns


def assert_build_matches_trace(frame, beams, columns):
    depth, cell = build_range_image(frame, beams, columns)
    want_depth, want_cell = range_image_trace(frame.points, frame.beam_row, beams, columns)
    assert np.array_equal(depth, want_depth, equal_nan=True)
    assert np.array_equal(cell, want_cell)
    assert cell.dtype == np.int64


class TestBuildMatchesTrace:
    @settings(max_examples=300, deadline=None)
    @given(sweeps())
    def test_random_sweeps(self, sweep):
        xyz, rows, beams, columns = sweep
        assert_build_matches_trace(frame_from_xyz(xyz, rows), beams, columns)

    def test_empty_frame(self):
        assert_build_matches_trace(frame_from_xyz([], []), 3, 5)

    def test_shuffled_crowded_scene(self, rng):
        # A ray-cast sweep, shuffled, with every third point repeated and
        # every fifth moved nearer along its ray, at half the scene's columns.
        cfg = SceneConfig(seed=3, beams=16, columns=256)
        frame = generate_scene(cfg).frame
        thirds, fifths = np.arange(0, frame.num_points, 3), np.arange(0, frame.num_points, 5)
        extra = np.r_[thirds, fifths]
        points = np.concatenate([frame.points, frame.points[extra]])
        points[frame.num_points + thirds.size :, :3] *= 0.5
        rows = np.concatenate([frame.beam_row, frame.beam_row[extra]])
        perm = rng.permutation(points.shape[0])
        shuffled = Frame(frame_id="s", points=points[perm], beam_row=rows[perm])
        assert_build_matches_trace(shuffled, cfg.beams, cfg.columns // 2)


def assert_matches_trace(segs, ri, windows, thresholds):
    depth, cell = ri
    ids, count = dcs_dynamic_trace(depth, windows, thresholds)
    assert segs.num_segments == count
    assert np.array_equal(segs.segment_id, ids.ravel()[cell])


def fixed_window_rows(ri, threshold):
    """Fixed-threshold scan: the smallest window links adjacent columns only."""
    beams = ri[0].shape[0]
    return dcs_rows(*ri, np.full(beams, float(MIN_WINDOW)), np.full(beams, threshold))


def segment_image(segs, ri):
    """Each cell's segment id, -1 where empty, for a range image that holds
    one point per occupied cell."""
    depth, cell = ri
    image = np.full(depth.size, -1)
    image[cell] = segs.segment_id
    return image.reshape(depth.shape)


class TestSimplified:
    def test_row_trace(self):
        ri = ri_from_depth([[10.0, 10.1, 10.15, 30.0]])
        segs = fixed_window_rows(ri, 0.24)
        assert segs.segment_id.tolist() == [0, 0, 0, 1]
        assert segs.num_segments == 2

    def test_single_point_row(self):
        segs = fixed_window_rows(ri_from_depth([[np.nan, 7.0, np.nan]]), 0.24)
        assert segs.num_segments == 1
        assert segs.segment_id.tolist() == [0]

    def test_all_nan_row_emits_nothing(self):
        depth = [[np.nan] * 4, [5.0, 5.1, np.nan, 9.0]]
        segs = fixed_window_rows(ri_from_depth(depth), 0.24)
        assert segs.num_segments == 2

    def test_nan_gap_breaks_segment(self):
        segs = fixed_window_rows(ri_from_depth([[5.0, np.nan, 5.0]]), 0.24)
        assert segs.num_segments == 2

    def test_rows_never_share_ids(self):
        segs = fixed_window_rows(ri_from_depth([[5.0, 5.0], [5.0, 5.0]]), 0.24)
        ids = segs.segment_id
        assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]

    def test_adjacent_members_within_threshold(self, rng):
        for _ in range(50):
            ri = random_range_image(rng)
            t = float(rng.uniform(0.1, 5.0))
            seg = segment_image(fixed_window_rows(ri, t), ri)
            for r, row in enumerate(ri[0]):
                row_pts = [(c, d) for c, d in enumerate(row) if np.isfinite(d)]
                for (c0, d0), (c1, d1) in zip(row_pts, row_pts[1:]):
                    if seg[r, c0] == seg[r, c1] and c1 == c0 + 1:
                        assert abs(d1 - d0) < t


class TestDynamic:
    def test_scaled_window_and_threshold(self):
        # Row max 25 m: window 20 columns, threshold 0.12 m, so a 0.15 m step splits.
        row = [10.0, 10.15] + [np.nan] * 21 + [25.0]
        segs = dcs_dynamic(*ri_from_depth([row]), DcsConfig())
        assert segs.segment_id[0] != segs.segment_id[1]
        assert segs.num_segments == 3

    def test_window_bridges_nan_gap(self):
        row = [10.0, np.nan, 10.02] + [np.nan] * 5
        segs = dcs_dynamic(*ri_from_depth([row]), DcsConfig())
        assert segs.num_segments == 1
        assert segs.segment_id[0] == segs.segment_id[1]

    def test_constant_row_single_segment(self):
        segs = dcs_dynamic(*ri_from_depth([[12.0] * 16]), DcsConfig())
        assert segs.num_segments == 1

    def test_ids_dense(self, rng):
        for _ in range(20):
            ri = random_range_image(rng, beams=3, columns=30)
            segs = dcs_dynamic(*ri, DcsConfig())
            present = np.unique(segs.segment_id)
            assert present.tolist() == list(range(segs.num_segments))

    def test_deterministic(self, rng):
        ri = random_range_image(rng)
        a = dcs_dynamic(*ri, DcsConfig())
        b = dcs_dynamic(*ri, DcsConfig())
        assert np.array_equal(a.segment_id, b.segment_id)
        assert a.num_segments == b.num_segments

    def test_matches_literal_trace(self, rng):
        cfg = DcsConfig()
        for _ in range(100):
            ri = random_range_image(rng, beams=3, columns=24, fill=0.75)
            depth = ri[0]
            windows = np.full(3, float(MIN_WINDOW))
            thresholds = np.full(3, MIN_DEPTH_THRESHOLD)
            for r in range(3):
                finite = depth[r][np.isfinite(depth[r])]
                if finite.size == 0:
                    continue
                m_r = float(finite.max())
                windows[r] = min(max(cfg.reference_range / m_r * cfg.window, MIN_WINDOW), 24)
                thresholds[r] = max(m_r / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
            assert_matches_trace(dcs_dynamic(*ri, cfg), ri, windows, thresholds)
            # dcs_rows alone, with windows and thresholds drawn per row:
            # windows below MIN_WINDOW, at or past the width, tied between
            # rows; every other raster has an empty row. The points come out
            # of scan order, one to three to a cell.
            depth = depth.copy()
            if rng.random() < 0.5:
                depth[rng.integers(3)] = np.nan
            _, cell = ri_from_depth(depth)
            ri = depth, rng.permutation(np.repeat(cell, rng.integers(1, 4, cell.size)))
            windows = rng.choice([0.5, 1.9, 2.0, 3.0, 7.5, 12.0, 24.0, 100.0], size=3)
            thresholds = rng.uniform(0.05, 10.0, size=3)
            assert_matches_trace(dcs_rows(*ri, windows, thresholds), ri, windows, thresholds)

    def test_zero_range_row_takes_full_window(self):
        # Row 0's maximum depth is 0: the window is the full width (half 12,
        # so columns 0 and 5 link and 18 stands alone) and the threshold the
        # minimum. Row 1 (max 25 m) keeps window 20 and threshold 0.12 m.
        zeros = [np.nan] * 24
        for c in (0, 5, 18):
            zeros[c] = 0.0
        ri = ri_from_depth([zeros, [10.0, 10.15] + [np.nan] * 21 + [25.0]])
        segs = dcs_dynamic(*ri, DcsConfig())
        assert segs.num_segments == 5
        assert_matches_trace(segs, ri, [24.0, 20.0], [MIN_DEPTH_THRESHOLD, 0.12])

    def test_forced_constant_equals_simplified(self, rng):
        for _ in range(100):
            depth, cell = random_range_image(rng, beams=4, columns=20, fill=0.7)
            t = float(rng.uniform(0.1, 4.0))
            forced = dcs_rows(depth, cell, np.full(4, float(MIN_WINDOW)), np.full(4, t))
            ids, count = dcs_simplified_trace(depth, t)
            assert forced.num_segments == count
            assert np.array_equal(forced.segment_id, ids.ravel()[cell])

    def test_linked_cells_have_close_witness(self, rng):
        # Weakened scan-order claim: every non-root cell sits within the row
        # threshold of some earlier member inside the half window.
        cfg = DcsConfig()
        for _ in range(30):
            ri = random_range_image(rng, beams=3, columns=24)
            seg = segment_image(dcs_dynamic(*ri, cfg), ri)
            for r in range(3):
                d = ri[0][r]
                finite = d[np.isfinite(d)]
                if finite.size == 0:
                    continue
                m_r = float(finite.max())
                half = int(min(max(cfg.reference_range / m_r * cfg.window, MIN_WINDOW), 24) // 2)
                t_r = max(m_r / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
                cols = np.flatnonzero(np.isfinite(d))
                seg_of = {c: seg[r, c] for c in cols}
                firsts = {}
                for c in cols:
                    s = seg_of[c]
                    if s not in firsts:
                        firsts[s] = c
                        continue
                    witnesses = [
                        b for b in cols
                        if b < c and c - b <= half and seg_of[b] == s and abs(d[b] - d[c]) < t_r
                    ]
                    assert witnesses, f"cell {c} joined segment {s} with no close witness"


class TestDcsStress:
    def test_constant_row_is_one_chain(self):
        # Adjacent-only links down a 512-column row: one chain as long as
        # the row, the deepest pointer jump.
        depth = np.full((3, 512), 12.0)
        depth[1, ::7] = np.nan
        ri = ri_from_depth(depth)
        windows = np.full(3, float(MIN_WINDOW))
        thresholds = np.full(3, 0.1)
        segs = dcs_rows(*ri, windows, thresholds)
        assert segs.num_segments == 1 + 73 + 1  # row 1 breaks at every 7th column
        assert_matches_trace(segs, ri, windows, thresholds)

    def test_windows_at_or_past_the_width(self, rng):
        for _ in range(30):
            ri = random_range_image(rng, beams=4, columns=20, fill=0.5)
            windows = rng.choice([20.0, 21.0, 40.0, 41.0, 1000.0, 1e12], size=4)
            thresholds = rng.uniform(0.5, 10.0, size=4)
            assert_matches_trace(dcs_rows(*ri, windows, thresholds), ri, windows, thresholds)

    @pytest.mark.parametrize("period", [2, 3, 5, 8])
    def test_links_at_the_window_edge(self, period):
        # Depths cycle with the period and steps wider than the threshold, so
        # each cell matches only the cell one period back: the far edge of a
        # half window equal to the period.
        cols = np.arange(64)
        depth = np.stack([10.0 + (cols % period), 30.0 - (cols % period)]).astype(float)
        ri = ri_from_depth(depth)
        windows = np.array([2.0 * period, 2.0 * period + 1])
        thresholds = np.full(2, 0.5)
        segs = dcs_rows(*ri, windows, thresholds)
        assert segs.num_segments == 2 * period
        assert_matches_trace(segs, ri, windows, thresholds)

    def test_step_equal_to_threshold_splits(self, rng):
        # Quarter-metre steps against a quarter-metre threshold: the test is
        # strict, so a step of exactly the threshold never links.
        segs = fixed_window_rows(ri_from_depth([[10.0, 10.25, 10.5, 10.5]]), 0.25)
        assert segs.segment_id.tolist() == [0, 1, 2, 2]
        depth = 10.0 + 0.25 * rng.integers(0, 4, (3, 40))
        depth[rng.random((3, 40)) > 0.8] = np.nan
        ri = ri_from_depth(depth)
        windows, thresholds = np.array([2.0, 5.0, 9.0]), np.full(3, 0.25)
        assert_matches_trace(dcs_rows(*ri, windows, thresholds), ri, windows, thresholds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected(self, bad):
        ri = ri_from_depth([[5.0, 5.1], [7.0, 7.0]])
        with pytest.raises(ValueError, match="windows"):
            dcs_rows(*ri, np.array([4.0, bad]), np.full(2, 0.5))


# Per cell: a small step (an adjacent link), a step of exactly the
# threshold, a NaN gap, an intrusion far off the row's depth, or a return to
# the depth two or three cells back, which links across a gap or intrusion.
CELL_KINDS = st.sampled_from(["near"] * 6 + ["tie", "gap", "intrusion", "back"])


@st.composite
def chained_rasters(draw):
    """Rows made mostly of adjacent links with sparse far links across gaps,
    in quarter metres so that a step can equal the threshold exactly. A row
    often starts at the depth where the row above ended."""
    beams, columns = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    thresholds = np.array([0.25 * draw(st.integers(1, 4)) for _ in range(beams)])
    depth = np.full((beams, columns), np.nan)
    level = 0.25 * draw(st.integers(8, 80))
    for r in range(beams):
        if draw(st.booleans()):
            level = 0.25 * draw(st.integers(8, 80))
        for c in range(columns):
            kind = draw(CELL_KINDS)
            if kind == "gap":
                continue
            if kind == "near":
                level += 0.25 * draw(st.integers(-1, 1))
            elif kind == "tie":
                level += thresholds[r] * draw(st.sampled_from([-1.0, 1.0]))
            elif kind == "back" and c >= 2:
                back = depth[r, c - draw(st.integers(2, min(3, c)))]
                level = level if np.isnan(back) else back
            depth[r, c] = level + (40.0 if kind == "intrusion" else 0.0)
    windows = np.array([draw(st.sampled_from([0.5, 2.0, 3.0, 5.0, 8.0, float(columns), 1e6]))
                        for _ in range(beams)])
    cell = np.flatnonzero(np.isfinite(depth))
    copies = draw(st.lists(st.integers(1, 2), min_size=cell.size, max_size=cell.size))
    cell = np.repeat(cell, copies)
    return (depth, np.array(draw(st.permutations(cell)), dtype=np.int64)), windows, thresholds


class TestDcsRuns:
    @settings(max_examples=300, deadline=None)
    @given(chained_rasters())
    def test_chained_rows_match_trace(self, case):
        ri, windows, thresholds = case
        assert_matches_trace(dcs_rows(*ri, windows, thresholds), ri, windows, thresholds)


class TestEqualTableIdempotence:
    def test_resegmenting_is_stable(self, rng):
        ri = random_range_image(rng, beams=4, columns=30)
        first = dcs_dynamic(*ri, DcsConfig())
        second = dcs_dynamic(*ri, DcsConfig())
        assert np.array_equal(first.segment_id, second.segment_id)

    def test_trace_relabel_twice_is_noop(self, rng):
        # Re-running the relabel pass over resolved ids changes nothing.
        depth, _ = random_range_image(rng, beams=2, columns=16)
        windows = np.full(2, 8.0)
        thresholds = np.full(2, 0.5)
        ids1, n1 = dcs_dynamic_trace(depth, windows, thresholds)
        ids2, n2 = dcs_dynamic_trace(depth, windows, thresholds)
        assert n1 == n2
        assert np.array_equal(ids1, ids2)
