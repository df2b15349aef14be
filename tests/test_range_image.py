import numpy as np
import pytest

from conftest import random_range_image, ri_from_depth
from oracles import dcs_dynamic_trace, dcs_simplified_trace

from wlf.frames import Frame
from wlf.range_image import (
    MIN_DEPTH_THRESHOLD,
    MIN_WINDOW,
    DcsConfig,
    build_range_image,
    dcs_dynamic,
    dcs_rows,
)


def frame_from_xyz(xyz, beam_row) -> Frame:
    xyz = np.asarray(xyz, dtype=float)
    pts = np.zeros((xyz.shape[0], 4))
    pts[:, :3] = xyz
    return Frame(frame_id="t", points=pts, beam_row=np.asarray(beam_row))


class TestBuildRangeImage:
    def test_azimuth_zero_maps_to_middle_column(self):
        frame = frame_from_xyz([[10.0, 0.0, 0.0]], [3])
        ri = build_range_image(frame, beams=8, columns=512)
        assert ri.point_cell[0].tolist() == [3, 256]
        assert ri.depth[3, 256] == pytest.approx(10.0)

    def test_collision_keeps_nearer(self):
        # Same beam and azimuth, depths 5 and 7.
        frame = frame_from_xyz([[7.0, 0.0, 0.0], [5.0, 0.0, 0.0]], [0, 0])
        ri = build_range_image(frame, beams=1, columns=8)
        col = ri.point_cell[0, 1]
        assert ri.depth[0, col] == pytest.approx(5.0)
        assert ri.cell_point[0, col] == 1
        # The evicted point still maps to the same cell.
        assert ri.point_cell[0].tolist() == ri.point_cell[1].tolist()

    def test_empty_frame_all_nan(self):
        frame = frame_from_xyz(np.zeros((0, 3)), np.zeros(0, dtype=int))
        ri = build_range_image(frame, beams=4, columns=16)
        assert np.isnan(ri.depth).all()
        assert (ri.cell_point == -1).all()

    def test_seam_wraps(self):
        # Azimuth exactly pi maps onto column 0, not out of range.
        frame = frame_from_xyz([[-10.0, 0.0, 0.0]], [0])
        ri = build_range_image(frame, beams=1, columns=16)
        assert ri.point_cell[0, 1] in (0, 8)

    def test_beam_out_of_range_rejected(self):
        frame = frame_from_xyz([[1.0, 0.0, 0.0]], [5])
        with pytest.raises(ValueError, match="beam_row"):
            build_range_image(frame, beams=4, columns=8)

    def test_depth_is_euclidean_range(self):
        frame = frame_from_xyz([[3.0, 0.0, 4.0]], [0])
        ri = build_range_image(frame, beams=1, columns=8)
        r, c = ri.point_cell[0]
        assert ri.depth[r, c] == pytest.approx(5.0)


def assert_matches_trace(segs, ri, windows, thresholds):
    ids, count = dcs_dynamic_trace(ri.depth, windows, thresholds)
    assert segs.num_segments == count
    assert np.array_equal(segs.segment_id, ids[ri.point_cell[:, 0], ri.point_cell[:, 1]])


def fixed_window_rows(ri, threshold):
    """Fixed-threshold scan: the smallest window links adjacent columns only."""
    beams = ri.shape[0]
    return dcs_rows(ri, np.full(beams, float(MIN_WINDOW)), np.full(beams, threshold))


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
            segs = fixed_window_rows(ri, t)
            for r in range(ri.shape[0]):
                row_pts = [(c, d) for c, d in enumerate(ri.depth[r]) if np.isfinite(d)]
                for (c0, d0), (c1, d1) in zip(row_pts, row_pts[1:]):
                    i0 = ri.cell_point[r, c0]
                    i1 = ri.cell_point[r, c1]
                    if segs.segment_id[i0] == segs.segment_id[i1] and c1 == c0 + 1:
                        assert abs(d1 - d0) < t


class TestDynamic:
    def test_scaled_window_and_threshold(self):
        # Row max 25 m: window 20 columns, threshold 0.12 m, so a 0.15 m step splits.
        row = [10.0, 10.15] + [np.nan] * 21 + [25.0]
        segs = dcs_dynamic(ri_from_depth([row]), DcsConfig())
        assert segs.segment_id[0] != segs.segment_id[1]
        assert segs.num_segments == 3

    def test_window_bridges_nan_gap(self):
        row = [10.0, np.nan, 10.02] + [np.nan] * 5
        segs = dcs_dynamic(ri_from_depth([row]), DcsConfig())
        assert segs.num_segments == 1
        assert segs.segment_id[0] == segs.segment_id[1]

    def test_constant_row_single_segment(self):
        segs = dcs_dynamic(ri_from_depth([[12.0] * 16]), DcsConfig())
        assert segs.num_segments == 1

    def test_ids_dense(self, rng):
        for _ in range(20):
            ri = random_range_image(rng, beams=3, columns=30)
            segs = dcs_dynamic(ri, DcsConfig())
            present = np.unique(segs.segment_id)
            assert present.tolist() == list(range(segs.num_segments))

    def test_deterministic(self, rng):
        ri = random_range_image(rng)
        a = dcs_dynamic(ri, DcsConfig())
        b = dcs_dynamic(ri, DcsConfig())
        assert np.array_equal(a.segment_id, b.segment_id)
        assert a.num_segments == b.num_segments

    def test_matches_literal_trace(self, rng):
        cfg = DcsConfig()
        for _ in range(100):
            ri = random_range_image(rng, beams=3, columns=24, fill=0.75)
            windows = np.full(3, float(MIN_WINDOW))
            thresholds = np.full(3, MIN_DEPTH_THRESHOLD)
            for r in range(3):
                finite = ri.depth[r][np.isfinite(ri.depth[r])]
                if finite.size == 0:
                    continue
                m_r = float(finite.max())
                windows[r] = min(max(cfg.reference_range / m_r * cfg.window, MIN_WINDOW), 24)
                thresholds[r] = max(m_r / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
            assert_matches_trace(dcs_dynamic(ri, cfg), ri, windows, thresholds)
            # dcs_rows alone, with windows and thresholds drawn per row:
            # windows below MIN_WINDOW, at or past the width, tied between
            # rows; every other raster has an empty row.
            depth = ri.depth.copy()
            if rng.random() < 0.5:
                depth[rng.integers(3)] = np.nan
            ri = ri_from_depth(depth)
            windows = rng.choice([0.5, 1.9, 2.0, 3.0, 7.5, 12.0, 24.0, 100.0], size=3)
            thresholds = rng.uniform(0.05, 10.0, size=3)
            assert_matches_trace(dcs_rows(ri, windows, thresholds), ri, windows, thresholds)

    @pytest.mark.filterwarnings("error")
    def test_zero_range_row_takes_full_window(self):
        # Row 0's maximum depth is 0: the window is the full width (half 12,
        # so columns 0 and 5 link and 18 stands alone) and the threshold the
        # minimum. Row 1 (max 25 m) keeps window 20 and threshold 0.12 m.
        zeros = [np.nan] * 24
        for c in (0, 5, 18):
            zeros[c] = 0.0
        ri = ri_from_depth([zeros, [10.0, 10.15] + [np.nan] * 21 + [25.0]])
        segs = dcs_dynamic(ri, DcsConfig())
        assert segs.num_segments == 5
        assert_matches_trace(segs, ri, [24.0, 20.0], [MIN_DEPTH_THRESHOLD, 0.12])

    def test_forced_constant_equals_simplified(self, rng):
        for _ in range(100):
            ri = random_range_image(rng, beams=4, columns=20, fill=0.7)
            t = float(rng.uniform(0.1, 4.0))
            forced = dcs_rows(
                ri, np.full(4, float(MIN_WINDOW)), np.full(4, t)
            )
            ids, count = dcs_simplified_trace(ri.depth, t)
            assert forced.num_segments == count
            assert np.array_equal(forced.segment_id, ids[ri.point_cell[:, 0], ri.point_cell[:, 1]])

    def test_linked_cells_have_close_witness(self, rng):
        # Weakened scan-order claim: every non-root cell sits within the row
        # threshold of some earlier member inside the half window.
        cfg = DcsConfig()
        for _ in range(30):
            ri = random_range_image(rng, beams=3, columns=24)
            segs = dcs_dynamic(ri, cfg)
            for r in range(3):
                d = ri.depth[r]
                finite = d[np.isfinite(d)]
                if finite.size == 0:
                    continue
                m_r = float(finite.max())
                half = int(min(max(cfg.reference_range / m_r * cfg.window, MIN_WINDOW), 24) // 2)
                t_r = max(m_r / cfg.reference_range * cfg.depth_base, MIN_DEPTH_THRESHOLD)
                cols = np.flatnonzero(np.isfinite(d))
                seg_of = {c: segs.segment_id[ri.cell_point[r, c]] for c in cols}
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


class TestEqualTableIdempotence:
    def test_resegmenting_is_stable(self, rng):
        ri = random_range_image(rng, beams=4, columns=30)
        first = dcs_dynamic(ri, DcsConfig())
        second = dcs_dynamic(ri, DcsConfig())
        assert np.array_equal(first.segment_id, second.segment_id)

    def test_trace_relabel_twice_is_noop(self, rng):
        # Re-running the relabel pass over resolved ids changes nothing.
        ri = random_range_image(rng, beams=2, columns=16)
        windows = np.full(2, 8.0)
        thresholds = np.full(2, 0.5)
        ids1, n1 = dcs_dynamic_trace(ri.depth, windows, thresholds)
        ids2, n2 = dcs_dynamic_trace(ri.depth, windows, thresholds)
        assert n1 == n2
        assert np.array_equal(ids1, ids2)
