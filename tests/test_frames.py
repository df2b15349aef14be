import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import back_project

from wlf.frames import (
    Box2D,
    Calibration,
    Frame,
    box_classes,
    crop_frustum,
    project_points,
)


def simple_calib(f=100.0, cx=320.0, cy=240.0, size=(640, 480)) -> Calibration:
    k = np.array([[f, 0, cx], [0, f, cy], [0, 0, 1.0]])
    return Calibration(intrinsic=k, extrinsic=np.eye(4), image_size=size)


def make_frame(xyz, frame_id="t") -> Frame:
    xyz = np.asarray(xyz, dtype=float)
    pts = np.zeros((xyz.shape[0], 4))
    pts[:, :3] = xyz
    return Frame(frame_id=frame_id, points=pts, beam_row=np.zeros(xyz.shape[0], dtype=int))


def rotation_from_angles(rx, ry, rz) -> np.ndarray:
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mz @ my @ mx


class TestProjectPoints:
    def test_optical_axis_point(self):
        proj = project_points(simple_calib(), make_frame([[0, 0, 5]]))
        assert proj.valid[0]
        np.testing.assert_allclose(proj.pixels[0], [320.0, 240.0])
        assert proj.depth[0] == pytest.approx(5.0)

    def test_off_axis_point(self):
        # u = 100 * 1/5 + 320 = 340
        proj = project_points(simple_calib(), make_frame([[1, 0, 5]]))
        np.testing.assert_allclose(proj.pixels[0], [340.0, 240.0])

    def test_behind_camera_invalid(self):
        proj = project_points(simple_calib(), make_frame([[0, 0, -1]]))
        assert not proj.valid[0]
        assert np.isnan(proj.pixels[0]).all()

    def test_out_of_image_invalid(self):
        proj = project_points(simple_calib(), make_frame([[100, 0, 5]]))
        assert not proj.valid[0]

    def test_non_finite_rejected(self):
        frame = make_frame([[0, 0, 5]])
        frame.points[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            project_points(simple_calib(), frame)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(50, 500),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.lists(
            st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(1, 60)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_round_trip(self, f, rx, ry, rz, raw_pts):
        rot = rotation_from_angles(rx, ry, rz)
        extrinsic = np.eye(4)
        extrinsic[:3, :3] = rot
        extrinsic[:3, 3] = [0.1, -0.2, 0.3]
        calib = Calibration(
            intrinsic=np.array([[f, 0, 320], [0, f, 240], [0, 0, 1.0]]),
            extrinsic=extrinsic,
            image_size=(640, 480),
        )
        # Build points in the camera frame (guaranteed in front) then map back.
        cam = np.asarray(raw_pts)
        xyz = (cam - extrinsic[:3, 3]) @ rot
        frame = make_frame(xyz)
        proj = project_points(calib, frame)
        if proj.valid.any():
            rec = back_project(calib, proj.pixels[proj.valid], proj.depth[proj.valid])
            np.testing.assert_allclose(rec, xyz[proj.valid], atol=1e-6)


class TestCalibrationValidation:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(4)
        bad[0, 1] = 0.01
        with pytest.raises(ValueError, match="orthonormal"):
            Calibration(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1.0]]), bad, (10, 10))

    def test_rejects_lower_triangular_terms(self):
        k = np.array([[100, 0, 5], [3, 100, 5], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="upper-triangular"):
            Calibration(k, np.eye(4), (10, 10))

    def test_rejects_negative_focal(self):
        k = np.array([[-100, 0, 5], [0, 100, 5], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="focal"):
            Calibration(k, np.eye(4), (10, 10))


class TestBox2D:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box2D(box_id=1, class_id=1, bounds=(10, 10, 10, 20))

    def test_half_open_containment(self):
        box = Box2D(box_id=1, class_id=1, bounds=(0.0, 0.0, 10.0, 10.0))
        u = np.array([0.0, 9.999, 10.0])
        v = np.array([0.0, 0.0, 0.0])
        assert box.contains(u, v).tolist() == [True, True, False]


class TestCropFrustum:
    def make_proj(self, pixels, valid=None):
        pixels = np.asarray(pixels, dtype=float)
        from wlf.frames import ProjectedPoints

        n = pixels.shape[0]
        valid = np.ones(n, dtype=bool) if valid is None else np.asarray(valid)
        return ProjectedPoints(pixels=pixels, depth=np.full(n, 5.0), valid=valid)

    def test_containment(self):
        proj = self.make_proj([[340, 240]])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(proj, boxes).tolist() == [1]

    def test_outside_all_boxes(self):
        proj = self.make_proj([[10, 10]])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(proj, boxes).tolist() == [0]

    def test_invalid_projection_unassigned(self):
        proj = self.make_proj([[340, 240]], valid=[False])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(proj, boxes).tolist() == [0]

    def test_smaller_area_wins(self):
        proj = self.make_proj([[50, 50]])
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 100, 100)),  # area 10000
            Box2D(box_id=2, class_id=1, bounds=(25, 25, 75, 75)),  # area 2500
        ]
        assert crop_frustum(proj, boxes).tolist() == [2]

    def test_empty_boxes(self):
        proj = self.make_proj([[50, 50]])
        assert crop_frustum(proj, []).tolist() == [0]

    def test_duplicate_ids_rejected(self):
        proj = self.make_proj([[50, 50]])
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10)),
            Box2D(box_id=1, class_id=2, bounds=(0, 0, 20, 20)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            crop_frustum(proj, boxes)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0, 99), st.floats(0, 99)), min_size=1, max_size=30),
        st.lists(
            st.tuples(st.floats(0, 80), st.floats(0, 80), st.floats(5, 90), st.floats(5, 90)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_matches_two_pass_enumeration(self, pix, raw_boxes):
        boxes = []
        for i, (x0, y0, w, h) in enumerate(raw_boxes):
            boxes.append(Box2D(box_id=i + 1, class_id=1, bounds=(x0, y0, x0 + w, y0 + h)))
        proj = self.make_proj(pix)
        got = crop_frustum(proj, boxes)
        for p, (u, v) in enumerate(pix):
            containing = [
                b for b in boxes
                if b.bounds[0] <= u < b.bounds[2] and b.bounds[1] <= v < b.bounds[3]
            ]
            want = min(containing, key=lambda b: (b.area, b.box_id)).box_id if containing else 0
            assert got[p] == want

    def test_permutation_equivariance(self, rng):
        pix = rng.uniform(0, 100, (40, 2))
        proj = self.make_proj(pix)
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 50, 50)),
            Box2D(box_id=2, class_id=2, bounds=(30, 30, 90, 90)),
        ]
        base = crop_frustum(proj, boxes)
        perm = rng.permutation(40)
        shuffled = crop_frustum(self.make_proj(pix[perm]), boxes)
        assert np.array_equal(shuffled, base[perm])


class TestBoxClasses:
    def test_lookup_table(self):
        boxes = [Box2D(box_id=3, class_id=2, bounds=(0, 0, 1, 1)),
                 Box2D(box_id=1, class_id=1, bounds=(0, 0, 2, 2))]
        assert box_classes(boxes).tolist() == [0, 1, 0, 2]
        assert box_classes([]).tolist() == [0]
