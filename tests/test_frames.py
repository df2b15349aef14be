import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_BLOCK, as_columns
from oracles import back_project, crop_frustum_trace, project_points_full

from wlf.frames import (
    Box2D,
    Calibration,
    box_classes,
    crop_frustum,
    project_points,
)
from wlf.synth import SceneConfig, generate_scene


def simple_calib(f=100.0, cx=320.0, cy=240.0, size=(640, 480)) -> Calibration:
    k = np.array([[f, 0, cx], [0, f, cy], [0, 0, 1.0]])
    return Calibration(intrinsic=k, extrinsic=np.eye(4), image_size=size)


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
        index, pixels = project_points(simple_calib(), as_columns([[0, 0, 5]]))
        assert index.tolist() == [0]
        np.testing.assert_allclose(pixels[0], [320.0, 240.0])
        assert project_points_full(simple_calib(), as_columns([[0, 0, 5]]))[1][0] == 5.0

    def test_off_axis_point(self):
        # u = 100 * 1/5 + 320 = 340
        index, pixels = project_points(simple_calib(), as_columns([[1, 0, 5]]))
        np.testing.assert_allclose(pixels[0], [340.0, 240.0])

    def test_behind_camera_invalid(self):
        index, pixels = project_points(simple_calib(), as_columns([[0, 0, -1], [0, 0, 0]]))
        assert index.size == 0 and pixels.shape == (0, 2)

    def test_out_of_image_invalid(self):
        index, _ = project_points(simple_calib(), as_columns([[100, 0, 5]]))
        assert index.size == 0

    def test_non_finite_rejected(self):
        # The identity extrinsic gives x and y a zero weight in camera z.
        for axis in range(3):
            for bad in (np.nan, np.inf, -np.inf):
                xyz = as_columns([[0, 0, 5], [1, 1, -5]])
                xyz[axis, 1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    project_points(simple_calib(), xyz)

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
        index, pixels = project_points(calib, as_columns(xyz))
        want_pixels, depth, valid = project_points_full(calib, as_columns(xyz))
        assert np.array_equal(index, np.flatnonzero(valid))
        assert np.array_equal(pixels, want_pixels[valid])
        rec = back_project(calib, pixels, depth[index])
        np.testing.assert_allclose(rec, xyz[index], atol=1e-6)

    def test_matches_matrix_product_on_synth_scene(self):
        # Synth's extrinsic permutes the axes, so the column sums are exact
        # and equal the matrix product bit for bit.
        scene = generate_scene(SceneConfig(seed=4))
        calib = scene.calibration
        cam = scene.xyz.T @ calib.rotation.T + calib.translation
        front = cam[:, 2] > 0
        u = calib.fx * cam[front, 0] / cam[front, 2] + calib.cx
        v = calib.fy * cam[front, 1] / cam[front, 2] + calib.cy
        w, h = calib.image_size
        inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
        index, pixels = project_points(calib, scene.xyz)
        assert np.array_equal(index, np.flatnonzero(front)[inside])
        assert np.array_equal(pixels, np.stack([u[inside], v[inside]], axis=1))


class TestProjectInBlocks:
    """Under ``small_blocks`` a frame spans many point blocks; the indices
    and pixels are those of one pass."""

    @pytest.mark.parametrize("n", [0, SMALL_BLOCK, SMALL_BLOCK + 1, 7 * SMALL_BLOCK + 3])
    def test_matches_full_arrays(self, small_blocks, rng, n):
        # Points behind, beside and in front of a turned camera, so some
        # blocks keep no point and others all of theirs.
        extrinsic = np.eye(4)
        extrinsic[:3, :3] = rotation_from_angles(0.3, -0.2, 0.1)
        extrinsic[:3, 3] = [0.5, -0.25, 1.0]
        k = np.array([[40.0, 0, 32], [0, 40.0, 24], [0, 0, 1]])
        calib = Calibration(k, extrinsic, (64, 48))
        xyz = rng.uniform(-4.0, 4.0, (3, n)).astype(np.float32)
        xyz[:, 2 * SMALL_BLOCK : 3 * SMALL_BLOCK] = [[0.0], [0.0], [-8.0]]
        pixels, _, valid = project_points_full(calib, xyz)
        index, got_pixels = project_points(calib, xyz)
        assert index.dtype == np.intp and got_pixels.dtype == np.float64
        assert np.array_equal(index, np.flatnonzero(valid))
        assert np.array_equal(got_pixels, pixels[valid])
        if n > SMALL_BLOCK + 1:
            assert 0 < index.size < n

    def test_non_finite_in_a_later_block_rejected(self, small_blocks):
        xyz = as_columns([[0, 0, 5]] * (3 * SMALL_BLOCK))
        xyz[2, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            project_points(simple_calib(), xyz)


@st.composite
def frustum_cases(draw):
    """A calibration, a frame's xyz and boxes. Half the cases are dyadic: a signed
    axis permutation, power-of-two focal lengths and integer offsets keep
    every sum exact, so points land exactly on the image border, on chosen
    pixels and at camera z == 0. Box edges come from the same pixels, from
    the points' projections or from anywhere around the image, so boxes lie
    partly or wholly outside it and tie in area."""
    w, h = draw(st.integers(4, 48)), draw(st.integers(4, 48))
    n = draw(st.integers(0, 30))
    if draw(st.booleans()):
        rot = np.zeros((3, 3))
        rot[np.arange(3), draw(st.permutations(range(3)))] = draw(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
        fx, fy = draw(st.sampled_from([2.0, 4.0, 8.0])), draw(st.sampled_from([2.0, 4.0, 8.0]))
        cx, cy = draw(st.integers(0, w)), draw(st.integers(0, h))
        t = np.array(draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)), dtype=float)
        us = st.integers(-2, w + 2).map(float)
        vs = st.integers(-2, h + 2).map(float)
        cam = np.zeros((n, 3))
        for i in range(n):
            z = draw(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0]))
            u, v = draw(us), draw(vs)
            cam[i] = [(u - cx) * z / fx, (v - cy) * z / fy, z] if z else [u - cx, v - cy, z]
    else:
        rot = rotation_from_angles(*(draw(st.floats(-np.pi, np.pi)) for _ in range(3)))
        fx, fy = draw(st.floats(20, 400)), draw(st.floats(20, 400))
        cx, cy = draw(st.floats(0, w)), draw(st.floats(0, h))
        t = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
        coord = st.floats(-40, 40)
        cam = np.array([[draw(coord), draw(coord), draw(st.one_of(st.just(0.0), st.floats(-5, 40)))]
                        for _ in range(n)]).reshape(n, 3)
        us, vs = st.floats(-w / 2, 1.5 * w), st.floats(-h / 2, 1.5 * h)
    extrinsic = np.eye(4)
    extrinsic[:3, :3], extrinsic[:3, 3] = rot, t
    calib = Calibration(np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]]), extrinsic, (w, h))
    xyz = as_columns((cam - t) @ rot)
    pixels = project_points_full(calib, xyz)[0]
    seen_u = [float(u) for u in pixels[:, 0] if np.isfinite(u)] + [0.0, float(w)]
    seen_v = [float(v) for v in pixels[:, 1] if np.isfinite(v)] + [0.0, float(h)]
    boxes = []
    for box_id in draw(st.lists(st.integers(1, 9), max_size=6, unique=True)):
        x0, x1 = sorted(draw(st.one_of(us, st.sampled_from(seen_u))) for _ in range(2))
        y0, y1 = sorted(draw(st.one_of(vs, st.sampled_from(seen_v))) for _ in range(2))
        if x0 < x1 and y0 < y1:
            boxes.append(Box2D(box_id=box_id, class_id=1, bounds=(x0, y0, x1, y1)))
    return calib, xyz, boxes


class TestFrustumMatchesOracle:
    # A camera z near the smallest float sends u and v to infinity, outside.
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    @settings(max_examples=300, deadline=None)
    @given(frustum_cases())
    def test_crop_of_projection_matches_full_arrays(self, case):
        calib, xyz, boxes = case
        pixels, _, valid = project_points_full(calib, xyz)
        index, got_pixels = project_points(calib, xyz)
        assert np.array_equal(index, np.flatnonzero(valid))
        assert np.array_equal(got_pixels, pixels[valid])
        got = crop_frustum(index, got_pixels, xyz.shape[1], boxes)
        assert got.dtype == np.int32
        assert np.array_equal(got, crop_frustum_trace(pixels, valid, boxes))


class TestCalibrationValidation:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(4)
        bad[0, 1] = 0.01
        with pytest.raises(ValueError, match="orthonormal"):
            Calibration(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1.0]]), bad, (10, 10))

    @pytest.mark.parametrize("col, value", [(0, 1.5), (3, 0.0), (2, -1.0)])
    def test_rejects_bottom_row_other_than_0001(self, col, value):
        bad = np.eye(4)
        bad[3, col] = value
        with pytest.raises(ValueError, match=r"extrinsic\[3\] .* is not \[0, 0, 0, 1\]"):
            Calibration(np.eye(3), bad, (10, 10))

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

    @pytest.mark.parametrize("bounds", [("1", "2", "3", "4"), (0, 0, True, True),
                                        (0, 0, 10, None), (0.0, 0.0, 10, "20")],
                             ids=["strings", "bools", "none", "one-string"])
    def test_non_numeric_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match=r"^bounds\[\d\] .* is not a finite number"):
            Box2D(box_id=1, class_id=1, bounds=bounds)

    def test_box_id_bound(self):
        # The id -> class table is as long as the largest id: 65535 makes a
        # 256 KiB table, and one id past it is refused.
        top = Box2D(box_id=65535, class_id=2, bounds=(0, 0, 1, 1))
        class_of = box_classes([top])
        assert class_of.nbytes == 2**18 and class_of[65535] == 2
        with pytest.raises(ValueError, match=r"^box_id 65536 is not an integer in \[1, 65535\]"):
            Box2D(box_id=65536, class_id=1, bounds=(0, 0, 1, 1))


class TestCropFrustum:
    def make_proj(self, pixels, valid=None):
        """``(index, pixels, num_points)`` with the valid points in the image."""
        pixels = np.asarray(pixels, dtype=float)
        n = pixels.shape[0]
        valid = np.ones(n, dtype=bool) if valid is None else np.asarray(valid)
        return np.flatnonzero(valid), pixels[valid], n

    def test_containment(self):
        proj = self.make_proj([[340, 240]])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(*proj, boxes).tolist() == [1]

    def test_outside_all_boxes(self):
        proj = self.make_proj([[10, 10]])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(*proj, boxes).tolist() == [0]

    def test_invalid_projection_unassigned(self):
        proj = self.make_proj([[340, 240]], valid=[False])
        boxes = [Box2D(box_id=1, class_id=1, bounds=(300, 200, 400, 300))]
        assert crop_frustum(*proj, boxes).tolist() == [0]

    def test_smaller_area_wins(self):
        proj = self.make_proj([[50, 50]])
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 100, 100)),  # area 10000
            Box2D(box_id=2, class_id=1, bounds=(25, 25, 75, 75)),  # area 2500
        ]
        assert crop_frustum(*proj, boxes).tolist() == [2]

    def test_edges_nested_and_identical_boxes(self):
        # Pixels on every edge and corner of the boxes, with repeated u; box 3
        # is nested in box 1, and boxes 4 and 2 share their bounds (the
        # smaller id wins the tie in area).
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(10, 10, 30, 30)),
            Box2D(box_id=4, class_id=1, bounds=(20, 0, 40, 20)),
            Box2D(box_id=3, class_id=2, bounds=(15, 15, 25, 25)),
            Box2D(box_id=2, class_id=1, bounds=(20, 0, 40, 20)),
        ]
        edges = [10, 15, 20, 25, 30, 40, 0]
        pix = [[u, v] for u in edges for v in edges] + [[np.nextafter(30, 0), 20], [20, 20]]
        proj = self.make_proj(pix)
        got = crop_frustum(*proj, boxes)
        want = crop_frustum_trace(np.asarray(pix, dtype=float), np.ones(len(pix), dtype=bool), boxes)
        assert np.array_equal(got, want)
        by_pixel = dict(zip(map(tuple, pix), got.tolist()))
        assert by_pixel[(10, 10)] == 1 and by_pixel[(30, 10)] == 2 and by_pixel[(10, 30)] == 0
        assert by_pixel[(15, 15)] == 3 and by_pixel[(25, 15)] == 1 and by_pixel[(20, 15)] == 3
        assert by_pixel[(20, 0)] == 2 and by_pixel[(40, 0)] == 0 and by_pixel[(20, 20)] == 3

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40),
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(1, 6), st.integers(1, 6)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_matches_enumeration_on_box_edges(self, pix, raw_boxes):
        # Integer pixels and bounds put many pixels on edges, tie many u and
        # give nested, overlapping and identical boxes.
        boxes = [Box2D(box_id=i + 1, class_id=1, bounds=(x0, y0, x0 + w, y0 + h))
                 for i, (x0, y0, w, h) in enumerate(raw_boxes)]
        got = crop_frustum(*self.make_proj(pix), boxes)
        want = crop_frustum_trace(np.asarray(pix, dtype=float), np.ones(len(pix), dtype=bool), boxes)
        assert np.array_equal(got, want)

    def test_empty_boxes(self):
        proj = self.make_proj([[50, 50]])
        assert crop_frustum(*proj, []).tolist() == [0]

    def test_duplicate_ids_rejected(self):
        proj = self.make_proj([[50, 50]])
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10)),
            Box2D(box_id=1, class_id=2, bounds=(0, 0, 20, 20)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            crop_frustum(*proj, boxes)

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
        got = crop_frustum(*proj, boxes)
        want = crop_frustum_trace(np.asarray(pix), np.ones(len(pix), dtype=bool), boxes)
        assert np.array_equal(got, want)

    def test_permutation_equivariance(self, rng):
        pix = rng.uniform(0, 100, (40, 2))
        proj = self.make_proj(pix)
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 50, 50)),
            Box2D(box_id=2, class_id=2, bounds=(30, 30, 90, 90)),
        ]
        base = crop_frustum(*proj, boxes)
        perm = rng.permutation(40)
        shuffled = crop_frustum(*self.make_proj(pix[perm]), boxes)
        assert np.array_equal(shuffled, base[perm])


class TestBoxClasses:
    def test_lookup_table(self):
        boxes = [Box2D(box_id=3, class_id=2, bounds=(0, 0, 1, 1)),
                 Box2D(box_id=1, class_id=1, bounds=(0, 0, 2, 2))]
        assert box_classes(boxes).tolist() == [0, 1, 0, 2]
        assert box_classes([]).tolist() == [0]

    def test_repeated_id_takes_its_last_listing(self):
        boxes = [Box2D(box_id=1, class_id=1, bounds=(0, 0, 1, 1)),
                 Box2D(box_id=2, class_id=2, bounds=(0, 0, 1, 1)),
                 Box2D(box_id=1, class_id=3, bounds=(0, 0, 2, 2))]
        assert box_classes(boxes).tolist() == [0, 3, 2]
