import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generate_labels_per_box

from wlf.clustering import ClassRadii
from wlf.frames import Box2D, Frame, crop_frustum, project_points
from wlf.metrics import confusion_counts, miou_from_counts
from wlf.range_image import DcsConfig, RingSegments, build_range_image, dcs_dynamic
from wlf.spatial import (
    PseudoLabels,
    frustum_semantic,
    generate_labels,
    refine_by_segments,
    trinary_from_prop,
)
from wlf.synth import SceneConfig, generate_scene


def segs(ids) -> RingSegments:
    ids = np.asarray(ids, dtype=np.int32)
    return RingSegments(segment_id=ids, num_segments=int(ids.max()) + 1 if ids.size else 0)


def make_frame(xyz) -> Frame:
    xyz = np.asarray(xyz, dtype=float)
    pts = np.zeros((xyz.shape[0], 4))
    pts[:, :3] = xyz
    return Frame(frame_id="t", points=pts, beam_row=np.zeros(xyz.shape[0], dtype=int))


class TestTrinaryFromProp:
    def test_strict_boundaries(self):
        assert trinary_from_prop(0.5) == -1
        assert trinary_from_prop(0.1) == -1
        assert trinary_from_prop(0.5 + 1e-9) == 0
        assert trinary_from_prop(0.1 - 1e-9) == 1

    def test_integer_count_boundaries(self):
        # 5 outside / 5 inside gives exactly 0.5; 1 outside / 9 inside exactly 0.1.
        assert trinary_from_prop(5 / 10) == -1
        assert trinary_from_prop(1 / 10) == -1

    def test_array_matches_scalar_calls(self):
        props = np.array([0.0, 0.1 - 1e-9, 0.1, 0.3, 0.5, 0.5 + 1e-9, 1.0])
        codes = trinary_from_prop(props)
        assert codes.dtype == np.int8
        assert codes.tolist() == [int(trinary_from_prop(p)) for p in props]
        assert codes.tolist() == [1, 1, -1, -1, -1, 0, 0]


class TestRefineBySegments:
    def test_mostly_outside_becomes_background(self):
        # One segment: 3 in-box, 7 out-of-box -> prop 0.7 -> background.
        assign = np.array([1, 1, 1] + [0] * 7)
        labels = refine_by_segments(assign, segs([0] * 10))
        assert labels[:3].tolist() == [0, 0, 0]
        assert labels[3:].tolist() == [0] * 7

    def test_fully_inside_is_foreground(self):
        assign = np.array([2, 2, 2, 2])
        labels = refine_by_segments(assign, segs([0, 0, 0, 0]))
        assert labels.tolist() == [1, 1, 1, 1]

    def test_ambiguous_band_is_ignore(self):
        # 8 in, 2 out -> prop 0.2 -> ignore.
        assign = np.array([1] * 8 + [0] * 2)
        labels = refine_by_segments(assign, segs([0] * 10))
        assert labels[:8].tolist() == [-1] * 8

    def test_exact_half_is_ignore(self):
        assign = np.array([1] * 5 + [0] * 5)
        labels = refine_by_segments(assign, segs([0] * 10))
        assert labels[:5].tolist() == [-1] * 5

    def test_exact_tenth_is_ignore(self):
        assign = np.array([1] * 9 + [0])
        labels = refine_by_segments(assign, segs([0] * 10))
        assert labels[:9].tolist() == [-1] * 9

    def test_out_of_box_points_stay_background(self):
        assign = np.array([0, 0, 1, 1])
        labels = refine_by_segments(assign, segs([0, 0, 1, 1]))
        assert labels[0] == 0 and labels[1] == 0

    def test_segments_independent(self):
        assign = np.array([1, 1, 2, 0, 0, 0])
        ids = [0, 0, 1, 1, 1, 1]
        labels = refine_by_segments(assign, segs(ids))
        assert labels[0] == 1 and labels[1] == 1  # segment 0 fully inside
        assert labels[2] == 0  # segment 1: 1 in / 3 out -> prop 0.75


class TestGenerateLabels:
    def cluster_points(self, center, n, spread=0.1, seed=0):
        rng = np.random.default_rng(seed)
        return center + rng.uniform(-spread, spread, (n, 3))

    def test_max_cluster_claims_instance(self):
        big = self.cluster_points(np.array([10.0, 0, 0]), 20, seed=1)
        small = self.cluster_points(np.array([14.0, 3.0, 0]), 4, seed=2)
        frame = make_frame(np.vstack([big, small]))
        trinary = np.ones(24, dtype=np.int8)
        assign = np.ones(24, dtype=np.int32)
        boxes = [Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10))]
        labels = generate_labels(frame, trinary, assign, boxes, ClassRadii())
        assert (labels.semantic[:20] == 1).all()
        assert (labels.instance[:20] == 1).all()
        assert (labels.semantic[20:] == -1).all()
        assert (labels.instance[20:] == 0).all()

    def test_box_without_foreground_emits_nothing(self):
        frame = make_frame(self.cluster_points(np.array([5.0, 0, 0]), 6))
        trinary = np.zeros(6, dtype=np.int8)
        assign = np.ones(6, dtype=np.int32)
        boxes = [Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10))]
        labels = generate_labels(frame, trinary, assign, boxes, ClassRadii())
        assert (labels.semantic == 0).all()
        assert (labels.instance == 0).all()

    def test_two_disjoint_boxes(self):
        a = self.cluster_points(np.array([8.0, 2.0, 0]), 10, seed=3)
        b = self.cluster_points(np.array([8.0, -2.0, 0]), 8, seed=4)
        frame = make_frame(np.vstack([a, b]))
        trinary = np.ones(18, dtype=np.int8)
        assign = np.array([1] * 10 + [2] * 8, dtype=np.int32)
        boxes = [
            Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10)),
            Box2D(box_id=2, class_id=2, bounds=(20, 0, 30, 10)),
        ]
        labels = generate_labels(frame, trinary, assign, boxes, ClassRadii(radii={1: 0.6, 2: 0.6}))
        assert set(np.unique(labels.instance[labels.instance > 0]).tolist()) == {1, 2}
        assert (labels.semantic[:10] == 1).all()
        assert (labels.semantic[10:] == 2).all()
        labels.check_consistency(boxes)

    def test_ignored_points_stay_ignored(self):
        frame = make_frame(self.cluster_points(np.array([5.0, 0, 0]), 4))
        trinary = np.array([-1, -1, 0, 0], dtype=np.int8)
        assign = np.array([1, 0, 1, 0], dtype=np.int32)
        boxes = [Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10))]
        labels = generate_labels(frame, trinary, assign, boxes, ClassRadii())
        assert labels.semantic.tolist() == [-1, -1, 0, 0]

    def test_labels_partition(self, rng):
        # Every point lands in exactly one of ignore / background / one instance.
        scene = generate_scene(SceneConfig(seed=11, box_pad_px=6.0))
        frame = scene.frame
        index, pixels = project_points(scene.calibration, frame)
        assign = crop_frustum(index, pixels, frame.num_points, scene.boxes)
        ri = build_range_image(frame, scene.config.beams, scene.config.columns)
        segments = dcs_dynamic(*ri, DcsConfig())
        trinary = refine_by_segments(assign, segments)
        labels = generate_labels(frame, trinary, assign, scene.boxes, ClassRadii())
        labels.check_consistency(scene.boxes)
        sem, inst = labels.semantic, labels.instance
        assert np.all((inst > 0) == (sem > 0))
        assert np.all((sem == -1) | (sem == 0) | (inst > 0))


def assert_matches_per_box(frame, trinary, assign, boxes, radii):
    labels = generate_labels(frame, trinary, assign, boxes, radii)
    semantic, instance = generate_labels_per_box(frame, trinary, assign, boxes, radii)
    assert np.array_equal(labels.semantic, semantic)
    assert np.array_equal(labels.instance, instance)


@st.composite
def label_cases(draw):
    """Frames of clustered points with up to five boxes: ids in any order and
    with gaps, repeated classes, class 4 (no radius, never foreground), the
    highest id often given no points, and assignments to unlisted ids."""
    ids = draw(st.lists(st.integers(1, 9), unique=True, max_size=5))
    classes = [draw(st.integers(1, 4)) for _ in ids]
    boxes = [Box2D(box_id=i, class_id=c, bounds=(0, 0, 1, 1)) for i, c in zip(ids, classes)]
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    centers = rng.uniform(-3, 3, (4, 3))
    xyz = centers[rng.integers(0, 4, n)] + rng.normal(0, draw(st.floats(0.02, 0.5)), (n, 3))
    pool = [0, 10] + ids
    if ids and draw(st.booleans()):
        pool.remove(max(ids))
    assign = rng.choice(pool, n).astype(np.int32)
    trinary = rng.integers(-1, 2, n).astype(np.int8)
    no_radius = np.isin(assign, [b.box_id for b in boxes if b.class_id == 4])
    trinary[no_radius & (trinary == 1)] = 0
    radii = ClassRadii({c: draw(st.floats(0.05, 1.0)) for c in (1, 2, 3)})
    return make_frame(xyz.reshape(n, 3)), trinary, assign, boxes, radii


class TestGenerateLabelsMatchesPerBox:
    @settings(max_examples=200, deadline=None)
    @given(label_cases())
    def test_random_frames(self, case):
        assert_matches_per_box(*case)

    def test_highest_box_without_points(self):
        frame = make_frame(TestGenerateLabels().cluster_points(np.array([5.0, 0, 0]), 12))
        boxes = [Box2D(box_id=k, class_id=1, bounds=(0, 0, 1, 1)) for k in (2, 7, 3)]
        assign = np.array([2] * 6 + [3] * 6, dtype=np.int32)
        assert_matches_per_box(frame, np.ones(12, dtype=np.int8), assign, boxes, ClassRadii())

    def test_no_box_with_foreground(self):
        frame = make_frame(TestGenerateLabels().cluster_points(np.array([5.0, 0, 0]), 6))
        boxes = [Box2D(box_id=1, class_id=9, bounds=(0, 0, 1, 1))]
        trinary = np.array([-1, 0, -1, 0, 0, 1], dtype=np.int8)
        assign = np.array([1, 1, 1, 1, 0, 0], dtype=np.int32)
        assert_matches_per_box(frame, trinary, assign, boxes, ClassRadii())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("stage", ["spg", "plain"])
    def test_sensor_frames(self, seed, stage):
        # The benchmark's sensor scene: four vehicles at 12-20 m on a 64x2048
        # raster give dense clouds of thousands of points per box.
        cfg = SceneConfig(seed=seed, beams=64, columns=2048, vehicles=(4, 4),
                          vehicle_distance=(12.0, 20.0))
        scene = generate_scene(cfg)
        frame = scene.frame
        index, pixels = project_points(scene.calibration, frame)
        assign = crop_frustum(index, pixels, frame.num_points, scene.boxes)
        if stage == "spg":
            segments = dcs_dynamic(*build_range_image(frame, cfg.beams, cfg.columns), DcsConfig())
            trinary = refine_by_segments(assign, segments)
        else:
            trinary = (assign > 0).astype(np.int8)
        assert np.count_nonzero((assign > 0) & (trinary == 1)) > 4000
        assert_matches_per_box(frame, trinary, assign, scene.boxes, ClassRadii())


class TestDirectionalQuality:
    def test_refinement_beats_raw_frustum(self):
        # Pooled over a handful of cluttered frames, segment refinement must
        # not lose to the raw crop.
        tp = np.zeros(4, dtype=np.int64)
        fp = np.zeros(4, dtype=np.int64)
        fn = np.zeros(4, dtype=np.int64)
        tp_r, fp_r, fn_r = tp.copy(), fp.copy(), fn.copy()
        for seed in range(8):
            scene = generate_scene(
                SceneConfig(seed=seed, box_pad_px=10.0, vehicle_distance=(8.0, 16.0))
            )
            frame = scene.frame
            index, pixels = project_points(scene.calibration, frame)
            assign = crop_frustum(index, pixels, frame.num_points, scene.boxes)
            ri = build_range_image(frame, scene.config.beams, scene.config.columns)
            segments = dcs_dynamic(*ri, DcsConfig())
            trinary = refine_by_segments(assign, segments)
            labels = generate_labels(frame, trinary, assign, scene.boxes, ClassRadii())
            for acc, sem in (((tp, fp, fn), labels.semantic),
                             ((tp_r, fp_r, fn_r), frustum_semantic(assign, scene.boxes))):
                a, b, c = confusion_counts(sem, frame.gt_semantic, 3)
                acc[0][:] += a
                acc[1][:] += b
                acc[2][:] += c
        _, refined = miou_from_counts(tp, fp, fn)
        _, raw = miou_from_counts(tp_r, fp_r, fn_r)
        assert refined >= raw


class TestFrustumSemantic:
    def test_maps_box_class(self):
        boxes = [
            Box2D(box_id=1, class_id=3, bounds=(0, 0, 1, 1)),
            Box2D(box_id=2, class_id=1, bounds=(0, 0, 2, 2)),
        ]
        sem = frustum_semantic(np.array([0, 1, 2, 1]), boxes)
        assert sem.tolist() == [0, 3, 1, 3]


class TestPseudoLabels:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PseudoLabels(semantic=np.zeros(3), instance=np.zeros(4))

    def test_consistency_catches_wrong_class(self):
        boxes = [Box2D(box_id=1, class_id=2, bounds=(0, 0, 1, 1))]
        labels = PseudoLabels(semantic=np.array([1]), instance=np.array([1]))
        with pytest.raises(AssertionError):
            labels.check_consistency(boxes)

    def test_consistency_catches_unknown_instance(self):
        boxes = [Box2D(box_id=2, class_id=1, bounds=(0, 0, 1, 1))]
        for inst in (1, 3):  # below and above the only box id
            labels = PseudoLabels(semantic=np.array([0]), instance=np.array([inst]))
            with pytest.raises(AssertionError, match="name a box"):
                labels.check_consistency(boxes)
