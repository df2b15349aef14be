import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rsc_trace

from wlf.frames import Box2D, box_classes
from wlf.pipeline import reconcile_instances
from wlf.ring_correct import RscConfig, rsc_correct
from wlf.spatial import PseudoLabels


CFG = RscConfig(t1=0.5, t2=0.7)


class TestAlgorithmTraces:
    def test_background_dominates_vehicle_pass(self):
        # 4 vehicle, 3 background, 3 pedestrian: bg/veh = 0.75 > 0.5,
        # so the vehicle pass clears the whole segment (and the pedestrian
        # pass, bg/ped = 1 > 0.5, clears it too).
        pred = np.array([1, 1, 1, 1, 0, 0, 0, 2, 2, 2])
        out = rsc_correct(pred, [0] * 10, CFG, [10])
        assert out.tolist() == [0] * 10

    def test_class_claims_segment(self):
        # 8 vehicle, 2 background: 0.25 <= 0.5 and 0.8 > 0.7 claims everything.
        pred = np.array([1] * 8 + [0] * 2)
        out = rsc_correct(pred, [0] * 10, CFG, [10])
        assert out.tolist() == [1] * 10

    def test_full_pass_on_mixed_segment(self):
        # 5 vehicle, 2 bg, 3 ped: the vehicle pass crosses neither threshold
        # (0.4 <= 0.5, 0.5 <= 0.7), then the pedestrian pass (bg/ped = 2/3 > 0.5)
        # clears the segment.
        pred = np.array([1, 1, 1, 1, 1, 0, 0, 2, 2, 2])
        out = rsc_correct(pred, [0] * 10, CFG, [10])
        assert out.tolist() == [0] * 10

    def test_counts_use_original_predictions(self):
        # Segment 0 is cleared by the class-1 pass; class 2's counts in segment
        # 0 still see the original labels, not the cleared copy.
        pred = np.array([1, 0, 0, 2, 2, 2, 2, 2, 2, 2])
        ids = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        out = rsc_correct(pred, ids, CFG, np.bincount(ids))
        want = rsc_trace(pred, np.asarray(ids), 0.5, 0.7, [1, 2])
        assert out.tolist() == want.tolist()

    def test_uniform_segment_unchanged(self):
        pred = np.array([2, 2, 2])
        out = rsc_correct(pred, [0, 0, 0], CFG, [3])
        assert out.tolist() == [2, 2, 2]

    def test_ignored_points_count_only_toward_size(self):
        # 3 vehicle, 1 ignore in a 4-point segment: veh share 0.75 > 0.7 claims
        # the segment, overwriting the ignore.
        pred = np.array([1, 1, 1, -1])
        out = rsc_correct(pred, [0, 0, 0, 0], CFG, [4])
        assert out.tolist() == [1, 1, 1, 1]

    def test_empty_input(self):
        out = rsc_correct(np.zeros(0, dtype=int), np.zeros(0, dtype=np.int32), CFG, [])
        assert out.size == 0


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_literal_trace(self, seed):
        # Ignored points (-1) are neither background nor a class.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        pred = rng.integers(-1, 4, n).astype(np.int32)
        ids = np.sort(rng.integers(0, max(1, n // 4), n)).astype(np.int32)
        ids = np.unique(ids, return_inverse=True)[1].astype(np.int32)
        t1 = float(rng.uniform(0, 1))
        t2 = float(rng.uniform(0, 1))
        got = rsc_correct(pred, ids, RscConfig(t1=t1, t2=t2), np.bincount(ids))
        classes = sorted(int(c) for c in np.unique(pred) if c > 0)
        want = rsc_trace(pred, ids, t1, t2, classes)
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_output_labels_subset_of_input(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, 4, n).astype(np.int32)
        ids = np.unique(rng.integers(0, 5, n), return_inverse=True)[1].astype(np.int32)
        out = rsc_correct(pred, ids, CFG, np.bincount(ids))
        allowed = {0} | {int(c) for c in np.unique(pred)}
        assert set(np.unique(out).tolist()) <= allowed


class TestConfig:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            RscConfig(t1=1.5)
        with pytest.raises(ValueError):
            RscConfig(t2=-0.1)


class TestReconcile:
    CLASS_OF = box_classes([Box2D(box_id=1, class_id=2, bounds=(0, 0, 1, 1))])

    def test_instances_that_left_their_class_dropped_in_place(self):
        labels = PseudoLabels(semantic=np.array([2, 0, 1, 2]), instance=np.array([1, 1, 1, 0]))
        instance = labels.instance
        out = reconcile_instances(labels, self.CLASS_OF)
        assert out is labels and out.instance is instance
        assert out.instance.tolist() == [1, 0, 0, 0]
        assert out.semantic.tolist() == [2, 0, 1, 2]

    def test_read_only_instances_copied(self):
        # Labels read from an earlier run are read-only views of the file.
        instance = np.frombuffer(np.array([1, 1], dtype=np.int32).tobytes(), dtype=np.int32)
        labels = PseudoLabels(semantic=np.array([2, 0]), instance=instance)
        out = reconcile_instances(labels, self.CLASS_OF)
        assert out.instance.tolist() == [1, 0]
        assert instance.tolist() == [1, 1]
