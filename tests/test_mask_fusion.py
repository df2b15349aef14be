import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fusion_weights_direct

from wlf.frames import Box2D
from wlf.mask_fusion import (
    IpgConfig,
    MaskPrediction,
    binarize,
    box_iou,
    fusion_weights,
    pseudo_loss,
    weight_masks,
)


class TestBoxIoU:
    def test_identical(self):
        assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        # 10x10 boxes offset by 5: inter 50, union 150.
        assert box_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)


class TestFusionWeights:
    def test_worked_example(self):
        w = fusion_weights(np.array([0.8, 0.2]), np.array([0.9, 0.5]), k=1.0)
        np.testing.assert_allclose(w, [0.8565, 0.1435], atol=1e-4)
        assert w.sum() == pytest.approx(1.0, abs=1e-6)

    def test_single_prediction(self):
        np.testing.assert_allclose(fusion_weights(np.array([0.3]), np.array([0.2]), 1.0), [1.0])

    def test_zero_scores_fall_back_to_uniform(self):
        w = fusion_weights(np.zeros(4), np.array([0.9, 0.5, 0.1, 0.0]), 1.0)
        np.testing.assert_allclose(w, 0.25)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.floats(0, 5))
    def test_sum_one_and_matches_direct_formula(self, seed, n, k):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.01, 1, n)
        ious = rng.uniform(0, 1, n)
        w = fusion_weights(scores, ious, k)
        assert w.sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(w, fusion_weights_direct(scores, ious, k), atol=1e-12)

    def test_monotone_in_score_and_iou(self):
        scores = np.array([0.5, 0.5, 0.5])
        ious = np.array([0.5, 0.5, 0.5])
        base = fusion_weights(scores, ious, 1.0)[0]
        assert fusion_weights(np.array([0.6, 0.5, 0.5]), ious, 1.0)[0] > base
        assert fusion_weights(scores, np.array([0.6, 0.5, 0.5]), 1.0)[0] > base


class TestWeightMasks:
    def box(self):
        return Box2D(box_id=1, class_id=1, bounds=(0, 0, 10, 10))

    def test_single_prediction_identity(self, rng):
        prob = rng.uniform(0, 1, (6, 8))
        pred = MaskPrediction(prob_map=prob, score=0.7, pred_box=(0, 0, 9, 9))
        fused = weight_masks([pred], self.box(), k=1.0)
        np.testing.assert_allclose(fused, prob)

    def test_equal_scores_k0_is_mean(self, rng):
        a = rng.uniform(0, 1, (4, 4))
        b = rng.uniform(0, 1, (4, 4))
        preds = [
            MaskPrediction(prob_map=a, score=0.5, pred_box=(0, 0, 5, 5)),
            MaskPrediction(prob_map=b, score=0.5, pred_box=(2, 2, 9, 9)),
        ]
        fused = weight_masks(preds, self.box(), k=0.0)
        np.testing.assert_allclose(fused, (a + b) / 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_fused_within_input_envelope(self, seed, n):
        rng = np.random.default_rng(seed)
        preds = [
            MaskPrediction(
                prob_map=rng.uniform(0, 1, (5, 5)),
                score=float(rng.uniform(0.05, 1)),
                pred_box=tuple(sorted(rng.uniform(0, 5, 2)) + sorted(rng.uniform(5.5, 10, 2))),
            )
            for _ in range(n)
        ]
        # pred_box tuples need (x0,y0,x1,y1); rebuild properly
        preds = [
            MaskPrediction(
                prob_map=p.prob_map,
                score=p.score,
                pred_box=(0.0, 0.0, float(rng.uniform(1, 10)), float(rng.uniform(1, 10))),
            )
            for p in preds
        ]
        fused = weight_masks(preds, self.box(), k=1.0)
        stack = np.stack([p.prob_map for p in preds])
        assert (fused <= stack.max(axis=0) + 1e-12).all()
        assert (fused >= stack.min(axis=0) - 1e-12).all()

    def test_mismatched_shapes_rejected(self):
        preds = [
            MaskPrediction(prob_map=np.zeros((2, 2)), score=0.5, pred_box=(0, 0, 1, 1)),
            MaskPrediction(prob_map=np.zeros((3, 3)), score=0.5, pred_box=(0, 0, 1, 1)),
        ]
        with pytest.raises(ValueError, match="shape"):
            weight_masks(preds, self.box())


class TestBinarize:
    def test_reference_thresholds(self):
        cfg = IpgConfig(tau_low=0.3, tau_high=0.7)
        out = binarize(np.array([[0.8, 0.1, 0.5]]), cfg)
        assert out.tolist() == [[1, 0, -1]]

    def test_boundaries_are_ignore(self):
        cfg = IpgConfig(tau_low=0.3, tau_high=0.7)
        out = binarize(np.array([[0.3, 0.7]]), cfg)
        assert out.tolist() == [[-1, -1]]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IpgConfig(tau_low=0.7, tau_high=0.3)


class TestPseudoLoss:
    def test_perfect_match_near_zero(self):
        target = np.array([[1, 0], [0, 1]], dtype=np.int8)
        pred = target.astype(float)
        assert pseudo_loss(pred, target) < 1e-5

    def test_uniform_half_example(self):
        # 4 pixels, 2 foreground, prediction 0.5 everywhere:
        # bce = ln 2, dice = 1 - 2*1/(2+2) = 0.5.
        target = np.array([[1, 1], [0, 0]], dtype=np.int8)
        pred = np.full((2, 2), 0.5)
        assert pseudo_loss(pred, target) == pytest.approx(math.log(2) + 0.5, abs=1e-6)

    def test_ignored_pixels_equal_subset_loss(self, rng):
        pred = rng.uniform(0.05, 0.95, (4, 4))
        target = rng.integers(0, 2, (4, 4)).astype(np.int8)
        masked = target.copy()
        masked[2:] = -1
        assert pseudo_loss(pred, masked) == pytest.approx(
            pseudo_loss(pred[:2], target[:2]), abs=1e-12
        )

    def test_all_ignored_is_zero(self):
        assert pseudo_loss(np.full((2, 2), 0.4), np.full((2, 2), -1, dtype=np.int8)) == 0.0
