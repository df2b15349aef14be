import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances_from_sets
from oracles import ap_trace, miou_trace

from wlf.metrics import (
    GT_INSTANCE,
    IOU_THRESHOLDS,
    PRED_INSTANCE,
    MetricReport,
    confusion_counts,
    instance_ap,
    instances_from_labels,
    miou_from_counts,
    overlap_table,
    pred_instances_from_labels,
)


def miou(pred, gt, n_cls):
    return miou_from_counts(*confusion_counts(pred, gt, n_cls))


def oracle_ap(frames: dict, classes: list[int], threshold: float) -> dict[int, float]:
    """Per-class AP from ``ap_trace`` on point sets, ``frames`` mapping each
    frame id to its (preds, gts) as ``instances_from_sets`` takes them."""
    out = {}
    for cls in classes:
        preds = [(f, idx, s) for f, (ps, _) in frames.items() for c, idx, s in ps if c == cls]
        order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], preds[i][0], i))
        gts = [(f, idx) for f, (_, gs) in frames.items() for c, idx in gs if c == cls]
        out[cls] = ap_trace([preds[i] for i in order], gts, threshold)
    return out


class TestMiou:
    def test_exact_match(self):
        pred = np.array([0, 1, 1, 2])
        per, mean = miou(pred, pred, 2)
        assert per == {1: 1.0, 2: 1.0}
        assert mean == 1.0

    def test_partial_overlap(self):
        # pred fg {a,b}, gt fg {b,c}: one of three union points matches.
        pred = np.array([1, 1, 0, 0])
        gt = np.array([0, 1, 1, 0])
        per, mean = miou(pred, gt, 1)
        assert per[1] == pytest.approx(1 / 3)

    def test_disjoint_is_zero(self):
        pred = np.array([1, 1, 0, 0])
        gt = np.array([0, 0, 1, 1])
        per, _ = miou(pred, gt, 1)
        assert per[1] == 0.0

    def test_gt_ignore_excluded(self):
        pred = np.array([1, 1])
        gt = np.array([1, -1])
        per, mean = miou(pred, gt, 1)
        assert per[1] == 1.0

    def test_absent_class_excluded_from_mean(self):
        pred = np.array([1, 0])
        gt = np.array([1, 0])
        per, mean = miou(pred, gt, 3)
        assert set(per) == {1}
        assert mean == 1.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 40))
    def test_matches_loop_oracle(self, seed, n):
        # Labels above n_cls count as no class, like 0.
        rng = np.random.default_rng(seed)
        pred = rng.integers(-1, 6, n)
        gt = rng.integers(-1, 6, n)
        per, mean = miou(pred, gt, 3)
        want_per, want_mean = miou_trace(pred, gt, 3)
        assert per == pytest.approx(want_per)
        assert mean == pytest.approx(want_mean)


class TestInstanceAp:
    def frame(self, preds, gts, frame_id="f"):
        return [instances_from_sets(frame_id, preds, gts)]

    def test_exact_single_prediction(self):
        frames = self.frame([(1, range(5), 0.9)], [(1, range(5))])
        per, mean_ap, ap50, ap75 = instance_ap(frames)
        assert per[1] == 1.0 and mean_ap == 1.0 and ap50 == 1.0 and ap75 == 1.0

    def test_no_predictions(self):
        per, mean_ap, ap50, ap75 = instance_ap(self.frame([], [(1, range(5))]))
        assert per[1] == 0.0 and mean_ap == 0.0

    def test_tp_plus_fp_gives_51_over_101(self):
        gts = [(1, range(5)), (1, range(10, 15))]
        preds = [
            (1, range(5), 0.9),          # exact match
            (1, range(20, 25), 0.8),     # pure false positive
        ]
        _, _, ap50, _ = instance_ap(self.frame(preds, gts))
        assert ap50 == pytest.approx(51 / 101, abs=1e-6)

    def test_prediction_class_must_match(self):
        frames = self.frame([(2, range(5), 0.9)], [(1, range(5))])
        per, mean_ap, _, _ = instance_ap(frames)
        assert per[1] == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_gt = int(rng.integers(1, 4))
            gts, preds = [], []
            used = 0
            for g in range(n_gt):
                pts = list(range(used, used + int(rng.integers(3, 8))))
                used += len(pts)
                gts.append((1, pts))
                take = int(rng.integers(1, len(pts) + 1))
                preds.append((1, pts[:take], float(rng.uniform(0.1, 1))))
            aps = []
            for t in IOU_THRESHOLDS:
                _, mean_ap, _, _ = instance_ap(self.frame(preds, gts), iou_thresholds=np.array([t]))
                aps.append(mean_ap)
            assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_invariant_under_instance_relabeling(self):
        gts = [(1, range(6)), (1, range(10, 13))]
        preds = [(1, range(6), 0.9), (1, range(10, 13), 0.7)]
        base = instance_ap(self.frame(preds, gts))
        swapped = instance_ap(self.frame(list(reversed(preds)), list(reversed(gts))))
        assert base == swapped

    def test_equal_iou_goes_to_the_first_gt(self):
        # The pred overlaps both gts by 2 of 4 points; it takes the first gt,
        # so the second pred, an exact copy of that gt, finds it taken.
        gts = [(1, [0, 1, 2]), (1, [2, 3, 4])]
        preds = [(1, [1, 2, 3], 0.9), (1, [0, 1, 2], 0.8)]
        per, _, _, _ = instance_ap(self.frame(preds, gts), iou_thresholds=np.array([0.5]))
        assert per[1] == pytest.approx(51 / 101)  # 1.0 had the second gt won the tie
        assert per[1] == pytest.approx(oracle_ap({"f": (preds, gts)}, [1], 0.5)[1])

    def test_zero_iou_never_matches(self):
        # Even at a threshold of 0 a pred that shares no point with a gt is a
        # false positive.
        frames = self.frame([(1, [5, 6], 0.9)], [(1, [1, 2])])
        per, _, _, _ = instance_ap(frames, iou_thresholds=np.array([0.0]))
        assert per[1] == 0.0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_pr_curve_oracle(self, seed):
        # One to three frames, two classes, and scores drawn from a few values
        # so that they tie across frames and within one.
        rng = np.random.default_rng(seed)
        pool = list(range(20))
        frames = {}
        for f in range(int(rng.integers(1, 4))):
            gts = [
                (int(rng.integers(1, 3)), rng.choice(pool, int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(int(rng.integers(0, 5)))
            ]
            preds = [
                (int(rng.integers(1, 3)), rng.choice(pool, int(rng.integers(1, 6)), replace=False).tolist(),
                 float(rng.choice([0.25, 0.5, 1.0])))
                for _ in range(int(rng.integers(0, 6)))
            ]
            frames[f"f{f}"] = (preds, gts)
        tables = [instances_from_sets(f, preds, gts) for f, (preds, gts) in frames.items()]
        classes = sorted({c for _, gts in frames.values() for c, _ in gts})
        for t in (0.5, 0.75):
            per, mean_ap, _, _ = instance_ap(tables, iou_thresholds=np.array([t]))
            want = oracle_ap(frames, classes, t)
            assert per == pytest.approx(want, abs=1e-9)
            assert mean_ap == pytest.approx(np.mean(list(want.values())) if want else 0.0, abs=1e-9)


class TestInstanceExtraction:
    def test_gt_instances_skip_ignored(self):
        sem = np.array([1, 1, -1, 0])
        inst = np.array([1, 1, 1, 0])
        ignore = sem == -1
        gts = instances_from_labels(sem, inst, ignore)
        assert gts.dtype == GT_INSTANCE
        assert gts.tolist() == [(1, 1, 2)]

    def test_pred_scores_are_relative_sizes(self):
        sem = np.array([1, 1, 1, 2])
        inst = np.array([1, 1, 1, 2])
        preds = pred_instances_from_labels(sem, inst)
        assert preds.dtype == PRED_INSTANCE
        assert preds.tolist() == [(1, 1, 3, 1.0), (2, 2, 1, 1 / 3)]

    def test_class_from_lowest_index_kept_point(self):
        sem = np.array([-1, 2, 1, 0, 3])
        inst = np.array([4, 4, 4, 7, 7])
        gts = instances_from_labels(sem, inst, sem == -1)
        assert gts.tolist() == [(4, 2, 2)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_table_and_ap_match_point_sets(self, seed):
        # Label arrays as the pipeline scores them: the table counts the
        # points each pred shares with each gt, and the AP equals the set
        # oracle's on the instances' index sets.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        gt_sem = rng.integers(-1, 3, n)
        gt_inst = rng.integers(0, 5, n) * 10
        sem = rng.integers(0, 3, n)
        inst = rng.integers(0, 4, n)
        ignore = gt_sem == -1
        preds = pred_instances_from_labels(sem, inst, ignore)
        gts = instances_from_labels(gt_sem, gt_inst, ignore)
        inter = overlap_table(preds["id"], gts["id"], inst, gt_inst, ignore)

        def points(labels, i):
            return set(np.flatnonzero((labels == i) & ~ignore).tolist())

        assert inter.shape == (len(preds), len(gts))
        for r, (p_id, _, p_size, _) in enumerate(preds.tolist()):
            assert p_size == len(points(inst, p_id))
            for c, (g_id, _, g_size) in enumerate(gts.tolist()):
                assert g_size == len(points(gt_inst, g_id))
                assert inter[r, c] == len(points(inst, p_id) & points(gt_inst, g_id))

        frames = {"f": (
            [(c, sorted(points(inst, i)), s) for i, c, _, s in preds.tolist()],
            [(c, sorted(points(gt_inst, i))) for i, c, _ in gts.tolist()],
        )}
        classes = sorted(set(gts["cls"].tolist()))
        per, _, _, _ = instance_ap([("f", preds, gts, inter)], iou_thresholds=np.array([0.5]))
        assert per == pytest.approx(oracle_ap(frames, classes, 0.5), abs=1e-12)


class TestReportFormatting:
    def make_report(self):
        return MetricReport(
            per_class_iou={1: 0.5, 2: 0.25},
            miou=0.375,
            ap=0.6,
            ap50=0.8,
            ap75=0.5,
            per_class_ap={1: 0.7, 2: 0.5},
        )

    def test_json_dict_uses_class_names(self):
        d = self.make_report().to_dict(["vehicle", "pedestrian", "cyclist"])
        assert d["per_class_iou"] == {"vehicle": 0.5, "pedestrian": 0.25}
        assert d["miou"] == 0.375

    def test_table_is_aligned(self):
        table = self.make_report().format_table(["vehicle", "pedestrian"])
        lines = table.splitlines()
        assert all(len(line) == len(lines[1]) for line in lines[1:3])
        assert "vehicle" in table and "mean" in table

