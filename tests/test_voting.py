import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import vote_enumerate

from wlf.bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_manifest,
    write_votes,
)
from wlf.cli import main
from wlf.config import PipelineConfig
from wlf.frames import Box2D, box_classes, crop_frustum, project_points
from wlf.pipeline import MissingInputError, process_frame
from wlf.spatial import PseudoLabels
from wlf.voting import PvcConfig, vote_correct


def make_labels(n, sem=0, inst=0):
    return PseudoLabels(
        semantic=np.full(n, sem, dtype=np.int32), instance=np.full(n, inst, dtype=np.int32)
    )


CLASS_OF = box_classes([Box2D(box_id=1, class_id=2, bounds=(0, 0, 10, 10))])
TWO_BOXES = box_classes([Box2D(box_id=1, class_id=2, bounds=(0, 0, 10, 10)),
                         Box2D(box_id=2, class_id=1, bounds=(5, 5, 20, 20))])


@pytest.fixture
def bundle(tmp_path):
    """One synthetic frame bundle with four vote epochs (0..3)."""
    assert main(["synth", "--out", str(tmp_path), "--num-frames", "1", "--epochs", "4"]) == 0
    return tmp_path / "frame_0000"


def engine_labels(bundle, stages, **pvc):
    cfg = PipelineConfig(stages=tuple(stages), pvc=PvcConfig(**pvc))
    labels, _ = process_frame(bundle, read_manifest(bundle), cfg)
    return labels


def assert_pvc_skipped(bundle, caplog, wanted, **pvc):
    """pvc leaves the spg labels as they are and logs one WARNING naming the bundle."""
    with caplog.at_level("WARNING", logger="wlf"):
        voted = engine_labels(bundle, ["spg", "pvc"], **pvc)
    spg = engine_labels(bundle, ["spg"])
    assert np.array_equal(voted.semantic, spg.semantic)
    assert np.array_equal(voted.instance, spg.instance)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert str(bundle) in warnings[0] and wanted in warnings[0]


class TestVoteCorrect:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="as long as the labels"):
            vote_correct(np.zeros((2, 3)), PvcConfig(), make_labels(4), np.zeros(4), CLASS_OF)

    def test_one_row_per_epoch_required(self):
        with pytest.raises(ValueError, match="one row per epoch"):
            vote_correct(np.zeros(3), PvcConfig(), make_labels(3), np.zeros(3), CLASS_OF)

    def test_scores_out_of_range_rejected(self):
        for bad in (1.2, -0.1, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                vote_correct(np.array([[bad]]), PvcConfig(), make_labels(1), np.zeros(1), CLASS_OF)

    def test_float32_scores_out_of_range_rejected(self):
        one_up = np.nextafter(np.float32(1), np.float32(2))
        below = -np.finfo(np.float32).smallest_subnormal
        for bad in (np.nan, np.inf, one_up, below, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                scores = np.array([[bad]], dtype=np.float32)
                vote_correct(scores, PvcConfig(), make_labels(1), np.zeros(1), CLASS_OF)

    def test_nan_among_valid_scores_rejected(self):
        for dtype in (np.float32, np.float64):
            scores = np.array([[0.2, 0.9], [np.nan, 0.5]], dtype=dtype)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                vote_correct(scores, PvcConfig(), make_labels(2), np.zeros(2), CLASS_OF)

    def test_range_ends_accepted(self):
        for dtype in (np.float32, np.float64):
            scores = np.array([[-0.0, 1.0]] * 4, dtype=dtype)
            out = vote_correct(scores, PvcConfig(), make_labels(2, 1, 1), np.array([0, 1]), CLASS_OF)
            assert out.semantic.tolist() == [0, 2]
            assert out.instance.tolist() == [0, 1]

    def test_empty_frame_accepted(self):
        for shape in ((4, 0), (0, 0)):
            out = vote_correct(np.zeros(shape, dtype=np.float32), PvcConfig(), make_labels(0),
                               np.zeros(0, dtype=np.int32), CLASS_OF)
            assert out.semantic.shape == out.instance.shape == (0,)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_float32_scores_vote_as_float64(self, data):
        # Thresholds float32 cannot hold, and scores at np.float32(tau) and its
        # neighbours: float32(0.3) lies above 0.3 and must count as above it.
        taus = st.sampled_from([0.3, 0.1, 0.7, 1 / 3, 0.5]) | st.floats(0, 1)
        tau_low, tau_high = sorted(data.draw(st.tuples(taus, taus)))
        near = []
        for tau in (tau_low, tau_high):
            t = np.float32(tau)
            near += [t, np.nextafter(t, np.float32(0)), np.nextafter(t, np.float32(1))]
        n = data.draw(st.integers(1, 12))
        score = st.sampled_from([s for s in near if 0 <= s <= 1]) | st.floats(0, 1, width=32)
        scores = np.array(data.draw(st.lists(score, min_size=4 * n, max_size=4 * n)),
                          dtype=np.float32).reshape(4, n)
        cfg = PvcConfig(tau_high=tau_high, tau_low=tau_low,
                        t_reliable=data.draw(st.integers(1, 4)))
        box_assign = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        labels = make_labels(n, sem=-1)
        got = vote_correct(scores, cfg, labels, box_assign, CLASS_OF)
        want = vote_correct(scores.astype(np.float64), cfg, labels, box_assign, CLASS_OF)
        assert np.array_equal(got.semantic, want.semantic)
        assert np.array_equal(got.instance, want.instance)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_rows_one_at_a_time_vote_as_a_stack(self, seed):
        # A generator hands vote_correct each epoch's row as it is read; the
        # rows may differ in dtype.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 20))
        scores = rng.uniform(0, 1, (4, n))
        cfg = PvcConfig(t_reliable=int(rng.integers(1, 5)))
        labels = make_labels(n, sem=-1)
        box_assign = rng.integers(0, 2, n)
        rows = [row.astype(np.float32) if k % 2 else row for k, row in enumerate(scores)]
        got = vote_correct((row for row in rows), cfg, labels, box_assign, CLASS_OF)
        want = vote_correct(np.array(rows, dtype=np.float64), cfg, labels, box_assign, CLASS_OF)
        assert np.array_equal(got.semantic, want.semantic)
        assert np.array_equal(got.instance, want.instance)
        assert (labels.semantic == -1).all()  # input untouched

    def test_bad_row_rejected_before_the_next_is_read(self):
        def rows():
            yield np.array([0.5, 0.5])
            yield np.array([0.5, 1.5])
            raise AssertionError("read past the bad row")

        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            vote_correct(rows(), PvcConfig(), make_labels(2), np.zeros(2), CLASS_OF)

    def test_foreground_override(self):
        # Four confident epochs, threshold 3: the in-box point becomes its box class.
        scores = np.array([[0.9], [0.8], [0.7], [0.9]])
        cfg = PvcConfig(tau_high=0.5, tau_low=0.5, t_reliable=3)
        out = vote_correct(scores, cfg, make_labels(1, sem=-1), np.array([1]), CLASS_OF)
        assert out.semantic.tolist() == [2]
        assert out.instance.tolist() == [1]

    def test_background_override(self):
        scores = np.array([[0.4], [0.6], [0.3], [0.2]])
        cfg = PvcConfig(tau_high=0.5, tau_low=0.5, t_reliable=3)
        out = vote_correct(scores, cfg, make_labels(1, sem=2, inst=1), np.array([1]), CLASS_OF)
        assert out.semantic.tolist() == [0]
        assert out.instance.tolist() == [0]

    def test_epoch_gate_returns_input(self, bundle, caplog):
        # Latest epoch 3, so the next is 4: below start_epoch 5 voting waits.
        assert_pvc_skipped(bundle, caplog, "4 of n_his=4", start_epoch=5)

    def test_partial_history_returns_input(self, bundle, caplog):
        for epoch in (0, 1):
            (bundle / f"votes_{epoch}.f32").unlink()
        assert_pvc_skipped(bundle, caplog, "2 of n_his=4")

    def test_votes_over_latest_n_his_epochs(self, bundle):
        # Oldest epoch says background everywhere, latest says foreground:
        # with n_his = 1 only the latest counts, so every in-box point is
        # claimed by its box.
        xyz, _, calib, boxes = read_frame_bundle(bundle, read_manifest(bundle))
        n = xyz.shape[1]
        for epoch in list_vote_epochs(bundle):
            (bundle / f"votes_{epoch}.f32").unlink()
        write_votes(bundle, 0, np.zeros(n))
        write_votes(bundle, 1, np.ones(n))
        labels = engine_labels(bundle, ["pvc"], n_his=1, t_reliable=1)
        assign = crop_frustum(*project_points(calib, xyz), n, boxes)
        in_box = assign > 0
        assert in_box.any()
        assert np.array_equal(labels.instance[in_box], assign[in_box])
        assert (labels.semantic[in_box] > 0).all()

    def test_out_of_box_foreground_vote_skipped(self):
        scores = np.array([[0.9], [0.9], [0.9], [0.9]])
        out = vote_correct(scores, PvcConfig(), make_labels(1, sem=-1), np.array([0]), CLASS_OF)
        assert out.semantic.tolist() == [-1]

    def test_bad_votes_name_the_bundle(self, bundle):
        write_votes(bundle, 3, np.full(read_manifest(bundle)["num_points"], 2.0))
        with pytest.raises(BundleError, match="frame_0000.*\\[0, 1\\]"):
            engine_labels(bundle, ["pvc"])

    def test_short_vote_file_named_once(self, bundle):
        # The read error of an epoch's file passes through as it is.
        (bundle / "votes_2.f32").write_bytes(b"\0" * 8)
        with pytest.raises(BundleError) as info:
            engine_labels(bundle, ["pvc"])
        assert str(info.value).startswith(f"{bundle / 'votes_2.f32'}: expected ")

    def test_unknown_frame_id(self, bundle):
        # A frame with no recorded votes cannot be vote-corrected.
        for epoch in list_vote_epochs(bundle):
            (bundle / f"votes_{epoch}.f32").unlink()
        with pytest.raises(MissingInputError, match="frame_0000"):
            engine_labels(bundle, ["spg", "pvc"])

    def test_pure_function_repeatable(self):
        scores = np.array([[0.9], [0.2], [0.9], [0.9]])
        cfg = PvcConfig()
        labels = make_labels(1, sem=-1)
        a = vote_correct(scores, cfg, labels, np.array([1]), CLASS_OF)
        b = vote_correct(scores, cfg, labels, np.array([1]), CLASS_OF)
        assert np.array_equal(a.semantic, b.semantic)
        assert np.array_equal(a.instance, b.instance)
        assert labels.semantic.tolist() == [-1]  # input untouched

    def test_exactly_threshold_scores_count_neither_side(self):
        scores = np.array([[0.5], [0.5], [0.5], [0.5]])
        cfg = PvcConfig(tau_high=0.5, tau_low=0.5, t_reliable=1)
        out = vote_correct(scores, cfg, make_labels(1, sem=-1), np.array([1]), CLASS_OF)
        assert out.semantic.tolist() == [-1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_scores_inside_band_never_modify(self, seed):
        rng = np.random.default_rng(seed)
        cfg = PvcConfig(tau_high=0.7, tau_low=0.3, t_reliable=1)
        scores = rng.uniform(0.31, 0.69, (4, 6))
        labels = make_labels(6, sem=1, inst=0)
        out = vote_correct(scores, cfg, labels, rng.integers(0, 2, 6), CLASS_OF)
        assert np.array_equal(out.semantic, labels.semantic)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unreachable_threshold_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0, 1, (4, 8))
        cfg = PvcConfig(t_reliable=5)  # n_his + 1
        sem = rng.integers(-1, 3, 8).astype(np.int32)
        inst = np.where(sem == 2, 1, 0).astype(np.int32)
        labels = PseudoLabels(semantic=sem, instance=inst)
        out = vote_correct(scores, cfg, labels, rng.integers(0, 2, 8), CLASS_OF)
        assert np.array_equal(out.semantic, sem)
        assert np.array_equal(out.instance, inst)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_enumeration_oracle(self, seed):
        # Starting labels drawn apart from the boxes, as from --labels: a
        # labelled point or an instance id outside every box can still be
        # voted background, and an in-box point of either label foreground.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        scores = rng.uniform(0, 1, (4, n))
        tau_low = float(rng.uniform(0, 0.6))
        tau_high = float(rng.uniform(tau_low, 1.0))
        t_rel = int(rng.integers(1, 5))
        cfg = PvcConfig(tau_high=tau_high, tau_low=tau_low, t_reliable=t_rel)
        box_assign = rng.integers(0, 3, n).astype(np.int32)
        sem = rng.integers(-1, 3, n).astype(np.int32)
        inst = rng.integers(0, 3, n).astype(np.int32)
        labels = PseudoLabels(semantic=sem, instance=inst)
        got = vote_correct(scores, cfg, labels, box_assign, TWO_BOXES)
        want_sem, want_inst = vote_enumerate(
            scores, tau_high, tau_low, t_rel, sem, inst, box_assign, {1: 2, 2: 1}
        )
        assert np.array_equal(got.semantic, want_sem)
        assert np.array_equal(got.instance, want_inst)

    def test_votes_count_only_where_a_label_can_change(self):
        # 1M points, 1 % of them in one box: past its 8 B/pt of returned
        # labels, pvc's traced peak stays within 1 B/pt, as the counts are
        # taken at the in-box and labelled points alone (it was 3.0 B/pt
        # with four N-wide count and mask arrays).
        n = 1_000_000
        rng = np.random.default_rng(0)
        box_assign = np.zeros(n, dtype=np.int32)
        box_assign[rng.choice(n, n // 100, replace=False)] = 1
        labels = PseudoLabels(np.where(box_assign > 0, 2, 0), box_assign.copy())
        scores = [rng.uniform(0, 1, n).astype(np.float32) for _ in range(4)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = vote_correct(scores, PvcConfig(), labels, box_assign, CLASS_OF)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / n - 8 <= 1.0, f"{peak / n - 8:.2f} B/pt"
        want = vote_correct(np.array(scores), PvcConfig(), labels, box_assign, CLASS_OF)
        assert np.array_equal(out.semantic, want.semantic)
        assert np.count_nonzero(out.semantic != labels.semantic) > 0


class TestPvcConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PvcConfig(tau_high=0.3, tau_low=0.6)
        with pytest.raises(ValueError):
            PvcConfig(t_reliable=0)
