"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime budget.
"""

import time

import numpy as np
import pytest

from oracles import (
    ap_trace,
    bfs_components,
    dcs_simplified_trace,
    miou_trace,
    rsc_trace,
    vote_enumerate,
)

import wlf
from wlf.cli import main as cli_main
from wlf.metrics import confusion_counts, miou_from_counts
from wlf.spatial import PseudoLabels


def check(num: int, description: str, condition: bool) -> None:
    print(f"[acceptance {num}] {'PASS' if condition else 'FAIL'}: {description}")
    assert condition, f"criterion {num} failed: {description}"


# Cluttered street-like scenes: several vehicles with pedestrians/cyclists in
# front of them (occlusion), building walls behind, and loose boxes.
ACCEPT_SCENE = dict(
    vehicles=(2, 4),
    pedestrians=(1, 3),
    cyclists=(0, 2),
    vehicle_distance=(8.0, 16.0),
    box_pad_px=10.0,
)
N_FRAMES = 100


@pytest.fixture(scope="module")
def chain100():
    """100 seeded frames with the per-stage label chain and elapsed times."""
    radii = wlf.ClassRadii()
    dcs_cfg = wlf.DcsConfig()
    pvc_cfg = wlf.PvcConfig()
    rsc_cfg = wlf.RscConfig()

    t0 = time.perf_counter()
    scenes = [
        wlf.generate_scene(wlf.SceneConfig(seed=s, **ACCEPT_SCENE), frame_id=f"acc_{s:03d}")
        for s in range(N_FRAMES)
    ]
    gen_seconds = time.perf_counter() - t0

    counts = {m: np.zeros((3, 4), dtype=np.int64) for m in ("raw", "spg", "pvc", "rsc")}
    t0 = time.perf_counter()
    for scene in scenes:
        frame = scene.frame
        proj = wlf.project_points(scene.calibration, frame)
        assign = wlf.crop_frustum(proj, scene.boxes)
        ri = wlf.build_range_image(frame, scene.config.beams, scene.config.columns)
        segments = wlf.dcs_dynamic(ri, dcs_cfg)
        trinary = wlf.refine_by_segments(assign, segments)
        labels = wlf.generate_labels(frame, trinary, assign, scene.boxes, radii)
        spg_seconds_mark = time.perf_counter()

        scores = np.stack([
            wlf.foreground_score(wlf.fabricate_scores(
                frame.gt_semantic, 3, sigma=0.2, seed=scene.config.seed, epoch=epoch
            ))
            for epoch in range(pvc_cfg.n_his)
        ])
        voted = wlf.vote_correct(scores, pvc_cfg, labels, assign, scene.boxes)
        corrected = wlf.rsc_correct(voted.semantic, segments, rsc_cfg)

        variants = {
            "raw": wlf.frustum_semantic(assign, scene.boxes),
            "spg": labels.semantic,
            "pvc": voted.semantic,
            "rsc": corrected,
        }
        for name, sem in variants.items():
            tp, fp, fn = confusion_counts(sem, frame.gt_semantic, 3)
            counts[name][0] += tp
            counts[name][1] += fp
            counts[name][2] += fn
    chain_seconds = time.perf_counter() - t0

    miou = {}
    for name, acc in counts.items():
        _, miou[name] = miou_from_counts(acc[0], acc[1], acc[2])
    return {
        "miou": miou,
        "gen_seconds": gen_seconds,
        "chain_seconds": chain_seconds,
    }


def test_1_spatial_refinement_beats_raw_frustum(chain100):
    elapsed = chain100["gen_seconds"] + chain100["chain_seconds"]
    gain = 100.0 * (chain100["miou"]["spg"] - chain100["miou"]["raw"])
    check(
        1,
        f"spatial refinement mIoU gain over raw frustum = {gain:.2f} points "
        f"(need >= 5) in {elapsed:.1f}s (need < 60)",
        gain >= 5.0 and elapsed < 60.0,
    )


def test_2_stage_toggles_are_monotone(chain100):
    elapsed = chain100["gen_seconds"] + chain100["chain_seconds"]
    miou = chain100["miou"]
    pvc_gain = 100.0 * (miou["pvc"] - miou["spg"])
    rsc_delta = 100.0 * (miou["rsc"] - miou["pvc"])
    check(
        2,
        f"voting adds {pvc_gain:+.2f} points (need >= 0), ring correction "
        f"{rsc_delta:+.2f} points (need >= -0.5) in {elapsed:.1f}s (need < 120)",
        pvc_gain >= 0.0 and rsc_delta >= -0.5 and elapsed < 120.0,
    )


def test_3_algorithm_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()

    # Row segmentation: the scan with a fixed minimal window and constant
    # threshold must equal the literal adjacent-cell trace, ids included.
    dcs_fail = 0
    for _ in range(1000):
        beams = int(rng.integers(1, 5))
        columns = int(rng.integers(4, 28))
        depth = rng.uniform(2.0, 40.0, (beams, columns))
        depth[rng.random((beams, columns)) > 0.7] = np.nan
        ri = _ri_from_depth(depth)
        t = float(rng.uniform(0.1, 4.0))
        forced = wlf.dcs_rows(ri, np.full(beams, 2.0), np.full(beams, t))
        ids, count = dcs_simplified_trace(depth, t)
        trace_ids = ids[ri.point_cell[:, 0], ri.point_cell[:, 1]]
        if not (forced.num_segments == count and np.array_equal(forced.segment_id, trace_ids)):
            dcs_fail += 1

    ccl_fail = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        pts = rng.uniform(-5, 5, (n, 3))
        radius = float(rng.uniform(0.2, 2.0))
        if not np.array_equal(wlf.ccl_cluster(pts, radius).labels, bfs_components(pts, radius)):
            ccl_fail += 1

    rsc_fail = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        pred = rng.integers(0, 4, n).astype(np.int32)
        seg = np.unique(rng.integers(0, max(1, n // 3), n), return_inverse=True)[1]
        seg = seg.astype(np.int32)
        t1, t2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        segments = wlf.RingSegments(segment_id=seg, num_segments=int(seg.max()) + 1)
        got = wlf.rsc_correct(pred, segments, wlf.RscConfig(t1=t1, t2=t2))
        classes = sorted(int(c) for c in np.unique(pred) if c > 0)
        if not np.array_equal(got, rsc_trace(pred, seg, t1, t2, classes)):
            rsc_fail += 1

    vote_fail = 0
    boxes = [wlf.Box2D(box_id=1, class_id=2, bounds=(0, 0, 10, 10))]
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        epochs = int(rng.integers(1, 6))
        scores = rng.uniform(0, 1, (epochs, n))
        tau_low = float(rng.uniform(0, 0.6))
        tau_high = float(rng.uniform(tau_low, 1.0))
        t_rel = int(rng.integers(1, epochs + 2))
        assign = rng.integers(0, 2, n).astype(np.int32)
        sem = rng.integers(-1, 3, n).astype(np.int32)
        labels = PseudoLabels(semantic=sem, instance=np.zeros(n, dtype=np.int32))
        cfg = wlf.PvcConfig(tau_high=tau_high, tau_low=tau_low, t_reliable=t_rel, n_his=epochs)
        got = wlf.vote_correct(scores, cfg, labels, assign, boxes)
        want_sem, want_inst = vote_enumerate(
            scores, tau_high, tau_low, t_rel, sem, labels.instance, assign, {1: 2}
        )
        if not (np.array_equal(got.semantic, want_sem) and np.array_equal(got.instance, want_inst)):
            vote_fail += 1

    elapsed = time.perf_counter() - t0
    check(
        3,
        "oracle equivalence over 1000 cases each: "
        f"dcs={dcs_fail} ccl={ccl_fail} rsc={rsc_fail} vote={vote_fail} mismatches "
        f"in {elapsed:.1f}s (need < 120)",
        dcs_fail == 0 and ccl_fail == 0 and rsc_fail == 0 and vote_fail == 0 and elapsed < 120.0,
    )


def _ri_from_depth(depth):
    depth = np.asarray(depth, dtype=float)
    m, n = depth.shape
    rows, cols = np.nonzero(np.isfinite(depth))
    cell_point = np.full((m, n), -1, dtype=np.int32)
    cell_point[rows, cols] = np.arange(rows.shape[0], dtype=np.int32)
    point_cell = np.stack([rows, cols], axis=1).astype(np.int32)
    return wlf.RangeImage(depth=depth.copy(), cell_point=cell_point, point_cell=point_cell)


def test_4_fusion_weight_numerics():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        scores = rng.uniform(0, 1, n)
        ious = rng.uniform(0, 1, n)
        k = float(rng.uniform(0, 5))
        w = wlf.fusion_weights(scores, ious, k)
        worst = max(worst, abs(float(w.sum()) - 1.0))
    example = wlf.fusion_weights(np.array([0.8, 0.2]), np.array([0.9, 0.5]), 1.0)
    example_err = float(np.abs(example - np.array([0.8565, 0.1435])).max())
    check(
        4,
        f"weights sum to 1 within {worst:.2e} over 10^4 draws (need < 1e-6); "
        f"worked example error {example_err:.2e} (need < 1e-4)",
        worst < 1e-6 and example_err < 1e-4,
    )


def test_5_loss_correctness():
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    eps = 1e-6
    for _ in range(100):
        pred = rng.uniform(0.1, 0.9, (6, 6))
        target = rng.integers(-1, 2, (6, 6)).astype(np.int8)
        target[0, 0] = 1
        grad = wlf.pseudo_loss_grad(pred, target)
        i, j = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        if target[i, j] < 0:
            continue
        up = pred.copy()
        up[i, j] += eps
        dn = pred.copy()
        dn[i, j] -= eps
        fd = (wlf.pseudo_loss(up, target) - wlf.pseudo_loss(dn, target)) / (2 * eps)
        worst_rel = max(worst_rel, abs(grad[i, j] - fd) / max(abs(fd), 1e-8))

    worst_rel_cscs = 0.0
    for _ in range(100):
        p = rng.uniform(0, 1, (5, 3))
        q = rng.uniform(0.05, 0.95, (5, 3))
        grad = wlf.cscs_grad_student(p, q)
        i, j = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        up = q.copy()
        up[i, j] += eps
        dn = q.copy()
        dn[i, j] -= eps
        fd = (wlf.cscs(p, up) - wlf.cscs(p, dn)) / (2 * eps)
        worst_rel_cscs = max(worst_rel_cscs, abs(grad[i, j] - fd) / max(abs(fd), 1e-8))

    # Consistency loss of matched scores vanishes as they approach one-hot.
    sequence = []
    for delta in (0.2, 0.05, 0.01, 1e-4, 0.0):
        p = np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])
        sequence.append(wlf.cscs(p, p))
    decreasing = all(a > b for a, b in zip(sequence, sequence[1:]))

    unit = {name: 1.0 for name in ("boxinst", "pseudo", "cscs_3d_to_2d", "cls", "vote", "cscs_2d_to_3d")}
    l2d, l3d, total = wlf.combine_losses(unit)
    check(
        5,
        f"finite-difference rel errors {worst_rel:.2e}/{worst_rel_cscs:.2e} (need < 1e-4); "
        f"matched one-hot loss -> {sequence[-1]:.2e}; unit-component total = {total}",
        worst_rel < 1e-4
        and worst_rel_cscs < 1e-4
        and decreasing
        and sequence[-1] < 1e-5
        and (l2d, l3d, total) == (2.5, 103.0, 105.5),
    )


def test_6_segment_vote_boundaries():
    ok = (
        wlf.trinary_from_prop(0.5) == -1
        and wlf.trinary_from_prop(0.1) == -1
        and wlf.trinary_from_prop(0.5 + 1e-9) == 0
        and wlf.trinary_from_prop(0.1 - 1e-9) == 1
        and wlf.trinary_from_prop(5 / 10) == -1
        and wlf.trinary_from_prop(1 / 10) == -1
    )
    check(6, "outside-share thresholds are strict at 0.5 and 0.1", ok)


def test_7_pipeline_determinism(tmp_path):
    frames = tmp_path / "frames"
    rc = cli_main(
        ["synth", "--out", str(frames), "--seed", "3", "--num-frames", "4",
         "--epochs", "4", "--score-sigma", "0.2"]
    )
    assert rc == 0
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli_main(
            ["pipeline", "--frames", f"{frames}/*", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    identical = True
    compared = 0
    for rel in sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file()):
        if rel.name == "run.json":  # carries wall-clock timings
            continue
        identical &= (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        compared += 1
    check(
        7,
        f"two identical pipeline runs produced byte-identical artifacts ({compared} files)",
        identical and compared >= 9,
    )


def test_8_metric_oracles():
    rng = np.random.default_rng(4242)
    miou_fail = 0
    ap_fail = 0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        pred_sem = rng.integers(-1, 4, n)
        gt_sem = rng.integers(-1, 4, n)
        per, mean = wlf.miou(pred_sem, gt_sem, 3)
        want_per, want_mean = miou_trace(pred_sem, gt_sem, 3)
        if set(per) != set(want_per) or any(
            abs(per[c] - want_per[c]) > 1e-12 for c in per
        ) or abs(mean - want_mean) > 1e-12:
            miou_fail += 1

        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 5))
        pool = np.arange(20)
        gts = []
        preds = []
        for _g in range(n_gt):
            k = int(rng.integers(1, 6))
            gts.append(
                wlf.InstanceGT(frame_id="f", class_id=1,
                               indices=tuple(rng.choice(pool, k, replace=False).tolist()))
            )
        for _p in range(n_pred):
            k = int(rng.integers(1, 6))
            preds.append(
                wlf.InstancePred(frame_id="f", class_id=1,
                                 indices=tuple(rng.choice(pool, k, replace=False).tolist()),
                                 score=float(rng.uniform(0, 1)))
            )
        for threshold in (0.5, 0.75):
            _, mean_ap, _, _ = wlf.instance_ap(preds, gts, iou_thresholds=np.array([threshold]))
            order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].frame_id, i))
            want = ap_trace(
                [(preds[i].frame_id, preds[i].indices, preds[i].score) for i in order],
                [(g.frame_id, g.indices) for g in gts],
                threshold,
            )
            if abs(mean_ap - want) > 1e-9:
                ap_fail += 1

    gts = [
        wlf.InstanceGT(frame_id="f", class_id=1, indices=tuple(range(5))),
        wlf.InstanceGT(frame_id="f", class_id=1, indices=tuple(range(10, 15))),
    ]
    preds = [
        wlf.InstancePred(frame_id="f", class_id=1, indices=tuple(range(5)), score=0.9),
        wlf.InstancePred(frame_id="f", class_id=1, indices=tuple(range(20, 25)), score=0.8),
    ]
    _, _, ap50, _ = wlf.instance_ap(preds, gts)
    ap50_err = abs(ap50 - 51 / 101)
    check(
        8,
        f"metric oracles over 500 micro-instances: miou={miou_fail} ap={ap_fail} mismatches; "
        f"interpolated AP50 example error {ap50_err:.2e} (need < 1e-6)",
        miou_fail == 0 and ap_fail == 0 and ap50_err < 1e-6,
    )
