"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime budget.
"""

import time

import numpy as np
import pytest

from conftest import instances_from_sets
from oracles import (
    ap_trace,
    bfs_components,
    dcs_simplified_trace,
    miou_trace,
    rsc_trace,
    vote_enumerate,
)

from wlf.cli import main as cli_main
from wlf.clustering import ClassRadii, ccl_cluster
from wlf.frames import Box2D, crop_frustum, project_points
from wlf.mask_fusion import fusion_weights
from wlf.metrics import confusion_counts, instance_ap, miou_from_counts
from wlf.range_image import (
    DcsConfig,
    RingSegments,
    build_range_image,
    dcs_dynamic,
    dcs_rows,
)
from wlf.ring_correct import RscConfig, rsc_correct
from wlf.spatial import (
    PseudoLabels,
    frustum_semantic,
    generate_labels,
    refine_by_segments,
    trinary_from_prop,
)
from wlf.synth import SceneConfig, fabricate_votes, generate_scene
from wlf.voting import PvcConfig, vote_correct


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
    radii = ClassRadii()
    dcs_cfg = DcsConfig()
    pvc_cfg = PvcConfig()
    rsc_cfg = RscConfig()

    t0 = time.perf_counter()
    scenes = [
        generate_scene(SceneConfig(seed=s, **ACCEPT_SCENE), frame_id=f"acc_{s:03d}")
        for s in range(N_FRAMES)
    ]
    gen_seconds = time.perf_counter() - t0

    counts = {m: np.zeros((3, 4), dtype=np.int64) for m in ("raw", "spg", "pvc", "rsc")}
    t0 = time.perf_counter()
    for scene in scenes:
        frame = scene.frame
        index, pixels = project_points(scene.calibration, frame)
        assign = crop_frustum(index, pixels, frame.num_points, scene.boxes)
        ri = build_range_image(frame, scene.config.beams, scene.config.columns)
        segments = dcs_dynamic(*ri, dcs_cfg)
        trinary = refine_by_segments(assign, segments)
        labels = generate_labels(frame, trinary, assign, scene.boxes, radii)
        spg_seconds_mark = time.perf_counter()

        scores = np.stack([
            fabricate_votes(frame.gt_semantic, 3, sigma=0.2, seed=scene.config.seed, epoch=epoch)
            for epoch in range(pvc_cfg.n_his)
        ])
        voted = vote_correct(scores, pvc_cfg, labels, assign, scene.boxes)
        corrected = rsc_correct(voted.semantic, segments, rsc_cfg)

        variants = {
            "raw": frustum_semantic(assign, scene.boxes),
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
        cell = np.flatnonzero(np.isfinite(depth))  # one point per occupied cell
        t = float(rng.uniform(0.1, 4.0))
        forced = dcs_rows(depth, cell, np.full(beams, 2.0), np.full(beams, t))
        ids, count = dcs_simplified_trace(depth, t)
        trace_ids = ids.ravel()[cell]
        if not (forced.num_segments == count and np.array_equal(forced.segment_id, trace_ids)):
            dcs_fail += 1

    ccl_fail = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        pts = rng.uniform(-5, 5, (n, 3))
        radius = float(rng.uniform(0.2, 2.0))
        if not np.array_equal(ccl_cluster(pts, radius).labels, bfs_components(pts, radius)):
            ccl_fail += 1

    rsc_fail = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        pred = rng.integers(0, 4, n).astype(np.int32)
        seg = np.unique(rng.integers(0, max(1, n // 3), n), return_inverse=True)[1]
        seg = seg.astype(np.int32)
        t1, t2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        segments = RingSegments(segment_id=seg, num_segments=int(seg.max()) + 1)
        got = rsc_correct(pred, segments, RscConfig(t1=t1, t2=t2))
        classes = sorted(int(c) for c in np.unique(pred) if c > 0)
        if not np.array_equal(got, rsc_trace(pred, seg, t1, t2, classes)):
            rsc_fail += 1

    vote_fail = 0
    boxes = [Box2D(box_id=1, class_id=2, bounds=(0, 0, 10, 10))]
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
        cfg = PvcConfig(tau_high=tau_high, tau_low=tau_low, t_reliable=t_rel, n_his=epochs)
        got = vote_correct(scores, cfg, labels, assign, boxes)
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


def test_4_fusion_weight_numerics():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        scores = rng.uniform(0, 1, n)
        ious = rng.uniform(0, 1, n)
        k = float(rng.uniform(0, 5))
        w = fusion_weights(scores, ious, k)
        worst = max(worst, abs(float(w.sum()) - 1.0))
    example = fusion_weights(np.array([0.8, 0.2]), np.array([0.9, 0.5]), 1.0)
    example_err = float(np.abs(example - np.array([0.8565, 0.1435])).max())
    check(
        4,
        f"weights sum to 1 within {worst:.2e} over 10^4 draws (need < 1e-6); "
        f"worked example error {example_err:.2e} (need < 1e-4)",
        worst < 1e-6 and example_err < 1e-4,
    )


def test_6_segment_vote_boundaries():
    ok = (
        trinary_from_prop(0.5) == -1
        and trinary_from_prop(0.1) == -1
        and trinary_from_prop(0.5 + 1e-9) == 0
        and trinary_from_prop(0.1 - 1e-9) == 1
        and trinary_from_prop(5 / 10) == -1
        and trinary_from_prop(1 / 10) == -1
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
        per, mean = miou_from_counts(*confusion_counts(pred_sem, gt_sem, 3))
        want_per, want_mean = miou_trace(pred_sem, gt_sem, 3)
        if set(per) != set(want_per) or any(
            abs(per[c] - want_per[c]) > 1e-12 for c in per
        ) or abs(mean - want_mean) > 1e-12:
            miou_fail += 1

        # Overlapping random point sets; the instance table is built from them.
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 5))
        pool = np.arange(20)
        gts = []
        preds = []
        for _g in range(n_gt):
            k = int(rng.integers(1, 6))
            gts.append((1, tuple(rng.choice(pool, k, replace=False).tolist())))
        for _p in range(n_pred):
            k = int(rng.integers(1, 6))
            preds.append(
                (1, tuple(rng.choice(pool, k, replace=False).tolist()), float(rng.uniform(0, 1)))
            )
        frames = [instances_from_sets("f", preds, gts)]
        for threshold in (0.5, 0.75):
            _, mean_ap, _, _ = instance_ap(frames, iou_thresholds=np.array([threshold]))
            order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], i))
            want = ap_trace(
                [("f", preds[i][1], preds[i][2]) for i in order],
                [("f", idx) for _, idx in gts],
                threshold,
            )
            if abs(mean_ap - want) > 1e-9:
                ap_fail += 1

    frames = [
        instances_from_sets(
            "f",
            [(1, range(5), 0.9), (1, range(20, 25), 0.8)],
            [(1, range(5)), (1, range(10, 15))],
        )
    ]
    _, _, ap50, _ = instance_ap(frames)
    ap50_err = abs(ap50 - 51 / 101)
    check(
        8,
        f"metric oracles over 500 micro-instances: miou={miou_fail} ap={ap_fail} mismatches; "
        f"interpolated AP50 example error {ap50_err:.2e} (need < 1e-6)",
        miou_fail == 0 and ap_fail == 0 and ap50_err < 1e-6,
    )
