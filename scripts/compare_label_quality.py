#!/usr/bin/env python3
"""Compare pseudo-label quality across correction stages on synthetic scenes.

Generates seeded frames and reports pooled per-class IoU / mIoU for:
  raw   frustum crop only (every in-box point takes its box class)
  ccl   frustum crop + per-box clustering, largest component kept
  spg   segment-vote refinement before the clustering step
  +pvc  historical teacher-vote correction on top of spg
  +rsc  ring-segment correction on top of +pvc

Example:
  python scripts/compare_label_quality.py --frames 100 --score-sigma 0.2
"""

import argparse
import sys
import time

import numpy as np

from wlf.clustering import ClassRadii
from wlf.frames import crop_frustum, project_points
from wlf.metrics import confusion_counts, miou_from_counts
from wlf.range_image import DcsConfig, build_range_image, dcs_dynamic
from wlf.ring_correct import RscConfig, rsc_correct
from wlf.spatial import frustum_semantic, generate_labels, refine_by_segments
from wlf.synth import CLASS_NAMES, SceneConfig, fabricate_scores, generate_scene
from wlf.voting import PvcConfig, foreground_score, vote_correct


def label_variants(scene, pvc_cfg, score_sigma):
    frame = scene.frame
    proj = project_points(scene.calibration, frame)
    assign = crop_frustum(proj, scene.boxes)
    ri = build_range_image(frame, scene.config.beams, scene.config.columns)
    segments = dcs_dynamic(ri, DcsConfig())
    radii = ClassRadii()

    ccl_trinary = np.where(assign > 0, 1, 0).astype(np.int8)
    spg_trinary = refine_by_segments(assign, segments)
    spg_labels = generate_labels(frame, spg_trinary, assign, scene.boxes, radii)

    scores = np.stack([
        foreground_score(
            fabricate_scores(frame.gt_semantic, 3, score_sigma, scene.config.seed, epoch)
        )
        for epoch in range(pvc_cfg.n_his)
    ])
    voted = vote_correct(scores, pvc_cfg, spg_labels, assign, scene.boxes)

    return {
        "raw": frustum_semantic(assign, scene.boxes),
        "ccl": generate_labels(frame, ccl_trinary, assign, scene.boxes, radii).semantic,
        "spg": spg_labels.semantic,
        "+pvc": voted.semantic,
        "+rsc": rsc_correct(voted.semantic, segments, RscConfig()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--frames", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--score-sigma", type=float, default=0.2)
    parser.add_argument("--box-pad", type=float, default=10.0)
    args = parser.parse_args(argv)

    pvc_cfg = PvcConfig()
    stages = ("raw", "ccl", "spg", "+pvc", "+rsc")
    counts = {s: np.zeros((3, 4), dtype=np.int64) for s in stages}

    t0 = time.time()
    for i in range(args.frames):
        cfg = SceneConfig(
            seed=args.seed + i,
            vehicles=(2, 4),
            pedestrians=(1, 3),
            cyclists=(0, 2),
            vehicle_distance=(8.0, 16.0),
            box_pad_px=args.box_pad,
        )
        scene = generate_scene(cfg, frame_id=f"cmp_{i:04d}")
        for stage, sem in label_variants(scene, pvc_cfg, args.score_sigma).items():
            tp, fp, fn = confusion_counts(sem, scene.frame.gt_semantic, 3)
            counts[stage][0] += tp
            counts[stage][1] += fp
            counts[stage][2] += fn
    elapsed = time.time() - t0

    names = CLASS_NAMES
    header = f"{'stage':<8}{'mIoU':>8}" + "".join(f"{n:>12}" for n in names)
    print(header)
    print("-" * len(header))
    for stage in stages:
        per, mean = miou_from_counts(*counts[stage])
        row = f"{stage:<8}{100 * mean:>8.2f}"
        for c in range(1, 4):
            row += f"{100 * per.get(c, 0.0):>12.2f}"
        print(row)
    print(f"\n{args.frames} frames in {elapsed:.1f}s (IoU values in points, 0-100)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
