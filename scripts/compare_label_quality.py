#!/usr/bin/env python3
"""Compare pseudo-label quality across correction stages on synthetic scenes.

Writes seeded frame bundles with ``wlf synth`` to a temporary directory, runs
the pipeline's per-frame engine (``process_frame``) on each with the stage
list of each row, and reports pooled per-class IoU / mIoU for:
  raw   frustum crop only (every in-box point takes its box class)
  ccl   frustum crop + per-box clustering, largest component kept
  spg   segment-vote refinement before the clustering step
  +pvc  historical teacher-vote correction on top of spg
  +rsc  ring-segment correction on top of +pvc

Example:
  python scripts/compare_label_quality.py --frames 100 --score-sigma 0.2
"""

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from wlf.bundle import read_frame_bundle
from wlf.cli import main as wlf_main
from wlf.config import PipelineConfig
from wlf.frames import crop_frustum, project_points
from wlf.metrics import confusion_counts, miou_from_counts
from wlf.pipeline import discover_bundles, process_frame
from wlf.spatial import frustum_semantic
from wlf.synth import CLASS_NAMES, SceneConfig

# The engine's stages behind each row but raw.
STAGES = {"ccl": (), "spg": ("spg",), "+pvc": ("spg", "pvc"), "+rsc": ("spg", "pvc", "rsc")}


def raw_counts(bundle: Path) -> np.ndarray:
    frame, calib, boxes, manifest = read_frame_bundle(bundle)
    assign = crop_frustum(*project_points(calib, frame), frame.num_points, boxes)
    sem = frustum_semantic(assign, boxes)
    return np.stack(confusion_counts(sem, frame.gt_semantic, manifest["num_classes"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--frames", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--score-sigma", type=float, default=0.2)
    parser.add_argument("--box-pad", type=float, default=10.0)
    args = parser.parse_args(argv)

    scene = SceneConfig(
        seed=args.seed,
        vehicles=(2, 4),
        pedestrians=(1, 3),
        cyclists=(0, 2),
        vehicle_distance=(8.0, 16.0),
        box_pad_px=args.box_pad,
        score_sigma=args.score_sigma,
    )
    counts = {s: np.zeros((3, len(CLASS_NAMES) + 1), dtype=np.int64) for s in ("raw", *STAGES)}

    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        scene_file, corpus = Path(tmp) / "scene.json", Path(tmp) / "corpus"
        scene_file.write_text(json.dumps(scene.to_dict()))
        code = wlf_main(["synth", "--out", str(corpus), "--config", str(scene_file),
                         "--num-frames", str(args.frames), "--epochs", "4"])
        if code:
            return code
        cfg = PipelineConfig()
        for bundle in discover_bundles(f"{corpus}/*"):
            counts["raw"] += raw_counts(bundle)
            for stage, stages in STAGES.items():
                counts[stage] += process_frame(bundle, replace(cfg, stages=stages))[1].counts
    elapsed = time.time() - t0

    header = f"{'stage':<8}{'mIoU':>8}" + "".join(f"{n:>12}" for n in CLASS_NAMES)
    print(header)
    print("-" * len(header))
    for stage, (tp, fp, fn) in counts.items():
        per, mean = miou_from_counts(tp, fp, fn)
        row = f"{stage:<8}{100 * mean:>8.2f}"
        for c in range(1, len(CLASS_NAMES) + 1):
            row += f"{100 * per.get(c, 0.0):>12.2f}"
        print(row)
    print(f"\n{args.frames} frames in {elapsed:.1f}s (IoU values in points, 0-100)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
