#!/usr/bin/env python3
"""Demonstrate 2D mask fusion: weights, trinarisation, and the pseudo loss.

Fabricates a square object mask plus several noisy predictions with varying
confidence and box overlap, fuses them, and prints how the weighting reacts
to the exponent k.

Example:
  python scripts/fuse_masks_demo.py --k 0 1 5
"""

import argparse
import sys

import numpy as np

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


def fabricate_predictions(rng, gt_box, shape=(48, 64), n=4):
    """Noisy mask predictions around a ground-truth box."""
    h, w = shape
    preds = []
    for _ in range(n):
        jitter = rng.normal(0, 3.0, 4)
        x0 = np.clip(gt_box.bounds[0] + jitter[0], 0, w - 2)
        y0 = np.clip(gt_box.bounds[1] + jitter[1], 0, h - 2)
        x1 = np.clip(gt_box.bounds[2] + jitter[2], x0 + 1, w)
        y1 = np.clip(gt_box.bounds[3] + jitter[3], y0 + 1, h)
        prob = np.clip(rng.normal(0.15, 0.1, shape), 0, 1)
        ys, xs = np.mgrid[0:h, 0:w]
        inside = (xs >= x0) & (xs < x1) & (ys >= y0) & (ys < y1)
        prob[inside] = np.clip(rng.normal(0.85, 0.1, int(inside.sum())), 0, 1)
        preds.append(
            MaskPrediction(
                prob_map=prob,
                score=float(rng.uniform(0.3, 1.0)),
                pred_box=(float(x0), float(y0), float(x1), float(y1)),
            )
        )
    return preds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--predictions", type=int, default=4)
    parser.add_argument("--k", type=float, nargs="+", default=[0.0, 1.0, 5.0])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    gt_box = Box2D(box_id=1, class_id=1, bounds=(20.0, 12.0, 44.0, 36.0))
    preds = fabricate_predictions(rng, gt_box, n=args.predictions)
    scores = np.array([p.score for p in preds])
    ious = np.array([box_iou(p.pred_box, gt_box.bounds) for p in preds])

    print(f"{'pred':<6}{'score':>8}{'box IoU':>9}" + "".join(f"{f'w(k={k:g})':>12}" for k in args.k))
    weight_sets = {k: fusion_weights(scores, ious, k) for k in args.k}
    for j in range(len(preds)):
        row = f"{j:<6}{scores[j]:>8.3f}{ious[j]:>9.3f}"
        for k in args.k:
            row += f"{weight_sets[k][j]:>12.4f}"
        print(row)

    cfg = IpgConfig()
    for k in args.k:
        fused = weight_masks(preds, gt_box, k)
        target = binarize(fused, cfg)
        losses = [pseudo_loss(p.prob_map, target) for p in preds]
        frac_ignore = float((target == -1).mean())
        print(
            f"k={k:g}: fused range [{fused.min():.3f}, {fused.max():.3f}], "
            f"{100 * frac_ignore:.1f}% pixels ignored, "
            f"mean pseudo loss {np.mean(losses):.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
