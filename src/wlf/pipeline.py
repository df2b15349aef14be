"""End-to-end label generation over frame bundles.

``process_frame`` is the one stage engine. Per frame: project points, crop
frustums, build the range image and ring segments, take starting labels from
an earlier run or from spg (refine to trinary labels, optional; cluster per
box and keep the largest component), then apply the optional voting and
ring-segment correction stages. Labels are written per frame id next to a
metrics report when ground truth is available, plus a run.json with the
config hash and stage timings. Frames are independent, so the worker pool
never changes the output bytes.
"""

from __future__ import annotations

import glob
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_labels,
    read_votes,
    write_json,
    write_labels,
)
from .config import PipelineConfig
from .frames import Box2D, box_classes, crop_frustum, project_points
from .metrics import (
    MetricReport,
    instance_ap,
    instances_from_labels,
    miou_from_counts,
    confusion_counts,
    pred_instances_from_labels,
)
from .range_image import build_range_image, dcs_dynamic
from .spatial import (
    TRINARY_FG,
    PseudoLabels,
    generate_labels,
    refine_by_segments,
)
from .ring_correct import rsc_correct
from .voting import vote_correct

__all__ = ["MissingInputError", "InvariantError", "FrameOutput", "RunResult", "process_frame",
           "run_pipeline"]

logger = logging.getLogger(__name__)


class MissingInputError(FileNotFoundError):
    """Input bundles or required files are absent."""


class InvariantError(AssertionError):
    """An internal pipeline invariant was violated."""


@dataclass
class FrameOutput:
    frame_id: str
    labels: PseudoLabels
    class_names: list[str]
    timings: dict[str, float] = field(default_factory=dict)
    tp: np.ndarray | None = None
    fp: np.ndarray | None = None
    fn: np.ndarray | None = None
    pred_instances: list = field(default_factory=list)
    gt_instances: list = field(default_factory=list)


@dataclass
class RunResult:
    out_dir: Path
    frame_ids: list[str]
    report: MetricReport | None
    class_names: list[str]


def reconcile_instances(labels: PseudoLabels, boxes: list[Box2D]) -> PseudoLabels:
    """Drop instance ids wherever the semantic label left the box class."""
    out = labels.copy()
    owned = out.instance > 0
    mismatch = owned & (out.semantic != box_classes(boxes)[out.instance])
    out.instance[mismatch] = 0
    return out


def read_start_labels(directory: Path, num_points: int, boxes: list[Box2D]) -> PseudoLabels:
    """Labels from an earlier run; BundleError unless they fit the frame's boxes."""
    try:
        labels = read_labels(directory, num_points)
        labels.check_consistency(boxes)
    except (BundleError, AssertionError) as exc:
        raise BundleError(f"{directory}: {exc}") from exc
    return labels


def process_frame(
    bundle_dir: Path, cfg: PipelineConfig, labels_dir: Path | None = None
) -> FrameOutput:
    """Run the configured stages on one bundle and return labels + metrics.

    Starting labels come from spg (plain clustering when spg is off) or, when
    ``labels_dir`` is given, from ``labels_dir/<frame_id>``; pvc and rsc then
    apply as ``cfg.stages`` says.
    """
    frame, calib, boxes, manifest = read_frame_bundle(bundle_dir)
    beams, columns = int(manifest["beams"]), int(manifest["columns"])
    n_cls = manifest.get("num_classes", 3)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    proj = project_points(calib, frame)
    box_assign = crop_frustum(proj, boxes)
    timings["project"] = time.perf_counter() - t0

    # Only rsc and a running spg read the segments.
    if "rsc" in cfg.stages or ("spg" in cfg.stages and labels_dir is None):
        t0 = time.perf_counter()
        segments = dcs_dynamic(build_range_image(frame, beams, columns), cfg.dcs)
        timings["segments"] = time.perf_counter() - t0

    if labels_dir is not None:
        labels = read_start_labels(Path(labels_dir) / frame.frame_id, frame.num_points, boxes)
    else:
        missing = sorted({b.class_id for b in boxes} - cfg.radii.radii.keys())
        if missing:
            raise BundleError(
                f"{bundle_dir / 'boxes.json'}: no clustering radius for class {missing[0]}"
            )
        t0 = time.perf_counter()
        if "spg" in cfg.stages:
            trinary = refine_by_segments(box_assign, segments)
        else:
            trinary = np.where(box_assign > 0, TRINARY_FG, 0).astype(np.int8)
        labels = generate_labels(frame, trinary, box_assign, boxes, cfg.radii)
        timings["spg"] = time.perf_counter() - t0

    if "pvc" in cfg.stages:
        # Vote over the latest n_his epochs once the next epoch (latest + 1)
        # reaches start_epoch; a short history or a closed gate is logged.
        t0 = time.perf_counter()
        epochs = list_vote_epochs(bundle_dir)
        if not epochs:
            raise MissingInputError(f"no votes_*.f32 in {bundle_dir}")
        recent, epoch = epochs[-cfg.pvc.n_his :], epochs[-1] + 1
        if len(recent) < cfg.pvc.n_his or epoch < cfg.pvc.start_epoch:
            logger.warning(
                "%s: pvc skipped: %d of n_his=%d vote epochs, next epoch %d (start_epoch %d)",
                bundle_dir, len(recent), cfg.pvc.n_his, epoch, cfg.pvc.start_epoch,
            )
        else:
            scores = np.stack([read_votes(bundle_dir, e, frame.num_points) for e in recent])
            try:
                labels = vote_correct(scores, cfg.pvc, labels, box_assign, boxes)
            except ValueError as exc:
                raise BundleError(f"{bundle_dir}: {exc}") from exc
        timings["pvc"] = time.perf_counter() - t0

    if "rsc" in cfg.stages:
        t0 = time.perf_counter()
        corrected = rsc_correct(labels.semantic, segments, cfg.rsc)
        labels = reconcile_instances(
            PseudoLabels(semantic=corrected, instance=labels.instance), boxes
        )
        timings["rsc"] = time.perf_counter() - t0

    try:
        labels.check_consistency(boxes)
    except AssertionError as exc:
        raise InvariantError(f"frame {frame.frame_id}: {exc}") from exc

    out = FrameOutput(
        frame_id=frame.frame_id,
        labels=labels,
        class_names=manifest.get("class_names", []),
        timings=timings,
    )
    if frame.has_gt:
        ignore = frame.gt_semantic == -1
        out.tp, out.fp, out.fn = confusion_counts(labels.semantic, frame.gt_semantic, n_cls)
        out.pred_instances = pred_instances_from_labels(
            labels.semantic, labels.instance, frame.frame_id, ignore
        )
        out.gt_instances = instances_from_labels(
            frame.gt_semantic, frame.gt_instance, frame.frame_id, ignore
        )
    return out


# Files a run writes next to its per-frame directories.
RUN_FILES = ("run.json", "metrics.json", "metrics.txt")


def check_frame_ids(bundles: list[Path], frame_ids: list[str]) -> None:
    """BundleError if a frame id names a run file or two bundles share a frame
    id, so that no two outputs share a path."""
    owner: dict[str, Path] = {}
    for bundle, frame_id in zip(bundles, frame_ids):
        if frame_id in RUN_FILES:
            raise BundleError(f"{bundle}: frame_id {frame_id!r} is reserved for a run file")
        if frame_id in owner:
            raise BundleError(f"frame_id {frame_id!r} is in both {owner[frame_id]} and {bundle}")
        owner[frame_id] = bundle


def discover_bundles(pattern: str) -> list[Path]:
    """Frame bundle directories matching a glob, sorted by name."""
    if not pattern:
        raise MissingInputError("no input frames configured")
    candidates = sorted(Path(p) for p in glob.glob(pattern))
    bundles = [p for p in candidates if (p / "manifest.json").is_file()]
    if not bundles:
        raise MissingInputError(f"no frame bundles match {pattern!r}")
    return bundles


def aggregate_report(outputs: list[FrameOutput]) -> MetricReport | None:
    """Pool confusion counts and instances over frames with ground truth."""
    scored = [o for o in outputs if o.tp is not None]
    if not scored:
        return None
    tp = np.sum([o.tp for o in scored], axis=0)
    fp = np.sum([o.fp for o in scored], axis=0)
    fn = np.sum([o.fn for o in scored], axis=0)
    per_class_iou, mean_iou = miou_from_counts(tp, fp, fn)
    preds = [p for o in scored for p in o.pred_instances]
    gts = [g for o in scored for g in o.gt_instances]
    per_class_ap, mean_ap, ap50, ap75 = instance_ap(preds, gts)
    return MetricReport(
        per_class_iou=per_class_iou,
        miou=mean_iou,
        ap=mean_ap,
        ap50=ap50,
        ap75=ap75,
        per_class_ap=per_class_ap,
    )


def run_pipeline(cfg: PipelineConfig, labels_dir: Path | None = None) -> RunResult:
    """Process every bundle matched by the config (see ``process_frame``) and
    write all artifacts, one directory per frame id."""
    bundles = discover_bundles(cfg.frames)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outputs = list(pool.map(lambda b: process_frame(b, cfg, labels_dir), bundles))
    else:
        outputs = [process_frame(b, cfg, labels_dir) for b in bundles]
    check_frame_ids(bundles, [o.frame_id for o in outputs])

    class_names = outputs[0].class_names  # the first bundle's
    outputs.sort(key=lambda o: o.frame_id)

    for out in outputs:
        write_labels(out_dir / out.frame_id, out.labels)

    report = aggregate_report(outputs)
    if report is not None:
        write_json(out_dir / "metrics.json", report.to_dict(class_names))
        (out_dir / "metrics.txt").write_text(report.format_table(class_names) + "\n")

    stage_totals: dict[str, float] = {}
    for out in outputs:
        for stage, dt in out.timings.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + dt
    run_info = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "versions": {"wlf": __version__, "numpy": np.__version__},
        "num_frames": len(outputs),
        "stage_seconds": {k: round(v, 6) for k, v in sorted(stage_totals.items())},
        "total_seconds": round(time.perf_counter() - started, 6),
    }
    write_json(out_dir / "run.json", run_info)
    return RunResult(
        out_dir=out_dir,
        frame_ids=[o.frame_id for o in outputs],
        report=report,
        class_names=class_names,
    )
