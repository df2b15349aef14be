"""End-to-end label generation over frame bundles.

``process_frame`` is the one stage engine. Per frame: project points, crop
frustums, build the range image and ring segments, take starting labels from
an earlier run or from spg (refine to trinary labels, optional; cluster per
box and keep the largest component), then apply the optional voting and
ring-segment correction stages, and score the labels when the bundle has
ground truth. ``run_pipeline`` writes each frame's labels as soon as it is
done and keeps only its counts; a metrics report (when ground truth is
available) and a run.json with the config hash and stage timings come last,
so run.json marks a finished run. Frames are independent, so the worker pool
never changes the output bytes.
"""

from __future__ import annotations

import glob
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_labels,
    read_manifest,
    read_votes,
    write_json,
    write_labels,
)
from .config import PipelineConfig
from .frames import Box2D, box_classes, crop_frustum, project_points
from .metrics import (
    FrameInstances,
    MetricReport,
    confusion_counts,
    instance_ap,
    instances_from_labels,
    miou_from_counts,
    overlap_table,
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

__all__ = ["MissingInputError", "FrameOutput", "RunResult", "process_frame", "run_pipeline"]

logger = logging.getLogger(__name__)


class MissingInputError(FileNotFoundError):
    """Input bundles or required files are absent."""


@dataclass
class FrameOutput:
    """What a run keeps of a frame once its labels are written: stage timings
    and, with ground truth, the TP/FP/FN rows and the instance table."""

    frame_id: str
    timings: dict[str, float] = field(default_factory=dict)
    counts: np.ndarray | None = None
    instances: FrameInstances | None = None


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
) -> tuple[PseudoLabels, FrameOutput]:
    """Run the configured stages on one bundle; return its labels and scores.

    Starting labels come from spg (plain clustering when spg is off) or, when
    ``labels_dir`` is given, from ``labels_dir/<frame_id>``; pvc and rsc then
    apply as ``cfg.stages`` says.
    """
    frame, calib, boxes, manifest = read_frame_bundle(bundle_dir)
    beams, columns = manifest["beams"], manifest["columns"]
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    box_assign = crop_frustum(*project_points(calib, frame), frame.num_points, boxes)
    timings["project"] = time.perf_counter() - t0

    # Only rsc and a running spg read the segments.
    if "rsc" in cfg.stages or ("spg" in cfg.stages and labels_dir is None):
        t0 = time.perf_counter()
        segments = dcs_dynamic(*build_range_image(frame, beams, columns), cfg.dcs)
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
        raise AssertionError(f"frame {frame.frame_id}: {exc}") from exc

    out = FrameOutput(frame_id=frame.frame_id, timings=timings)
    if frame.has_gt:
        ignore = frame.gt_semantic == -1
        out.counts = np.stack(
            confusion_counts(labels.semantic, frame.gt_semantic, manifest["num_classes"])
        )
        preds = pred_instances_from_labels(labels.semantic, labels.instance, ignore)
        gts = instances_from_labels(frame.gt_semantic, frame.gt_instance, ignore)
        inter = overlap_table(preds, gts, labels.instance, frame.gt_instance, ignore)
        out.instances = FrameInstances(frame.frame_id, preds, gts, inter)
    return labels, out


# Files a run writes next to its per-frame directories.
RUN_FILES = ("run.json", "metrics.json", "metrics.txt")


def discover_bundles(pattern: str) -> list[Path]:
    """Frame bundle directories matching a glob, sorted by name."""
    if not pattern:
        raise MissingInputError("no input frames configured")
    candidates = sorted(Path(p) for p in glob.glob(pattern))
    bundles = [p for p in candidates if (p / "manifest.json").is_file()]
    if not bundles:
        raise MissingInputError(f"no frame bundles match {pattern!r}")
    return bundles


def read_manifests(bundles: list[Path]) -> list[dict]:
    """Every bundle's manifest, read before anything is written. BundleError
    for a malformed one, a ``num_classes`` other than the first bundle's, and
    a frame id that names a run file or another bundle's output directory."""
    manifests = [read_manifest(b) for b in bundles]
    owner: dict[str, Path] = {}
    for bundle, manifest in zip(bundles, manifests):
        frame_id, n_cls = manifest["frame_id"], manifest["num_classes"]
        if n_cls != manifests[0]["num_classes"]:
            raise BundleError(f"{bundle / 'manifest.json'}: num_classes {n_cls} differs "
                              f"from {manifests[0]['num_classes']} in {bundles[0]}")
        if frame_id in RUN_FILES:
            raise BundleError(f"{bundle}: frame_id {frame_id!r} is reserved for a run file")
        if frame_id in owner:
            raise BundleError(f"frame_id {frame_id!r} is in both {owner[frame_id]} and {bundle}")
        owner[frame_id] = bundle
    return manifests


def run_pipeline(cfg: PipelineConfig, labels_dir: Path | None = None) -> RunResult:
    """Process every bundle matched by the config (see ``process_frame``) in
    frame-id order, one output directory per frame id."""
    bundles = discover_bundles(cfg.frames)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    manifests = read_manifests(bundles)
    class_names = manifests[0]["class_names"]  # the first bundle's
    bundles = [b for _, b in sorted(zip((m["frame_id"] for m in manifests), bundles))]

    def run_frame(bundle: Path) -> FrameOutput:
        labels, out = process_frame(bundle, cfg, labels_dir)
        write_labels(out_dir / out.frame_id, labels)
        return out

    counts = None
    scored: list[FrameInstances] = []
    frame_ids: list[str] = []
    stage_totals: dict[str, float] = {}
    # A pool yields the frames in order too; after a failed frame it starts no
    # other. One thread needs no pool, nor the import of concurrent.futures.
    pool = None
    if cfg.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # noqa: PLC0415

        pool = ThreadPoolExecutor(max_workers=cfg.threads)
    try:
        for out in map(run_frame, bundles) if pool is None else pool.map(run_frame, bundles):
            frame_ids.append(out.frame_id)
            for stage, dt in out.timings.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + dt
            if out.instances is not None:
                counts = out.counts if counts is None else counts + out.counts
                scored.append(out.instances)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    report = None
    if scored:
        per_class_iou, mean_iou = miou_from_counts(*counts)
        per_class_ap, mean_ap, ap50, ap75 = instance_ap(scored)
        report = MetricReport(per_class_iou, mean_iou, mean_ap, ap50, ap75, per_class_ap)
        write_json(out_dir / "metrics.json", report.to_dict(class_names))
        (out_dir / "metrics.txt").write_text(report.format_table(class_names) + "\n")
    run_info = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "versions": {"wlf": __version__, "numpy": np.__version__},
        "num_frames": len(frame_ids),
        "stage_seconds": {k: round(v, 6) for k, v in sorted(stage_totals.items())},
        "total_seconds": round(time.perf_counter() - started, 6),
    }
    write_json(out_dir / "run.json", run_info)
    return RunResult(out_dir=out_dir, frame_ids=frame_ids, report=report, class_names=class_names)
