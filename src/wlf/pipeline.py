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

A frame's arrays are plain locals, each alive from its first reader to its
last: the boxes until the frustum crop, after which every stage reads the
box-class table (``frames.box_classes``), the full float32 points, as
stored, and the beams until the range image is built (spg keeps only the
in-box points' columns), the raster until dcs returns, the trinary labels
until clustering, one epoch's vote row at a time as pvc counts, the box
assignment until pvc and the segment ids and their sizes until rsc. The instances are
reconciled in the labels rsc leaves. The ground truth is read only when the
frame is scored, where the metrics see it and the labels alone, so a run's
peak memory is that of its largest frame's largest stage.
"""

from __future__ import annotations

import glob
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, warn
from .bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_ground_truth,
    read_labels,
    read_manifest,
    read_votes,
    write_json,
    write_labels,
)
from .config import ConfigError, PipelineConfig
from .frames import box_classes, crop_frustum, project_points
from .metrics import (
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


class MissingInputError(FileNotFoundError):
    """Input bundles or required files are absent."""


@dataclass
class FrameOutput:
    """What a run keeps of a frame once its labels are written: stage timings
    and, with ground truth, the TP/FP/FN rows and ``instance_ap``'s
    ``(frame_id, preds, gts, inter)`` arrays."""

    frame_id: str
    timings: dict[str, float] = field(default_factory=dict)
    counts: np.ndarray | None = None
    instances: tuple[str, np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass
class RunResult:
    out_dir: Path
    frame_ids: list[str]
    report: MetricReport | None
    class_names: list[str]


def reconcile_instances(labels: PseudoLabels, class_of: np.ndarray) -> PseudoLabels:
    """Drop instance ids wherever the semantic label left the box class in
    ``class_of``, in place, and return ``labels``; only the points with an
    instance (``instance > 0``) are read past the one test that finds them,
    and a read-only ``labels.instance`` (as ``read_labels`` returns it) is
    copied first."""
    owned = np.flatnonzero(labels.instance > 0)
    mismatch = owned[labels.semantic[owned] != class_of[labels.instance[owned]]]
    if not labels.instance.flags.writeable:
        labels.instance = labels.instance.copy()
    labels.instance[mismatch] = 0
    return labels


def read_start_labels(
    directory: Path, num_points: int, class_of: np.ndarray, num_classes: int
) -> PseudoLabels:
    """Labels from an earlier run; BundleError unless every semantic label is
    in -1..num_classes, every instance id is >= 0 and they fit ``class_of``."""
    try:
        labels = PseudoLabels(*read_labels(directory, num_points))
        if num_points:
            lo, hi = int(labels.semantic.min()), int(labels.semantic.max())
            if lo < -1 or hi > num_classes:
                bad = lo if lo < -1 else hi
                raise BundleError(f"semantic label {bad} outside -1..{num_classes}")
            if labels.instance.min() < 0:
                raise BundleError(f"instance id {int(labels.instance.min())} is negative")
        labels.check_consistency(class_of)
    except (BundleError, AssertionError) as exc:
        raise BundleError(f"{directory}: {exc}") from exc
    return labels


def process_frame(
    bundle_dir: Path, manifest: dict, cfg: PipelineConfig, labels_dir: Path | None = None
) -> tuple[PseudoLabels, FrameOutput]:
    """Run the configured stages on one bundle, whose manifest ``read_manifest``
    has read; return its labels and scores.

    Starting labels come from spg (plain clustering when spg is off) or, when
    ``labels_dir`` is given, from ``labels_dir/<frame_id>``; pvc and rsc then
    apply as ``cfg.stages`` says. ``build_range_image`` is the last reader of
    the full ``xyz``: spg gets the (3, K) columns of the K in-box points.
    The ground truth (``read_ground_truth``) is read after the stages, where
    the frame is scored.
    """
    xyz, beam_row, calib, boxes = read_frame_bundle(bundle_dir, manifest)
    frame_id, num_points = manifest["frame_id"], manifest["num_points"]
    beams, columns = manifest["beams"], manifest["columns"]
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    box_assign = crop_frustum(*project_points(calib, xyz), num_points, boxes)
    timings["project"] = time.perf_counter() - t0
    class_of = box_classes(boxes)

    # A running spg clusters only the in-box points, so it keeps their
    # columns alone and the range image is the last reader of the full xyz.
    spg_runs = labels_dir is None
    in_box_xyz = xyz[:, box_assign > 0] if spg_runs else None

    # Only rsc and a running spg read the segment ids.
    segment_id = seg_size = None
    if "rsc" in cfg.stages or ("spg" in cfg.stages and spg_runs):
        t0 = time.perf_counter()
        depth, cell = build_range_image(xyz, beam_row, beams, columns)
        del xyz, beam_row
        segment_id = dcs_dynamic(depth, cell, cfg.dcs).segment_id
        del depth, cell
        # One table of segment sizes, read by refine and rsc.
        seg_size = np.bincount(segment_id)
        timings["segments"] = time.perf_counter() - t0
    else:
        del xyz, beam_row

    if not spg_runs:
        labels = read_start_labels(Path(labels_dir) / frame_id, num_points, class_of,
                                   manifest["num_classes"])
    else:
        missing = sorted(set(class_of[class_of > 0].tolist()) - cfg.radii.keys())
        if missing:
            raise BundleError(f"{bundle_dir / 'boxes.json'}: "
                              f"no clustering radius for class {missing[0]}")
        t0 = time.perf_counter()
        if "spg" in cfg.stages:
            trinary = refine_by_segments(box_assign, segment_id, seg_size)
        else:
            trinary = np.where(box_assign > 0, TRINARY_FG, 0).astype(np.int8)
        try:  # such as an in-box point past ccl_cluster's bound
            labels = generate_labels(in_box_xyz, trinary, box_assign, class_of, cfg.radii)
        except ValueError as exc:
            raise BundleError(f"{bundle_dir}: {exc}") from exc
        del in_box_xyz, trinary
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
            warn(
                __name__, "%s: pvc skipped: %d of n_his=%d vote epochs, next epoch %d (start_epoch %d)",
                bundle_dir, len(recent), cfg.pvc.n_his, epoch, cfg.pvc.start_epoch,
            )
        else:
            # One epoch's scores are read at a time, as vote_correct counts them.
            try:
                labels = vote_correct(
                    (read_votes(bundle_dir, e, num_points) for e in recent),
                    cfg.pvc, labels, box_assign, class_of,
                )
            except BundleError:  # a vote file's read error names the file
                raise
            except ValueError as exc:
                raise BundleError(f"{bundle_dir}: {exc}") from exc
        timings["pvc"] = time.perf_counter() - t0
    del box_assign

    if "rsc" in cfg.stages:
        t0 = time.perf_counter()
        semantic = rsc_correct(labels.semantic, segment_id, cfg.rsc, seg_size)
        labels = reconcile_instances(PseudoLabels(semantic, labels.instance), class_of)
        timings["rsc"] = time.perf_counter() - t0
    del segment_id, seg_size

    try:
        labels.check_consistency(class_of)
    except AssertionError as exc:
        raise AssertionError(f"frame {frame_id}: {exc}") from exc

    out = FrameOutput(frame_id=frame_id, timings=timings)
    gt = read_ground_truth(bundle_dir, manifest)
    if gt is not None:
        gt_semantic, gt_instance = gt
        ignore = gt_semantic == -1
        out.counts = np.stack(
            confusion_counts(labels.semantic, gt_semantic, manifest["num_classes"])
        )
        preds = pred_instances_from_labels(labels.semantic, labels.instance, ignore)
        gts = instances_from_labels(gt_semantic, gt_instance, ignore)
        inter = overlap_table(preds["id"], gts["id"], labels.instance, gt_instance, ignore)
        out.instances = (frame_id, preds, gts, inter)
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
    for a malformed one, class counts or names unlike the first bundle's, and
    a frame id that names a run file or another bundle's output directory."""
    manifests = [read_manifest(b) for b in bundles]
    owner: dict[str, Path] = {}
    for bundle, manifest in zip(bundles, manifests):
        frame_id = manifest["frame_id"]
        for key in ("num_classes", "class_names"):
            if manifest[key] != manifests[0][key]:
                raise BundleError(f"{bundle / 'manifest.json'}: {key} {manifest[key]!r} differs "
                                  f"from {manifests[0][key]!r} in {bundles[0]}")
        if frame_id in RUN_FILES:
            raise BundleError(f"{bundle}: frame_id {frame_id!r} is reserved for a run file")
        if frame_id in owner:
            raise BundleError(f"frame_id {frame_id!r} is in both {owner[frame_id]} and {bundle}")
        owner[frame_id] = bundle
    return manifests


def file_in_the_way(path: Path) -> Path | None:
    """The nearest of ``path`` and its ancestors that exists, if it is not a
    directory: no directory can be read or made at ``path`` then."""
    for p in (path, *path.parents):
        if p.exists():
            return None if p.is_dir() else p
    return None


def check_out_dir(out_dir: Path) -> None:
    """ConfigError, naming the file, if ``out_dir`` is a file or lies beneath one."""
    blocker = file_in_the_way(out_dir)
    if blocker is not None:
        raise ConfigError(f"--out {out_dir}: {blocker} is not a directory")


def check_new_out(out_dir: Path) -> None:
    """ConfigError, naming the file, if ``out_dir`` cannot be a directory
    (``check_out_dir``) or already holds a pipeline or ipg run: a rerun over
    fewer frames would leave the old run's frames behind."""
    check_out_dir(out_dir)
    existing = [out_dir / f for f in RUN_FILES if (out_dir / f).exists()]
    existing += sorted(out_dir.glob("*/sem.i32")) + sorted(out_dir.glob("*/ipg.json"))
    if existing:
        raise ConfigError(f"{out_dir} already holds a run ({existing[0]}); use a new --out")


def run_pipeline(cfg: PipelineConfig, labels_dir: Path | None = None) -> RunResult:
    """Process every bundle matched by the config (see ``process_frame``) in
    frame-id order, one output directory per frame id. spg makes starting
    labels, so with ``labels_dir`` it is a ConfigError, before any write."""
    if labels_dir is not None and "spg" in cfg.stages:
        raise ConfigError(f"spg cannot run on the labels of {labels_dir}: it makes starting labels")
    bundles = discover_bundles(cfg.frames)
    out_dir = Path(cfg.out_dir)
    check_new_out(out_dir)
    if labels_dir is not None and (blocker := file_in_the_way(Path(labels_dir))) is not None:
        raise MissingInputError(f"--labels {labels_dir}: {blocker} is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    manifests = read_manifests(bundles)
    class_names = manifests[0]["class_names"]  # the first bundle's
    # Frame ids are unique, so the sort never compares two manifests.
    inputs = sorted((m["frame_id"], b, m) for b, m in zip(bundles, manifests))

    def run_frame(item: tuple[str, Path, dict]) -> FrameOutput:
        _, bundle, manifest = item
        labels, out = process_frame(bundle, manifest, cfg, labels_dir)
        write_labels(out_dir / out.frame_id, labels.semantic, labels.instance)
        return out

    counts = None
    scored: list[tuple] = []
    frame_ids: list[str] = []
    stage_totals: dict[str, float] = {}
    # A pool yields the frames in order too; after a failed frame it starts no
    # other. One thread needs no pool, nor the import of concurrent.futures.
    pool = None
    if cfg.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # noqa: PLC0415

        pool = ThreadPoolExecutor(max_workers=cfg.threads)
    try:
        for out in map(run_frame, inputs) if pool is None else pool.map(run_frame, inputs):
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
