"""In-process span tracer for one `wlf` pipeline run, and the per-layer metrics.

Each traced function is replaced at the module attribute its caller looks up
(``wlf.pipeline.read_frame_bundle``, ``wlf.spatial.ccl_cluster``, ...), so the
program itself is not edited. A span records its name, start, end, parent,
frame id and thread id, plus a few counts taken from the call's arguments and
result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = "pipeline.run"

# Files that read_frame_bundle opens; scene.json and the votes are not among them.
_BUNDLE_FILES = (
    "manifest.json",
    "calibration.json",
    "boxes.json",
    "points.f32",
    "beam_row.u16",
    "gt_semantic.i32",
    "gt_instance.i32",
)


def _bundle_bytes(args, result) -> dict:
    directory = Path(args[0])
    return {"bytes": sum((directory / f).stat().st_size for f in _BUNDLE_FILES if (directory / f).is_file())}


def _votes_bytes(args, result) -> dict:
    return {"bytes": (Path(args[0]) / f"votes_{args[1]}.f32").stat().st_size}


def _crop_counts(args, result) -> dict:
    return {"points": int(result.shape[0]), "in_frustum": int(np.count_nonzero(result))}


def _segment_counts(args, result) -> dict:
    return {"segments": int(result.num_segments)}


def _label_counts(args, result) -> dict:
    return {"points": int(result.semantic.shape[0]), "ignored": int(np.count_nonzero(result.semantic == -1))}


def _ccl_counts(args, result) -> dict:
    return {"points": int(result.labels.shape[0]), "components": int(result.num)}


def _kept_counts(args, result) -> dict:
    return {"kept": int(result.shape[0])}


def _pvc_counts(args, result) -> dict:
    before = args[2]
    changed = (before.semantic != result.semantic) | (before.instance != result.instance)
    return {"changed": int(np.count_nonzero(changed))}


def _rsc_counts(args, result) -> dict:
    return {"changed": int(np.count_nonzero(np.asarray(args[0]) != result))}


def _pred_count(args, result) -> dict:
    return {"pred_instances": len(result)}


def _gt_count(args, result) -> dict:
    return {"gt_instances": len(result)}


def _frame_id(args) -> str:
    return Path(args[0]).name


# (module, attribute, span name, counter). Every entry is called on every
# workload, because every workload runs all stages with ground truth present.
WRAPPED = [
    ("wlf.pipeline", "process_frame", "pipeline.frame", None),
    ("wlf.pipeline", "read_frame_bundle", "bundle.read", _bundle_bytes),
    ("wlf.pipeline", "list_vote_epochs", "bundle.read", None),
    ("wlf.pipeline", "read_votes", "bundle.read", _votes_bytes),
    ("wlf.pipeline", "write_labels", "bundle.write", None),
    ("wlf.pipeline", "write_json", "bundle.write", None),
    ("wlf.pipeline", "project_points", "frames.project", None),
    ("wlf.pipeline", "crop_frustum", "frames.crop", _crop_counts),
    ("wlf.pipeline", "build_range_image", "range_image.build", None),
    ("wlf.pipeline", "dcs_dynamic", "range_image.dcs", _segment_counts),
    ("wlf.pipeline", "refine_by_segments", "spatial.vote", None),
    ("wlf.pipeline", "generate_labels", "spatial.labels", _label_counts),
    ("wlf.spatial", "ccl_cluster", "clustering.ccl", _ccl_counts),
    ("wlf.spatial", "max_component", "clustering.max_component", _kept_counts),
    ("wlf.pipeline", "vote_correct", "voting.pvc", _pvc_counts),
    ("wlf.pipeline", "rsc_correct", "ring_correct.rsc", _rsc_counts),
    ("wlf.pipeline", "confusion_counts", "metrics.frame", None),
    ("wlf.pipeline", "pred_instances_from_labels", "metrics.frame", _pred_count),
    ("wlf.pipeline", "instances_from_labels", "metrics.frame", _gt_count),
    ("wlf.pipeline", "instance_ap", "metrics.ap", None),
]

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "bundle.read_s": "s",
    "bundle.write_s": "s",
    "bundle.read_mb": "MiB",
    "frames.project_s": "s",
    "frames.crop_s": "s",
    "frames.in_frustum_share": "ratio",
    "range_image.build_s": "s",
    "range_image.dcs_s": "s",
    "range_image.segments": "count",
    "spatial.vote_s": "s",
    "spatial.labels_self_s": "s",
    "spatial.ignore_share": "ratio",
    "clustering.ccl_s": "s",
    "clustering.ccl_calls": "count",
    "clustering.ccl_points": "count",
    "clustering.components": "count",
    "clustering.kept_share": "ratio",
    "clustering.max_component_s": "s",
    "voting.pvc_s": "s",
    "voting.changed_points": "count",
    "ring_correct.rsc_s": "s",
    "ring_correct.changed_points": "count",
    "metrics.frame_s": "s",
    "metrics.ap_s": "s",
    "metrics.pred_instances": "count",
    "metrics.gt_instances": "count",
    "pipeline.frame_s": "s",
    "pipeline.self_s": "s",
    "pipeline.pool_speedup": "ratio",
    "cli.startup_s": "s",
    "cli.cpu_s": "s",
    "cli.cpu_util": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
}


class TraceError(RuntimeError):
    """A traced name is missing from the program or recorded no calls."""


@dataclass
class Span:
    name: str
    source: str
    parent: "Span | None"
    frame_id: str | None
    thread_id: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every function in WRAPPED while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root: Span | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, source: str, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            if name == "pipeline.frame":
                frame_id = _frame_id(args)
            else:
                frame_id = parent.frame_id if parent is not None else None
            span = Span(name, source, parent, frame_id, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            tracer.spans.append(span)  # list.append is atomic under the GIL
            return result

        return traced

    def install(self) -> None:
        targets = []
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise TraceError(f"traced name {module_name}.{attr} no longer exists")
            targets.append((module, attr, name, counter))
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            source = f"{module.__name__}.{attr}"
            setattr(module, attr, self._wrap(original, source, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def run(self, fn, *args):
        """Call ``fn(*args)`` under a new root span; returns (result, root span)."""
        root = Span(ROOT, ROOT, None, None, threading.get_ident())
        self._root = root
        self.install()
        root.start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            root.end = time.perf_counter()
            self.uninstall()
            self._root = None
        self.spans.append(root)
        return result, root

    def check_complete(self) -> None:
        """Fail loudly if any traced name recorded no calls."""
        called = {s.source for s in self.spans}
        for module_name, attr, _, _ in WRAPPED:
            if f"{module_name}.{attr}" not in called:
                raise TraceError(f"traced name {module_name}.{attr} recorded no calls")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(id(s), []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = s.duration - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from single-threaded traced runs (one root span each)."""
    self_of = self_times(spans)

    def by(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def self_s(*names: str) -> float:
        return sum(self_of[id(s)] for n in names for s in by(n))

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by(name))

    wall = sum(s.duration for s in by(ROOT))
    crop_points = total("frames.crop", "points")
    ccl_points = total("clustering.ccl", "points")
    m = {
        "bundle.read_s": self_s("bundle.read"),
        "bundle.write_s": self_s("bundle.write"),
        "bundle.read_mb": total("bundle.read", "bytes") / 2**20,
        "frames.project_s": self_s("frames.project"),
        "frames.crop_s": self_s("frames.crop"),
        "frames.in_frustum_share": total("frames.crop", "in_frustum") / max(crop_points, 1),
        "range_image.build_s": self_s("range_image.build"),
        "range_image.dcs_s": self_s("range_image.dcs"),
        "range_image.segments": total("range_image.dcs", "segments"),
        "spatial.vote_s": self_s("spatial.vote"),
        "spatial.labels_self_s": self_s("spatial.labels"),
        "spatial.ignore_share": total("spatial.labels", "ignored") / max(total("spatial.labels", "points"), 1),
        "clustering.ccl_s": self_s("clustering.ccl"),
        "clustering.ccl_calls": len(by("clustering.ccl")),
        "clustering.ccl_points": ccl_points,
        "clustering.components": total("clustering.ccl", "components"),
        "clustering.kept_share": total("clustering.max_component", "kept") / max(ccl_points, 1),
        "clustering.max_component_s": self_s("clustering.max_component"),
        "voting.pvc_s": self_s("voting.pvc"),
        "voting.changed_points": total("voting.pvc", "changed"),
        "ring_correct.rsc_s": self_s("ring_correct.rsc"),
        "ring_correct.changed_points": total("ring_correct.rsc", "changed"),
        "metrics.frame_s": self_s("metrics.frame"),
        "metrics.ap_s": self_s("metrics.ap"),
        "metrics.pred_instances": total("metrics.frame", "pred_instances"),
        "metrics.gt_instances": total("metrics.frame", "gt_instances"),
        "pipeline.frame_s": sum(s.duration for s in by("pipeline.frame")),
        "pipeline.self_s": self_s("pipeline.frame", ROOT),
    }
    layer_self = sum(self_of[id(s)] for s in spans if not s.name.startswith("pipeline."))
    m["trace.coverage"] = layer_self / wall
    return m
