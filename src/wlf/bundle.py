"""Frame bundle disk format.

One directory per frame:

    manifest.json       frame id, counts, raster shape, dtypes, class names
    points.f32          (N, 4) float32, little-endian, row-major
    beam_row.u16        (N,) uint16
    gt_semantic.i32     (N,) int32, optional
    gt_instance.i32     (N,) int32, optional
    calibration.json    intrinsic / extrinsic / image_size
    boxes.json          list of {box_id, class_id, bounds}
    votes_<epoch>.f32   (N,) float32 teacher foreground scores, optional
    masks/              mask_<k>.f32 + mask_<k>.json sidecars, optional

Pseudo labels (sem.i32, inst.i32) live outside the bundle, in
``<out>/<frame_id>/`` of a run. All binary arrays are flat little-endian;
shapes live in the manifest or the sidecar JSON.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .frames import Box2D, Calibration, Frame
from .mask_fusion import MaskPrediction
from .spatial import PseudoLabels

__all__ = [
    "BundleError",
    "write_frame_bundle",
    "read_frame_bundle",
    "write_labels",
    "read_labels",
    "write_votes",
    "read_votes",
    "list_vote_epochs",
    "write_mask_predictions",
    "read_mask_predictions",
    "write_json",
]

_DTYPES = {"f32": "<f4", "u16": "<u2", "i32": "<i4"}


class BundleError(ValueError):
    """Malformed or inconsistent frame bundle."""


def _write_array(path: Path, arr: np.ndarray, kind: str) -> None:
    path.write_bytes(np.ascontiguousarray(arr).astype(_DTYPES[kind]).tobytes())


def _read_array(path: Path, kind: str, count: int | None = None) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype=_DTYPES[kind])
    if count is not None and data.size != count:
        raise BundleError(f"{path}: expected {count} values, found {data.size}")
    return data


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} {value!r} is not an integer >= 1")
    return value


def write_json(path: Path, payload: dict | list) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_frame_bundle(
    directory: str | Path,
    frame: Frame,
    calib: Calibration,
    boxes: list[Box2D],
    class_names: list[str],
    beams: int,
    columns: int,
) -> Path:
    """Write a complete frame bundle; returns the bundle directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "frame_id": frame.frame_id,
        "num_points": frame.num_points,
        "num_classes": len(class_names),
        "class_names": list(class_names),
        "beams": beams,
        "columns": columns,
        "arrays": {
            "points": {"dtype": "f32", "shape": [frame.num_points, 4]},
            "beam_row": {"dtype": "u16", "shape": [frame.num_points]},
        },
    }
    _write_array(directory / "points.f32", frame.points, "f32")
    _write_array(directory / "beam_row.u16", frame.beam_row, "u16")
    if frame.gt_semantic is not None:
        _write_array(directory / "gt_semantic.i32", frame.gt_semantic, "i32")
        manifest["arrays"]["gt_semantic"] = {"dtype": "i32", "shape": [frame.num_points]}
    if frame.gt_instance is not None:
        _write_array(directory / "gt_instance.i32", frame.gt_instance, "i32")
        manifest["arrays"]["gt_instance"] = {"dtype": "i32", "shape": [frame.num_points]}
    write_json(directory / "manifest.json", manifest)
    write_json(
        directory / "calibration.json",
        {
            "intrinsic": calib.intrinsic.tolist(),
            "extrinsic": calib.extrinsic.tolist(),
            "image_size": list(calib.image_size),
        },
    )
    write_json(
        directory / "boxes.json",
        [
            {"box_id": b.box_id, "class_id": b.class_id, "bounds": list(b.bounds)}
            for b in boxes
        ],
    )
    return directory


def read_frame_bundle(
    directory: str | Path,
) -> tuple[Frame, Calibration, list[Box2D], dict]:
    """Load a frame bundle.

    Raises FileNotFoundError without manifest.json, and BundleError, naming
    the bundle's file at fault, for any malformed or inconsistent content.
    """
    directory = Path(directory)
    if not (directory / "manifest.json").is_file():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    name = "manifest.json"  # the file being read, for the error message
    try:
        manifest = json.loads((directory / name).read_text())
        n = int(manifest["num_points"])
        frame_id = manifest["frame_id"]
        beams, columns = int(manifest["beams"]), int(manifest["columns"])
        if not isinstance(frame_id, str) or frame_id in ("", "..") or Path(frame_id).name != frame_id:
            raise ValueError(f"frame_id {frame_id!r} is not a plain directory name")
        if beams < 1 or columns < 1:
            raise ValueError(f"raster {beams} x {columns} is empty")
        _positive_int(manifest.get("num_classes", 1), "num_classes")
        points = _read_array(directory / "points.f32", "f32", 4 * n).reshape(n, 4)
        name = "beam_row.u16"
        beam_row = _read_array(directory / name, "u16", n)
        if n and int(beam_row.max()) >= beams:
            raise ValueError(f"beam_row {int(beam_row.max())} >= beams {beams}")
        gt_semantic = gt_instance = None
        if (directory / "gt_semantic.i32").is_file():
            gt_semantic = _read_array(directory / "gt_semantic.i32", "i32", n)
        if (directory / "gt_instance.i32").is_file():
            gt_instance = _read_array(directory / "gt_instance.i32", "i32", n)
        name = "points.f32"  # the one array Frame checks beyond its length
        frame = Frame(
            frame_id=frame_id,
            points=points.astype(np.float64),
            beam_row=beam_row.astype(np.int64),
            gt_semantic=gt_semantic,
            gt_instance=gt_instance,
        )
        name = "calibration.json"
        calib_raw = json.loads((directory / name).read_text())
        calib = Calibration(
            intrinsic=np.asarray(calib_raw["intrinsic"]),
            extrinsic=np.asarray(calib_raw["extrinsic"]),
            image_size=tuple(calib_raw["image_size"]),
        )
        name = "boxes.json"
        boxes = [
            Box2D(
                box_id=_positive_int(b["box_id"], "box_id"),
                class_id=_positive_int(b["class_id"], "class_id"),
                bounds=tuple(b["bounds"]),
            )
            for b in json.loads((directory / name).read_text())
        ]
        ids = sorted(b.box_id for b in boxes)
        repeated = [i for i, k in zip(ids, ids[1:]) if i == k]
        if repeated:
            raise ValueError(f"duplicate box_id {repeated[0]}")
    except BundleError:
        raise
    except json.JSONDecodeError as exc:
        raise BundleError(f"{directory / name}: invalid JSON ({exc})") from exc
    except KeyError as exc:
        raise BundleError(f"{directory / name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BundleError(f"{directory / name}: {exc}") from exc
    return frame, calib, boxes, manifest


def write_labels(directory: str | Path, labels: PseudoLabels) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_array(directory / "sem.i32", labels.semantic, "i32")
    _write_array(directory / "inst.i32", labels.instance, "i32")


def read_labels(directory: str | Path, num_points: int | None = None) -> PseudoLabels:
    directory = Path(directory)
    sem = _read_array(directory / "sem.i32", "i32", num_points)
    inst = _read_array(directory / "inst.i32", "i32", num_points)
    return PseudoLabels(semantic=sem, instance=inst)


def write_votes(directory: str | Path, epoch: int, scores: np.ndarray) -> None:
    _write_array(Path(directory) / f"votes_{epoch}.f32", scores, "f32")


def list_vote_epochs(directory: str | Path) -> list[int]:
    pattern = re.compile(r"votes_(\d+)\.f32$")
    epochs = []
    for path in Path(directory).glob("votes_*.f32"):
        m = pattern.match(path.name)
        if m:
            epochs.append(int(m.group(1)))
    return sorted(epochs)


def read_votes(directory: str | Path, epoch: int, num_points: int | None = None) -> np.ndarray:
    return _read_array(Path(directory) / f"votes_{epoch}.f32", "f32", num_points).astype(
        np.float64
    )


def write_mask_predictions(
    directory: str | Path, preds: list[tuple[int, MaskPrediction]]
) -> None:
    """Store (gt box id, prediction) pairs under masks/ with JSON sidecars."""
    masks_dir = Path(directory) / "masks"
    masks_dir.mkdir(parents=True, exist_ok=True)
    for k, (box_id, pred) in enumerate(preds):
        _write_array(masks_dir / f"mask_{k}.f32", pred.prob_map, "f32")
        write_json(
            masks_dir / f"mask_{k}.json",
            {
                "box_id": box_id,
                "score": pred.score,
                "pred_box": list(pred.pred_box),
                "shape": list(pred.prob_map.shape),
            },
        )


def read_mask_predictions(directory: str | Path) -> dict[int, list[MaskPrediction]]:
    """Load mask predictions grouped by their annotated box id."""
    masks_dir = Path(directory) / "masks"
    if not masks_dir.is_dir():
        return {}
    grouped: dict[int, list[MaskPrediction]] = {}
    pattern = re.compile(r"mask_(\d+)\.json$")
    sidecars = sorted(
        (p for p in masks_dir.glob("mask_*.json") if pattern.match(p.name)),
        key=lambda p: int(pattern.match(p.name).group(1)),
    )
    for sidecar in sidecars:
        meta = json.loads(sidecar.read_text())
        h, w = meta["shape"]
        prob = _read_array(sidecar.with_suffix(".f32"), "f32", h * w).reshape(h, w)
        grouped.setdefault(int(meta["box_id"]), []).append(
            MaskPrediction(
                prob_map=prob.astype(np.float64),
                score=float(meta["score"]),
                pred_box=tuple(meta["pred_box"]),
            )
        )
    return grouped
