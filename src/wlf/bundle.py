"""Frame bundle disk format.

One directory per frame:

    manifest.json       frame id, counts, raster shape, class names, and the
                        ``arrays`` object of dtypes and shapes, never read
    points.f32          (N, 4) float32, little-endian, row-major: x, y, z and
                        intensity; the reader returns x, y, z as the (3, N)
                        float32 ``xyz``, as stored, read a block of
                        ``frames.POINT_BLOCK`` points at a time, and never
                        reads intensity
    beam_row.u16        (N,) uint16
    gt_semantic.i32     (N,) int32, optional
    gt_instance.i32     (N,) int32, optional
    calibration.json    intrinsic / extrinsic / image_size
    boxes.json          list of {box_id, class_id, bounds}
    votes_<epoch>.f32   (N,) float32 teacher foreground scores, optional
    masks/              mask_<k>.f32 + mask_<k>.json sidecars, optional

Pseudo labels (sem.i32, inst.i32) live outside the bundle, in
``<out>/<frame_id>/`` of a run. All binary arrays are flat little-endian;
shapes live in the manifest or the sidecar JSON. Every JSON leaf goes through
``wlf.fields``: one of the wrong type or range is a BundleError naming the
file and the key path. A run reads each manifest once (``read_manifest``) and
hands it to ``read_frame_bundle``, which returns the points, beams,
calibration and boxes as plain values, and, once the frame's labels are made,
to ``read_ground_truth``, so that the ground truth is never alive while the
stages run; ``wlf ipg`` reads only the manifest, ``boxes.json``
(``read_boxes``) and ``masks/``. The points stay float32 as stored, and each
stage widens them to float64 where it computes, which is exact. points.f32 is
read a block of rows at a time into the (3, N) ``xyz``, so the reader never
holds the file's bytes whole.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import warn
from .fields import INT32_MAX, integer, listof, mapping, name, within
from .frames import BOX_ID_MAX, Box2D, Calibration, point_blocks

if TYPE_CHECKING:  # only wlf ipg reads masks, and imports the 2D branch
    from .mask_fusion import MaskPrediction

__all__ = [
    "BundleError",
    "write_frame_bundle",
    "read_manifest",
    "read_frame_bundle",
    "read_ground_truth",
    "read_boxes",
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
# A manifest without num_classes has the synth classes: vehicle, pedestrian, cyclist.
DEFAULT_NUM_CLASSES = 3


class BundleError(ValueError):
    """Malformed or inconsistent frame bundle."""


def _write_array(path: Path, arr: np.ndarray, kind: str) -> None:
    # One conversion at most: an array already of the kind, in C order, is
    # written as it is.
    np.asarray(arr).astype(_DTYPES[kind], order="C", copy=False).tofile(path)


def _check_size(path: Path, size: int, kind: str, count: int | None) -> None:
    itemsize = np.dtype(_DTYPES[kind]).itemsize
    if count is not None and size != count * itemsize:
        raise BundleError(f"{path}: expected {count} values, found {size / itemsize:g}")


def _read_array(path: Path, kind: str, count: int | None = None) -> np.ndarray:
    raw = path.read_bytes()
    _check_size(path, len(raw), kind, count)
    return np.frombuffer(raw, dtype=_DTYPES[kind])


def _read_points(path: Path, n: int) -> np.ndarray:
    """The finite (3, N) float32 x, y and z of points.f32, read one
    ``point_blocks`` block of (N, 4) rows at a time straight into their
    columns through one block of staging rows."""
    blocks = list(point_blocks(n))
    with path.open("rb") as f:
        _check_size(path, os.fstat(f.fileno()).st_size, "f32", 4 * n)
        rows = np.empty((blocks[0].stop, 4), dtype=_DTYPES["f32"])
        xyz = np.empty((3, n), dtype=_DTYPES["f32"])
        for block in blocks:
            part = rows[: block.stop - block.start]
            if f.readinto(part) != part.nbytes:
                raise BundleError(f"{path}: expected {4 * n} values, the file ended early")
            xyz[:, block] = part[:, :3].T
    del rows, part  # first, so that the finiteness tests' scratch reuses their pages
    for block in blocks:
        if not np.isfinite(xyz[:, block]).all():
            raise ValueError("non-finite point coordinates")
    return xyz


@contextmanager
def _naming(path: Path):
    """Re-raise what a malformed file causes as a BundleError naming the file."""
    try:
        yield
    except BundleError:
        raise
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path}: invalid JSON ({exc})") from exc
    except KeyError as exc:
        raise BundleError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BundleError(f"{path}: {exc}") from exc


def write_json(path: Path, payload: dict | list) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_frame_bundle(
    directory: str | Path,
    frame_id: str,
    xyz: np.ndarray,
    beam_row: np.ndarray,
    intensity: np.ndarray,
    gt_semantic: np.ndarray,
    gt_instance: np.ndarray,
    calib: Calibration,
    boxes: list[Box2D],
    class_names: list[str],
    beams: int,
    columns: int,
) -> Path:
    """Write a complete frame bundle: the (3, N) ``xyz`` with ``intensity`` as
    the fourth column of points.f32, ``beam_row`` and the ground truth;
    returns the bundle directory.

    Raises ValueError for a beam row that uint16 cannot hold.
    """
    n = xyz.shape[1]
    if n and not (int(beam_row.min()) >= 0 and int(beam_row.max()) <= 65535):
        raise ValueError(f"frame {frame_id}: beam_row outside 0..65535")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "frame_id": frame_id,
        "num_points": n,
        "num_classes": len(class_names),
        "class_names": list(class_names),
        "beams": beams,
        "columns": columns,
        "arrays": {
            "points": {"dtype": "f32", "shape": [n, 4]},
            "beam_row": {"dtype": "u16", "shape": [n]},
            "gt_semantic": {"dtype": "i32", "shape": [n]},
            "gt_instance": {"dtype": "i32", "shape": [n]},
        },
    }
    _write_array(directory / "points.f32", np.vstack([xyz, intensity]).T, "f32")
    _write_array(directory / "beam_row.u16", beam_row, "u16")
    _write_array(directory / "gt_semantic.i32", gt_semantic, "i32")
    _write_array(directory / "gt_instance.i32", gt_instance, "i32")
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


def read_manifest(directory: str | Path) -> dict:
    """A bundle's manifest with its counts checked, its raster's cells within
    the int32 cell index of ``range_image.build_range_image``, its class
    names distinct, and ``num_classes`` and ``class_names`` filled in when
    absent.

    Raises FileNotFoundError without manifest.json, and BundleError naming it
    for any malformed content.
    """
    path = Path(directory) / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    with _naming(path):
        manifest = mapping(json.loads(path.read_text()), "manifest")
        name(manifest["frame_id"], "frame_id")
        integer(manifest["num_points"], "num_points")
        integer(manifest["beams"], "beams", 1, 65536)  # beam_row.u16 holds rows 0..65535
        integer(manifest["columns"], "columns", 1)
        cells = manifest["beams"] * manifest["columns"]
        if cells > INT32_MAX:  # the range image's cell index is int32
            raise ValueError(f"beams * columns {cells} is above {INT32_MAX}")
        integer(manifest.setdefault("num_classes", DEFAULT_NUM_CLASSES), "num_classes", 1)
        names = listof(manifest.setdefault("class_names", []), "class_names", name)
        if len(set(names)) != len(names):
            raise ValueError(f"class_names {names!r} is not a list of distinct strings")
        mapping(manifest.get("arrays", {}), "arrays")  # informative: nothing in it is read
    return manifest


def read_frame_bundle(
    directory: str | Path, manifest: dict
) -> tuple[np.ndarray, np.ndarray, Calibration, list[Box2D]]:
    """Load a frame bundle whose manifest ``read_manifest`` has read, as
    ``(xyz, beam_row, calib, boxes)``: the finite (3, N) C-contiguous
    float32 coordinates, read from points.f32 a block of points at a time,
    and the uint16 beam rows, both as stored, the calibration and the
    boxes. A stage that computes with the coordinates widens them to float64
    itself. The ground truth is ``read_ground_truth``'s, read when the frame
    is scored.

    Raises FileNotFoundError for a missing file, and BundleError, naming the
    bundle's file at fault, for any malformed or inconsistent content.
    """
    directory = Path(directory)
    n = manifest["num_points"]
    with _naming(directory / "points.f32"):
        xyz = _read_points(directory / "points.f32", n)
    with _naming(directory / "beam_row.u16"):
        beam_row = _read_array(directory / "beam_row.u16", "u16", n)
        if n and int(beam_row.max()) >= manifest["beams"]:
            raise ValueError(f"beam_row {int(beam_row.max())} >= beams {manifest['beams']}")
    with _naming(directory / "calibration.json"):
        raw = mapping(json.loads((directory / "calibration.json").read_text()), "calibration")
        calib = Calibration(raw["intrinsic"], raw["extrinsic"], raw["image_size"])
    return xyz, beam_row, calib, read_boxes(directory, manifest)


def read_ground_truth(
    directory: str | Path, manifest: dict
) -> tuple[np.ndarray, np.ndarray] | None:
    """The bundle's int32 ``(semantic, instance)`` ground truth, None unless
    both files exist; a warning names the missing one when only one does.

    Each file present is length-checked, and a BundleError names the one
    whose length differs from the manifest's ``num_points``.
    """
    directory = Path(directory)
    paths = (directory / "gt_semantic.i32", directory / "gt_instance.i32")
    gt = tuple(_read_array(p, "i32", manifest["num_points"]) for p in paths if p.is_file())
    if len(gt) == 1:
        missing = next(p for p in paths if not p.is_file())
        warn(__name__, "%s is missing: the frame is not scored", missing)
    return gt if len(gt) == 2 else None


def read_boxes(directory: str | Path, manifest: dict) -> list[Box2D]:
    """The bundle's annotated boxes, checked against its manifest.

    Raises FileNotFoundError without boxes.json, and BundleError naming it
    for malformed content, a repeated box id or a class above num_classes.
    """
    path = Path(directory) / "boxes.json"
    with _naming(path):
        boxes = []
        for k, b in enumerate(listof(json.loads(path.read_text()), "boxes", mapping)):
            with within(f"boxes[{k}]"):
                boxes.append(Box2D(b["box_id"], b["class_id"], b["bounds"]))
        ids = sorted(b.box_id for b in boxes)
        repeated = [i for i, k in zip(ids, ids[1:]) if i == k]
        if repeated:
            raise ValueError(f"duplicate box_id {repeated[0]}")
        above = [b.class_id for b in boxes if b.class_id > manifest["num_classes"]]
        if above:
            raise ValueError(f"class_id {above[0]} is above num_classes {manifest['num_classes']}")
    return boxes


def write_labels(directory: str | Path, semantic: np.ndarray, instance: np.ndarray) -> None:
    """Write a frame's labels as ``sem.i32`` and ``inst.i32``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_array(directory / "sem.i32", semantic, "i32")
    _write_array(directory / "inst.i32", instance, "i32")


def read_labels(
    directory: str | Path, num_points: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A frame's read-only int32 ``(semantic, instance)`` labels as stored."""
    directory = Path(directory)
    sem = _read_array(directory / "sem.i32", "i32", num_points)
    return sem, _read_array(directory / "inst.i32", "i32", num_points)


def write_votes(directory: str | Path, epoch: int, scores: np.ndarray) -> None:
    _write_array(Path(directory) / f"votes_{epoch}.f32", scores, "f32")


def list_vote_epochs(directory: str | Path) -> list[int]:
    """Ascending epochs of the bundle's vote files, from one directory scan;
    BundleError, naming the file (the first in name order), for a
    ``votes_*.f32`` whose name is not ``votes_<epoch>.f32`` with the epoch
    written as ``str(int)`` writes it (``votes_03.f32`` is not)."""
    epochs, bad = [], []
    with os.scandir(directory) as entries:
        for entry in entries:
            name = entry.name
            if name.startswith("votes_") and name.endswith(".f32"):
                digits = name[6:-4]
                if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
                    epochs.append(int(digits))
                else:
                    bad.append(name)
    if bad:
        raise BundleError(f"{Path(directory) / min(bad)}: vote file name is not votes_<epoch>.f32")
    return sorted(epochs)


def read_votes(directory: str | Path, epoch: int, num_points: int | None = None) -> np.ndarray:
    """The epoch's float32 scores as stored, read-only like ``read_labels``."""
    return _read_array(Path(directory) / f"votes_{epoch}.f32", "f32", num_points)


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
    """Load mask predictions grouped by their annotated box id.

    Raises FileNotFoundError for a sidecar without its map, and BundleError,
    naming the sidecar, for malformed content or for maps of one box that
    differ in shape.
    """
    from .mask_fusion import MaskPrediction  # noqa: PLC0415

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
        with _naming(sidecar):
            meta = mapping(json.loads(sidecar.read_text()), "mask")
            h, w = listof(meta["shape"], "shape", integer, 2)
            prob = _read_array(sidecar.with_suffix(".f32"), "f32", h * w).reshape(h, w)
            # As for points: MaskPrediction names a widened signalling NaN.
            with np.errstate(invalid="ignore"):
                prob = prob.astype(np.float64)
            pred = MaskPrediction(prob_map=prob, score=meta["score"], pred_box=meta["pred_box"])
            preds = grouped.setdefault(integer(meta["box_id"], "box_id", 1, BOX_ID_MAX), [])
            if preds and preds[0].prob_map.shape != (h, w):
                raise ValueError(f"shape {[h, w]} differs from the "
                                 f"{list(preds[0].prob_map.shape)} of an earlier mask of its box")
            preds.append(pred)
    return grouped
