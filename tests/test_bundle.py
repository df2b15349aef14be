import json

import numpy as np
import pytest

from wlf.bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_labels,
    read_mask_predictions,
    read_votes,
    write_frame_bundle,
    write_labels,
    write_mask_predictions,
    write_votes,
)
from wlf.mask_fusion import MaskPrediction
from wlf.spatial import PseudoLabels
from wlf.synth import CLASS_NAMES, SceneConfig, generate_scene


@pytest.fixture
def scene():
    return generate_scene(SceneConfig(seed=17))


def test_frame_round_trip(tmp_path, scene):
    bundle = write_frame_bundle(
        tmp_path / "f0", scene.frame, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )
    frame, calib, boxes, manifest = read_frame_bundle(bundle)
    assert frame.frame_id == scene.frame.frame_id
    # Disk format is float32; compare at that precision.
    np.testing.assert_array_equal(
        frame.points.astype(np.float32), scene.frame.points.astype(np.float32)
    )
    np.testing.assert_array_equal(frame.beam_row, scene.frame.beam_row)
    np.testing.assert_array_equal(frame.gt_semantic, scene.frame.gt_semantic)
    np.testing.assert_array_equal(frame.gt_instance, scene.frame.gt_instance)
    np.testing.assert_allclose(calib.intrinsic, scene.calibration.intrinsic)
    np.testing.assert_allclose(calib.extrinsic, scene.calibration.extrinsic)
    assert [b.bounds for b in boxes] == [b.bounds for b in scene.boxes]
    assert manifest["class_names"] == CLASS_NAMES
    assert manifest["beams"] == scene.config.beams


def test_labels_round_trip(tmp_path):
    labels = PseudoLabels(
        semantic=np.array([-1, 0, 2], dtype=np.int32),
        instance=np.array([0, 0, 1], dtype=np.int32),
    )
    write_labels(tmp_path, labels)
    again = read_labels(tmp_path, 3)
    np.testing.assert_array_equal(again.semantic, labels.semantic)
    np.testing.assert_array_equal(again.instance, labels.instance)


def test_votes_round_trip(tmp_path):
    for epoch in (3, 0, 11):
        write_votes(tmp_path, epoch, np.full(4, epoch / 16))
    assert list_vote_epochs(tmp_path) == [0, 3, 11]
    np.testing.assert_allclose(read_votes(tmp_path, 3, 4), 3 / 16)


def test_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_frame_bundle(tmp_path)


def test_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    with pytest.raises(BundleError, match="invalid JSON"):
        read_frame_bundle(tmp_path)


def test_truncated_array_rejected(tmp_path, scene):
    bundle = write_frame_bundle(
        tmp_path / "f0", scene.frame, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )
    data = (bundle / "points.f32").read_bytes()
    (bundle / "points.f32").write_bytes(data[:-8])
    with pytest.raises(BundleError, match="expected"):
        read_frame_bundle(bundle)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("boxes.json", lambda boxes: boxes.append(dict(boxes[0])), "duplicate box_id"),
        ("boxes.json", lambda boxes: boxes[0].update(box_id=1.5), "box_id 1.5"),
        ("boxes.json", lambda boxes: boxes[0].update(box_id=True), "box_id True"),
        ("boxes.json", lambda boxes: boxes[0].update(class_id="1"), "class_id '1'"),
        ("manifest.json", lambda manifest: manifest.update(num_classes="three"), "num_classes"),
        ("manifest.json", lambda manifest: manifest.update(num_classes=0), "num_classes 0"),
    ],
)
def test_bad_ids_and_class_count_name_the_file(tmp_path, scene, name, edit, message):
    bundle = write_frame_bundle(
        tmp_path / "f0", scene.frame, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )
    payload = json.loads((bundle / name).read_text())
    edit(payload)
    (bundle / name).write_text(json.dumps(payload))
    with pytest.raises(BundleError, match=f"{bundle / name}: {message}"):
        read_frame_bundle(bundle)


def test_mask_predictions_round_trip(tmp_path, rng):
    preds = [
        (1, MaskPrediction(prob_map=rng.uniform(0, 1, (6, 5)), score=0.7, pred_box=(0, 0, 4, 4))),
        (1, MaskPrediction(prob_map=rng.uniform(0, 1, (6, 5)), score=0.3, pred_box=(1, 1, 5, 5))),
        (2, MaskPrediction(prob_map=rng.uniform(0, 1, (6, 5)), score=0.9, pred_box=(0, 0, 3, 3))),
    ]
    write_mask_predictions(tmp_path, preds)
    grouped = read_mask_predictions(tmp_path)
    assert sorted(grouped) == [1, 2]
    assert len(grouped[1]) == 2 and len(grouped[2]) == 1
    np.testing.assert_array_equal(
        grouped[1][0].prob_map.astype(np.float32), preds[0][1].prob_map.astype(np.float32)
    )
    assert grouped[2][0].score == 0.9


def test_manifest_json_is_stable(tmp_path, scene):
    b1 = write_frame_bundle(
        tmp_path / "a", scene.frame, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )
    b2 = write_frame_bundle(
        tmp_path / "b", scene.frame, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )
    assert (b1 / "manifest.json").read_bytes() == (b2 / "manifest.json").read_bytes()
    assert (b1 / "points.f32").read_bytes() == (b2 / "points.f32").read_bytes()
