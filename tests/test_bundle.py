import json

import numpy as np
import pytest
from conftest import SMALL_BLOCK

from wlf.bundle import (
    BundleError,
    list_vote_epochs,
    read_frame_bundle,
    read_ground_truth,
    read_labels,
    read_manifest,
    read_mask_predictions,
    read_votes,
    write_frame_bundle,
    write_labels,
    write_mask_predictions,
    write_votes,
)
from wlf.mask_fusion import MaskPrediction
from wlf.synth import CLASS_NAMES, SceneConfig, generate_scene


@pytest.fixture
def scene():
    return generate_scene(SceneConfig(seed=17))


def write_bundle(directory, scene):
    return write_frame_bundle(
        directory, scene.frame_id, scene.xyz, scene.beam_row, scene.intensity,
        scene.gt_semantic, scene.gt_instance, scene.calibration, scene.boxes, CLASS_NAMES,
        beams=scene.config.beams, columns=scene.config.columns,
    )


def read_bundle(directory):
    return read_frame_bundle(directory, read_manifest(directory))


def test_frame_round_trip(tmp_path, scene):
    bundle = write_bundle(tmp_path / "f0", scene)
    manifest = read_manifest(bundle)
    xyz, beam_row, calib, boxes = read_frame_bundle(bundle, manifest)
    gt_semantic, gt_instance = read_ground_truth(bundle, manifest)
    assert manifest["frame_id"] == scene.frame_id
    # Disk format is float32, and the reader hands x, y and z over as stored,
    # in three contiguous float32 rows, with the beam rows as stored.
    assert xyz.dtype == np.float32 and xyz.flags.c_contiguous
    assert xyz.shape == (3, scene.xyz.shape[1])
    np.testing.assert_array_equal(xyz, scene.xyz.astype(np.float32))
    assert beam_row.dtype == np.uint16
    np.testing.assert_array_equal(beam_row, scene.beam_row)
    # Intensity, which no stage reads, is the fourth column on disk alone.
    stored = np.frombuffer((bundle / "points.f32").read_bytes(), "<f4").reshape(-1, 4)
    np.testing.assert_array_equal(stored[:, 3], scene.intensity.astype(np.float32))
    assert gt_semantic.dtype == gt_instance.dtype == np.int32
    np.testing.assert_array_equal(gt_semantic, scene.gt_semantic)
    np.testing.assert_array_equal(gt_instance, scene.gt_instance)
    np.testing.assert_allclose(calib.intrinsic, scene.calibration.intrinsic)
    np.testing.assert_allclose(calib.extrinsic, scene.calibration.extrinsic)
    assert [b.bounds for b in boxes] == [b.bounds for b in scene.boxes]
    assert manifest["class_names"] == CLASS_NAMES
    assert manifest["beams"] == scene.config.beams


def test_ground_truth_needs_both_files(tmp_path, scene):
    bundle = write_bundle(tmp_path / "f0", scene)
    manifest = read_manifest(bundle)
    (bundle / "gt_instance.i32").unlink()
    assert read_ground_truth(bundle, manifest) is None
    # The file that is left is still read and length-checked.
    (bundle / "gt_semantic.i32").write_bytes(b"\0" * 4)
    with pytest.raises(BundleError, match="gt_semantic.i32: expected"):
        read_ground_truth(bundle, manifest)
    # The points never need the ground truth.
    assert read_bundle(bundle)[0].shape == (3, scene.xyz.shape[1])


@pytest.mark.parametrize("missing", ["gt_semantic.i32", "gt_instance.i32"])
def test_half_ground_truth_warns(tmp_path, scene, caplog, missing):
    bundle = write_bundle(tmp_path / "f0", scene)
    manifest = read_manifest(bundle)
    with caplog.at_level("WARNING", logger="wlf"):
        assert read_ground_truth(bundle, manifest) is not None
    assert not caplog.records
    (bundle / missing).unlink()
    with caplog.at_level("WARNING", logger="wlf"):
        assert read_ground_truth(bundle, manifest) is None
    [record] = caplog.records
    assert record.levelname == "WARNING" and str(bundle / missing) in record.getMessage()
    # Without either file the frame is plainly unlabelled: no warning.
    caplog.clear()
    for name in ("gt_semantic.i32", "gt_instance.i32"):
        (bundle / name).unlink(missing_ok=True)
    with caplog.at_level("WARNING", logger="wlf"):
        assert read_ground_truth(bundle, manifest) is None
    assert not caplog.records


@pytest.mark.parametrize("row", [-1, 65536])
def test_beam_row_past_uint16_rejected(tmp_path, scene, row):
    # Written with a plain cast, the row would wrap to 65535 or 0.
    scene.beam_row[0] = row
    with pytest.raises(ValueError, match="beam_row outside 0..65535"):
        write_bundle(tmp_path / "f0", scene)
    assert not (tmp_path / "f0").exists()


def test_labels_round_trip(tmp_path):
    semantic = np.array([-1, 0, 2], dtype=np.int32)
    instance = np.array([0, 0, 1], dtype=np.int32)
    write_labels(tmp_path, semantic, instance)
    sem, inst = read_labels(tmp_path, 3)
    np.testing.assert_array_equal(sem, semantic)
    np.testing.assert_array_equal(inst, instance)
    assert sem.dtype == inst.dtype == np.dtype("<i4")


@pytest.mark.parametrize(
    "name", ["votes_03.f32", "votes_.f32", "votes_-1.f32", "votes_+1.f32", "votes_1e3.f32",
             "votes_ 1.f32", "votes_\u0661.f32"])
def test_vote_file_not_named_by_its_epoch_refused(tmp_path, name):
    write_votes(tmp_path, 2, np.zeros(4))
    (tmp_path / name).write_bytes(b"")
    with pytest.raises(BundleError) as info:
        list_vote_epochs(tmp_path)
    assert str(info.value) == f"{tmp_path / name}: vote file name is not votes_<epoch>.f32"


def test_vote_listing_names_the_first_bad_file_and_skips_others(tmp_path):
    write_votes(tmp_path, 1, np.zeros(4))
    for other in ("votes_2.f32.part", "votes_2.f64", "xvotes_2.f32", "votes_2", "votes.f32"):
        (tmp_path / other).write_bytes(b"")
    assert list_vote_epochs(tmp_path) == [1]
    for bad in ("votes_b.f32", "votes_a.f32", "votes_c.f32"):
        (tmp_path / bad).write_bytes(b"")
    with pytest.raises(BundleError, match="votes_a.f32: vote file name"):
        list_vote_epochs(tmp_path)


def test_votes_round_trip(tmp_path):
    for epoch in (3, 0, 11):
        write_votes(tmp_path, epoch, np.full(4, epoch / 16))
    assert list_vote_epochs(tmp_path) == [0, 3, 11]
    votes = read_votes(tmp_path, 3, 4)
    np.testing.assert_allclose(votes, 3 / 16)
    # The stored float32 values, uncopied: pvc compares them in float64.
    assert votes.dtype == np.float32 and not votes.flags.writeable


def test_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_manifest(tmp_path)


def test_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    with pytest.raises(BundleError, match="invalid JSON"):
        read_manifest(tmp_path)


def test_truncated_array_rejected(tmp_path, scene):
    bundle = write_bundle(tmp_path / "f0", scene)
    data = (bundle / "points.f32").read_bytes()
    (bundle / "points.f32").write_bytes(data[:-8])
    with pytest.raises(BundleError, match="expected"):
        read_bundle(bundle)


@pytest.mark.parametrize("n", [0, SMALL_BLOCK, SMALL_BLOCK + 1, 7 * SMALL_BLOCK + 3])
def test_points_round_trip_across_blocks(tmp_path, scene, small_blocks, n):
    bundle = write_frame_bundle(
        tmp_path / "f0", scene.frame_id, scene.xyz[:, :n], scene.beam_row[:n],
        scene.intensity[:n], scene.gt_semantic[:n], scene.gt_instance[:n], scene.calibration,
        scene.boxes, CLASS_NAMES, beams=scene.config.beams, columns=scene.config.columns,
    )
    xyz, beam_row, _, _ = read_bundle(bundle)
    assert xyz.dtype == np.float32 and xyz.flags.c_contiguous and xyz.shape == (3, n)
    np.testing.assert_array_equal(xyz, scene.xyz[:, :n].astype(np.float32))
    np.testing.assert_array_equal(beam_row, scene.beam_row[:n])


def test_non_finite_point_in_a_later_block_names_the_file(tmp_path, scene, small_blocks):
    bundle = write_bundle(tmp_path / "f0", scene)
    path = bundle / "points.f32"
    points = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    points[5 * SMALL_BLOCK + 1, 1] = np.inf
    points.tofile(path)
    with pytest.raises(BundleError, match=rf"{path}: non-finite point coordinates"):
        read_bundle(bundle)


def test_truncated_points_across_blocks(tmp_path, scene, small_blocks):
    bundle = write_bundle(tmp_path / "f0", scene)
    path = bundle / "points.f32"
    path.write_bytes(path.read_bytes()[: 4 * 4 * (3 * SMALL_BLOCK) + 8])
    n = scene.xyz.shape[1]
    with pytest.raises(BundleError, match=rf"{path}: expected {4 * n} values, found "
                                          rf"{4 * 3 * SMALL_BLOCK + 2}$"):
        read_bundle(bundle)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("boxes.json", lambda boxes: boxes.append(dict(boxes[0])), "duplicate box_id"),
        ("boxes.json", lambda boxes: boxes[0].update(box_id=1.5), "box_id 1.5"),
        ("boxes.json", lambda boxes: boxes[0].update(box_id=True), "box_id True"),
        ("boxes.json", lambda boxes: boxes[0].update(class_id="1"), "class_id '1'"),
        ("manifest.json", lambda manifest: manifest.update(num_classes="three"), "num_classes"),
        ("manifest.json", lambda manifest: manifest.update(num_classes=0), "num_classes 0"),
        ("boxes.json", lambda boxes: boxes[0].update(bounds=["1", "2", "3", "4"]),
         r"bounds\[0\] '1' is not a finite number"),
        ("boxes.json", lambda boxes: boxes[0].update(bounds=[0, 0, True, True]),
         r"bounds\[2\] True is not a finite number"),
        ("manifest.json", lambda manifest: manifest.update(class_names=["a", "b", "a"]),
         r"class_names \['a', 'b', 'a'\] is not a list of distinct strings"),
    ],
)
def test_bad_ids_and_class_count_name_the_file(tmp_path, scene, name, edit, message):
    bundle = write_bundle(tmp_path / "f0", scene)
    payload = json.loads((bundle / name).read_text())
    edit(payload)
    (bundle / name).write_text(json.dumps(payload))
    # A box's leaves are named by their key path in the file: boxes[0].box_id.
    with pytest.raises(BundleError, match=rf"{bundle / name}: (boxes\[0\]\.)?{message}"):
        read_bundle(bundle)


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
    b1 = write_bundle(tmp_path / "a", scene)
    b2 = write_bundle(tmp_path / "b", scene)
    assert (b1 / "manifest.json").read_bytes() == (b2 / "manifest.json").read_bytes()
    assert (b1 / "points.f32").read_bytes() == (b2 / "points.f32").read_bytes()
