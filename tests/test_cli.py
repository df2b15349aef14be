import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlf.bundle import write_mask_predictions
from wlf.cli import main
from wlf.mask_fusion import MaskPrediction


def run(*args) -> int:
    return main([str(a) for a in args])


def edit_json(path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# Pipeline configs that every command but synth rejects with exit 3.
MALFORMED_CONFIGS = {
    "rsc-t1-out-of-range": {"rsc": {"t1": 4.0}},
    "seed": {"seed": 1},
    "weights": {"weights": {"a1": 1.0}},
    "stages-dict": {"stages": {"spg": True}},
    "radius-nan": {"radii": {"1": float("nan"), "2": 0.1, "3": 0.15}},
    "radius-inf": {"radii": {"1": 0.6, "2": float("inf"), "3": 0.15}},
    # Section fields of the wrong kind or not finite.
    "pvc-n_his-float": {"pvc": {"n_his": 2.5}},
    "ipg-k-string": {"ipg": {"k": "x"}},
    "ipg-k-nan": {"ipg": {"k": float("nan")}},
    "ipg-k-inf": {"ipg": {"k": float("inf")}},
    "dcs-depth_base-nan": {"dcs": {"depth_base": float("nan")}},
    "dcs-window-float": {"dcs": {"window": 2.5}},
    "dcs-window-past-float-range": {"dcs": {"window": 10**400}},
    "rsc-t2-bool": {"rsc": {"t2": True}},
}


@pytest.fixture
def scans(tmp_path):
    """Bundles whose directory names (scanA, scanB) differ from their frame ids."""
    out = tmp_path / "scans"
    assert run("synth", "--out", out, "--seed", "3", "--num-frames", "2", "--epochs", "4",
               "--score-sigma", "0.2") == 0
    (out / "frame_0000").rename(out / "scanA")
    (out / "frame_0001").rename(out / "scanB")
    return out


@pytest.fixture
def bundles(tmp_path):
    out = tmp_path / "frames"
    assert run("synth", "--out", out, "--seed", "7", "--num-frames", "3",
               "--epochs", "4", "--score-sigma", "0.2") == 0
    return out


class TestSynth:
    def test_writes_bundles(self, bundles):
        dirs = sorted(p.name for p in bundles.iterdir() if p.is_dir())
        assert dirs == ["frame_0000", "frame_0001", "frame_0002"]
        first = bundles / "frame_0000"
        for name in ("manifest.json", "points.f32", "beam_row.u16", "boxes.json",
                     "calibration.json", "gt_semantic.i32", "gt_instance.i32",
                     "votes_0.f32", "votes_3.f32", "scene.json"):
            assert (first / name).is_file(), name

    def test_scene_records_the_sigma_used(self, bundles):
        scene = json.loads((bundles / "frame_0001" / "scene.json").read_text())
        assert scene["score_sigma"] == 0.2
        assert scene["seed"] == 8

    def test_negative_sigma_exit_3_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--num-frames", "1", "--score-sigma", "-1") == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--num-frames", "--epochs"])
    def test_negative_count_exit_3_writes_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "frames"
        assert run("synth", "--out", out, flag, "-1") == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scene", [{"seed": "x"}, {"columns": 512.0}, {"vehicles": 2}])
    def test_mistyped_scene_config_exit_3_writes_nothing(self, tmp_path, capsys, scene):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene))
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--config", config, "--num-frames", "2") == 3
        assert next(iter(scene)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scene, flags",
        [({"max_range": float("nan")}, []), ({"score_sigma": float("nan")}, []),
         ({"fov_up_deg": float("inf")}, []), ({}, ["--score-sigma", "nan"])],
        ids=["max-range-nan", "score-sigma-nan", "fov-up-inf", "score-sigma-flag-nan"],
    )
    def test_non_finite_scene_config_exit_3_writes_nothing(self, tmp_path, capsys, scene, flags):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene))  # NaN and Infinity, as json writes them
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--config", config, "--num-frames", "2", *flags) == 3
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--num-frames", "3", "--seed", "1"], ["--num-frames", "1", "--seed", "9"]),
            (["--num-frames", "1", "--epochs", "4"], ["--num-frames", "1", "--epochs", "2"]),
        ],
    )
    def test_rerun_over_a_corpus_exit_3_writes_nothing(self, tmp_path, capsys, first, second):
        # Fewer frames or epochs over an old corpus would leave its frames or
        # votes behind, mixed with the new ones.
        out = tmp_path / "frames"
        assert run("synth", "--out", out, *first) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run("synth", "--out", out, *second) == 3
        err = capsys.readouterr().err
        assert "frame_0000" in err and "Traceback" not in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


class TestPipeline:
    def test_end_to_end_with_report(self, bundles, tmp_path):
        out = tmp_path / "run1"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 0
        assert (out / "frame_0000" / "sem.i32").is_file()
        assert (out / "run.json").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("miou", "ap", "ap50", "ap75"):
            assert 0.0 <= metrics[key] <= 1.0
        for val in metrics["per_class_iou"].values():
            assert 0.0 <= val <= 1.0

    def test_missing_input_exit_2(self, tmp_path):
        assert run("pipeline", "--frames", f"{tmp_path}/nothing/*", "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_exit_3(self, bundles, tmp_path, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run("pipeline", "--config", cfg, "--frames", f"{bundles}/*", "--out", out) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_zero_range_beam_row(self, bundles, tmp_path):
        # Every return of the highest beam row at the sensor: the row's
        # maximum depth is 0, which gives it the full-width window.
        bundle = bundles / "frame_0001"
        points = np.fromfile(bundle / "points.f32", dtype="<f4").reshape(-1, 4)
        rows = np.fromfile(bundle / "beam_row.u16", dtype="<u2")
        points[rows == rows.max(), :3] = 0.0
        points.tofile(bundle / "points.f32")
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_exit_3(self, bundles, tmp_path, threads):
        out = tmp_path / "o"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out, "--threads", threads) == 3
        assert not out.exists()

    def test_unknown_stage_exit_3(self, bundles, tmp_path):
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o",
                   "--stages", "spg,warp") == 3

    def test_runs_are_byte_identical(self, bundles, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out1) == 0
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out2) == 0
        for rel in ("frame_0000/sem.i32", "frame_0001/inst.i32", "metrics.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_threads_do_not_change_output(self, bundles, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out1) == 0
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out2, "--threads", "4") == 0
        for frame in ("frame_0000", "frame_0001", "frame_0002"):
            assert (out1 / frame / "sem.i32").read_bytes() == (out2 / frame / "sem.i32").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_disabling_stages_matches_spg_subcommand(self, bundles, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out_a,
                   "--stages", "spg") == 0
        assert run("spg", "--frames", f"{bundles}/*", "--out", out_b) == 0
        for frame in ("frame_0000", "frame_0001", "frame_0002"):
            assert (out_a / frame / "sem.i32").read_bytes() == (out_b / frame / "sem.i32").read_bytes()
            assert (out_a / frame / "inst.i32").read_bytes() == (out_b / frame / "inst.i32").read_bytes()


class TestStageCommands:
    def test_pvc_then_rsc_match_full_pipeline(self, bundles, tmp_path):
        full = tmp_path / "full"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", full) == 0
        spg_only = tmp_path / "spg"
        assert run("spg", "--frames", f"{bundles}/*", "--out", spg_only) == 0
        voted = tmp_path / "voted"
        assert run("pvc", "--frames", f"{bundles}/*", "--labels", spg_only, "--out", voted) == 0
        final = tmp_path / "final"
        assert run("rsc", "--frames", f"{bundles}/*", "--labels", voted, "--out", final) == 0
        for frame in ("frame_0000", "frame_0001", "frame_0002"):
            assert (full / frame / "sem.i32").read_bytes() == (final / frame / "sem.i32").read_bytes()
            assert (full / frame / "inst.i32").read_bytes() == (final / frame / "inst.i32").read_bytes()

    def test_pvc_requires_votes(self, tmp_path):
        frames = tmp_path / "noveto"
        assert run("synth", "--out", frames, "--num-frames", "1", "--epochs", "0") == 0
        labels = tmp_path / "labels"
        assert run("spg", "--frames", f"{frames}/*", "--out", labels) == 0
        assert run("pvc", "--frames", f"{frames}/*", "--labels", labels,
                   "--out", tmp_path / "v") == 2

    def test_eval_subcommand(self, bundles, tmp_path):
        labels = tmp_path / "labels"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", labels) == 0
        report_dir = tmp_path / "report"
        assert run("eval", "--frames", f"{bundles}/*", "--labels", labels,
                   "--out", report_dir) == 0
        metrics = json.loads((report_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["miou"] <= 1.0
        assert (report_dir / "metrics.txt").read_text().strip()


    def test_stage_chain_keys_outputs_by_frame_id(self, scans, tmp_path):
        frames = f"{scans}/*"
        full = tmp_path / "full"
        assert run("pipeline", "--frames", frames, "--out", full) == 0
        assert run("spg", "--frames", frames, "--out", tmp_path / "spg") == 0
        assert run("pvc", "--frames", frames, "--labels", tmp_path / "spg",
                   "--out", tmp_path / "pvc") == 0
        assert run("rsc", "--frames", frames, "--labels", tmp_path / "pvc",
                   "--out", tmp_path / "rsc") == 0
        assert run("eval", "--frames", frames, "--labels", tmp_path / "rsc",
                   "--out", tmp_path / "eval") == 0
        for frame in ("frame_0000", "frame_0001"):
            for name in ("sem.i32", "inst.i32"):
                want = (full / frame / name).read_bytes()
                assert (tmp_path / "rsc" / frame / name).read_bytes() == want
                assert (tmp_path / "eval" / frame / name).read_bytes() == want
        want = (full / "metrics.json").read_bytes()
        assert (tmp_path / "eval" / "metrics.json").read_bytes() == want

    def test_duplicate_frame_id_exit_3(self, scans, tmp_path, capsys):
        shutil.copytree(scans / "scanA", scans / "scanC")
        out = tmp_path / "out"
        assert run("pipeline", "--frames", f"{scans}/*", "--out", out) == 3
        err = capsys.readouterr().err
        assert "frame_0000" in err and "scanA" in err and "scanC" in err
        assert not any(p.is_dir() for p in out.iterdir())
        assert run("ipg", "--frames", f"{scans}/*", "--out", tmp_path / "ipg") == 3

    @pytest.mark.parametrize("frame_id", ["run.json", "metrics.json", "metrics.txt"])
    def test_run_file_name_as_frame_id_exit_3(self, bundles, tmp_path, capsys, frame_id):
        edit_json(bundles / "frame_0001" / "manifest.json", lambda m: m.update(frame_id=frame_id))
        out = tmp_path / "out"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 3
        assert str(bundles / "frame_0001") in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("boxes.json", lambda boxes: boxes[0].update(bounds=[5, 5, 5, 9])),
            ("calibration.json", lambda calib: calib.pop("extrinsic")),
            ("manifest.json", lambda manifest: manifest.pop("columns")),
            ("manifest.json", lambda manifest: manifest.update(beams=1)),
            ("boxes.json", lambda boxes: boxes[0].update(class_id=4)),
            ("boxes.json", lambda boxes: boxes.append(dict(boxes[0]))),
            ("boxes.json", lambda boxes: boxes[0].update(box_id=1.5)),
            ("manifest.json", lambda manifest: manifest.update(num_classes="three")),
            ("manifest.json", lambda manifest: manifest.update(columns=512.9)),
            ("manifest.json", lambda manifest: manifest.update(beams="32")),
            ("manifest.json", lambda manifest: manifest.update(num_points=-1)),
            ("manifest.json", lambda manifest: manifest.update(num_points=float(manifest["num_points"]))),
            ("manifest.json", lambda manifest: manifest.update(num_classes=4)),
        ],
        ids=["degenerate-box", "no-extrinsic", "no-columns", "beam-row-past-beams",
             "class-without-radius", "duplicate-box-id", "float-box-id", "string-num-classes",
             "float-columns", "string-beams", "negative-num-points", "float-num-points",
             "num-classes-differs"],
    )
    def test_malformed_bundle_exit_3(self, bundles, tmp_path, capsys, name, edit):
        edit_json(bundles / "frame_0002" / name, edit)
        # An exception escaping main would be a traceback and exit 1.
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        assert str(bundles / "frame_0002") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, row, col, value",
        [("extrinsic", 0, 0, float("nan")), ("intrinsic", 0, 2, float("inf")),
         ("extrinsic", 2, 3, float("nan"))],
        ids=["extrinsic-rotation-nan", "intrinsic-cx-inf", "extrinsic-translation-nan"],
    )
    def test_non_finite_calibration_exit_3(self, bundles, tmp_path, capsys, key, row, col, value):
        # Every comparison with NaN is false, so range checks alone let it through.
        edit_json(bundles / "frame_0002" / "calibration.json",
                  lambda calib: calib[key][row].__setitem__(col, value))
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"{bundles / 'frame_0002' / 'calibration.json'}: " in err
        assert "must be finite" in err and "Traceback" not in err

    def test_box_class_above_num_classes_exit_3(self, bundles, tmp_path, capsys):
        for manifest in sorted(bundles.glob("*/manifest.json")):
            edit_json(manifest, lambda m: m.update(num_classes=1))
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"{bundles / 'frame_0000' / 'boxes.json'}: class_id" in err
        assert "above num_classes 1" in err

    def test_box_class_without_radius_exit_3(self, bundles, tmp_path, capsys):
        cfg = tmp_path / "radii.json"
        cfg.write_text(json.dumps({"radii": {"1": 0.6, "3": 0.15}}))
        assert run("pipeline", "--config", cfg, "--frames", f"{bundles}/*",
                   "--out", tmp_path / "o") == 3
        assert "boxes.json: no clustering radius for class 2" in capsys.readouterr().err

    def test_frames_pool_in_frame_id_order(self, bundles, tmp_path):
        aligned = tmp_path / "aligned"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", aligned) == 0
        # Directory names in the reverse of their frame ids.
        for k, name in enumerate(("frame_0000", "frame_0001", "frame_0002")):
            (bundles / name).rename(bundles / f"scan{2 - k}")
        reversed_out = tmp_path / "reversed"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", reversed_out) == 0
        for rel in ("metrics.json", "metrics.txt", "frame_0000/sem.i32", "frame_0002/inst.i32"):
            assert (reversed_out / rel).read_bytes() == (aligned / rel).read_bytes(), rel

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_frame_leaves_no_run_files(self, bundles, tmp_path, capsys, threads):
        (bundles / "frame_0002" / "points.f32").write_bytes(b"\0" * 12)
        out = tmp_path / "out"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out, "--threads", threads) == 3
        assert str(bundles / "frame_0002" / "points.f32") in capsys.readouterr().err
        # The frames before it are written; a finished run would add run.json.
        assert (out / "frame_0001" / "sem.i32").is_file()
        assert not any((out / name).exists() for name in ("run.json", "metrics.json", "metrics.txt"))

    def test_pipeline_requires_votes(self, tmp_path, capsys):
        frames = tmp_path / "novotes"
        assert run("synth", "--out", frames, "--num-frames", "1", "--epochs", "0") == 0
        assert run("pipeline", "--frames", f"{frames}/*", "--out", tmp_path / "o") == 2
        assert str(frames / "frame_0000") in capsys.readouterr().err
        assert run("pipeline", "--frames", f"{frames}/*", "--out", tmp_path / "o",
                   "--stages", "spg,rsc") == 0

    @pytest.mark.parametrize("keep_canonical", [True, False], ids=["beside-votes_3", "only-copy"])
    def test_zero_padded_vote_epoch_exit_3(self, bundles, tmp_path, capsys, keep_canonical):
        # votes_03.f32 is no epoch: next to votes_3.f32 it would count epoch 3
        # twice, and alone it would send the reader to a votes_3.f32 that
        # does not exist.
        bundle = bundles / "frame_0001"
        padded = bundle / "votes_03.f32"
        shutil.copy(bundle / "votes_3.f32", padded)
        if not keep_canonical:
            (bundle / "votes_3.f32").unlink()
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        assert f"{padded}: vote file name" in capsys.readouterr().err

    def test_labels_required(self, bundles, tmp_path):
        for command in ("pvc", "rsc", "eval"):
            with pytest.raises(SystemExit) as exc:
                run(command, "--frames", f"{bundles}/*", "--out", tmp_path / "o")
            assert exc.value.code == 2

    def test_missing_labels_exit_2(self, bundles, tmp_path, capsys):
        assert run("eval", "--frames", f"{bundles}/*", "--labels", tmp_path / "none",
                   "--out", tmp_path / "o") == 2
        assert str(tmp_path / "none" / "frame_0000") in capsys.readouterr().err

    def test_eval_without_ground_truth_exit_2(self, bundles, tmp_path):
        labels = tmp_path / "labels"
        assert run("spg", "--frames", f"{bundles}/*", "--out", labels) == 0
        for gt in bundles.glob("*/gt_*.i32"):
            gt.unlink()
        assert run("eval", "--frames", f"{bundles}/*", "--labels", labels,
                   "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("command", ["pvc", "rsc", "eval"])
    def test_inconsistent_labels_exit_3(self, bundles, tmp_path, capsys, command):
        labels = tmp_path / "labels"
        assert run("spg", "--frames", f"{bundles}/*", "--out", labels) == 0
        inst_path = labels / "frame_0001" / "inst.i32"
        inst = np.frombuffer(inst_path.read_bytes(), dtype="<i4").copy()
        inst[0] = 999  # names no box
        inst_path.write_bytes(inst.tobytes())
        assert run(command, "--frames", f"{bundles}/*", "--labels", labels,
                   "--out", tmp_path / "o") == 3
        assert str(labels / "frame_0001") in capsys.readouterr().err


class TestIpg:
    def test_fuses_masks(self, bundles, tmp_path, rng):
        frame_dir = bundles / "frame_0000"
        boxes = json.loads((frame_dir / "boxes.json").read_text())
        box = boxes[0]
        x0, y0, x1, y1 = box["bounds"]
        preds = [
            (box["box_id"], MaskPrediction(
                prob_map=rng.uniform(0, 1, (8, 8)), score=0.8,
                pred_box=(x0, y0, x1, y1))),
            (box["box_id"], MaskPrediction(
                prob_map=rng.uniform(0, 1, (8, 8)), score=0.4,
                pred_box=(x0 + 2, y0 + 2, x1 + 2, y1 + 2))),
        ]
        write_mask_predictions(frame_dir, preds)
        out = tmp_path / "ipg"
        assert run("ipg", "--frames", f"{bundles}/*", "--out", out) == 0
        fused = np.frombuffer(
            (out / "frame_0000" / f"fused_{box['box_id']}.f32").read_bytes(), dtype="<f4"
        )
        assert fused.size == 64
        tri = np.frombuffer(
            (out / "frame_0000" / f"trinary_{box['box_id']}.i8").read_bytes(), dtype="<i1"
        )
        assert set(np.unique(tri)).issubset({-1, 0, 1})
        report = json.loads((out / "frame_0000" / "ipg.json").read_text())
        assert report[str(box["box_id"])]["num_predictions"] == 2

    def test_outputs_keyed_by_frame_id(self, scans, tmp_path, rng):
        box = json.loads((scans / "scanB" / "boxes.json").read_text())[0]
        pred = MaskPrediction(prob_map=rng.uniform(0, 1, (4, 4)), score=0.5,
                              pred_box=tuple(box["bounds"]))
        write_mask_predictions(scans / "scanB", [(box["box_id"], pred)])
        out = tmp_path / "ipg"
        assert run("ipg", "--frames", f"{scans}/*", "--out", out) == 0
        assert (out / "frame_0001" / "ipg.json").is_file()
        assert not (out / "scanB").exists()

    def test_no_masks_exit_2(self, bundles, tmp_path):
        assert run("ipg", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_exit_3(self, bundles, tmp_path, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run("ipg", "--config", cfg, "--frames", f"{bundles}/*", "--out", out) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_rejected(self, bundles, tmp_path, capsys):
        # ipg fuses masks in one pass; --threads is a pipeline flag.
        with pytest.raises(SystemExit) as exc:
            run("ipg", "--frames", f"{bundles}/*", "--out", tmp_path / "o", "--threads", "7")
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("mask_1.json", lambda path: path.write_text('{"box_id": ')),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.pop("score"))),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(pred_box=[5, 5, 5, 9]))),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(score=-0.5))),
            ("mask_1.f32", lambda path: path.write_bytes(np.full(16, np.nan, "<f4").tobytes())),
            # Still 16 values, so the map reads, but not in the 4x4 of mask_0.
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(shape=[2, 8]))),
        ],
        ids=["bad-json", "missing-key", "degenerate-box", "negative-score", "non-finite-map",
             "shape-mismatch"],
    )
    def test_malformed_masks_exit_3(self, bundles, tmp_path, capsys, rng, name, damage):
        bundle = bundles / "frame_0001"
        box = json.loads((bundle / "boxes.json").read_text())[0]
        write_mask_predictions(bundle, [
            (box["box_id"], MaskPrediction(prob_map=rng.uniform(0, 1, (4, 4)), score=0.5,
                                           pred_box=tuple(box["bounds"])))
            for _ in range(2)
        ])
        damage(bundle / "masks" / name)
        # An exception escaping main would be a traceback and exit 1.
        assert run("ipg", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(bundle / "masks" / "mask_1.json") in err

    def test_bad_later_bundle_writes_nothing(self, tmp_path, capsys, rng):
        frames = tmp_path / "frames"
        assert run("synth", "--out", frames, "--seed", "5", "--num-frames", "2") == 0
        for name in ("frame_0000", "frame_0001"):
            box = json.loads((frames / name / "boxes.json").read_text())[0]
            write_mask_predictions(frames / name, [(box["box_id"], MaskPrediction(
                prob_map=rng.uniform(0, 1, (4, 4)), score=0.5, pred_box=tuple(box["bounds"])))])
        bad = frames / "frame_0001" / "masks" / "mask_0.json"
        edit_json(bad, lambda m: m.pop("score"))
        out = tmp_path / "o"
        assert run("ipg", "--frames", f"{frames}/*", "--out", out) == 3
        assert str(bad) in capsys.readouterr().err
        assert not list(out.glob("frame_*"))


FUZZ_REQUIRED = ("manifest.json", "boxes.json", "calibration.json", "points.f32", "beam_row.u16")
# Without these the bundle is still whole: no ground truth, or too few vote
# epochs for pvc, which then logs that it skipped.
FUZZ_OPTIONAL = ("gt_semantic.i32", "gt_instance.i32", "votes_0.f32", "votes_3.f32")
# Damage here is run through ipg, which has no mask to fuse without either file.
FUZZ_MASKS = ("masks/mask_0.json", "masks/mask_0.f32")


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene = root / "scene.json"
    scene.write_text(json.dumps({"beams": 16, "columns": 256}))
    assert run("synth", "--out", root / "frames", "--config", scene, "--seed", "11",
               "--num-frames", "1", "--epochs", "4", "--score-sigma", "0.2") == 0
    bundle = root / "frames" / "frame_0000"
    box = json.loads((bundle / "boxes.json").read_text())[0]
    write_mask_predictions(bundle, [(box["box_id"], MaskPrediction(
        prob_map=np.linspace(0.0, 1.0, 12).reshape(3, 4), score=0.5,
        pred_box=tuple(box["bounds"])))])
    return bundle


class TestBundleFuzz:
    """Each bundle file in turn is dropped, truncated or has bytes flipped.
    A run (ipg for the masks/ files, pipeline for the rest) ends with exit 2
    or 3 and no traceback, or, where the damage leaves a well-formed bundle,
    with exit 0."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(FUZZ_REQUIRED + FUZZ_OPTIONAL + FUZZ_MASKS),
        action=st.sampled_from(["drop", "truncate", "corrupt"]),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                       min_size=1, max_size=4),
    )
    def test_damaged_bundle_exits_cleanly(self, fuzz_bundle, name, action, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            frames = Path(tmp) / "frames"
            bundle = frames / fuzz_bundle.name
            shutil.copytree(fuzz_bundle, bundle)
            path = bundle / name
            data = bytearray(path.read_bytes())
            if action == "drop":
                path.unlink()
                expected = {0} if name in FUZZ_OPTIONAL else {2}
            elif action == "truncate":
                # A JSON file cut by its final newline alone is still whole.
                keep = len(data) - 2 if name.endswith(".json") else len(data) - 1
                path.write_bytes(data[: int(cut * (keep + 1))])
                expected = {3}
            else:
                for where, mask in flips:
                    data[int(where * len(data))] ^= mask
                path.write_bytes(bytes(data))
                expected = {0, 3}
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                command = "ipg" if name in FUZZ_MASKS else "pipeline"
                rc = run(command, "--frames", f"{frames}/*", "--out", Path(tmp) / "out")
            assert rc in expected, stderr.getvalue()
            assert "Traceback" not in stderr.getvalue()
            if rc == 3:
                assert str(bundle) in stderr.getvalue()
