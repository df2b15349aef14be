import contextlib
import copy
import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlf
from wlf.bundle import write_mask_predictions
from wlf.cli import main
from wlf.config import ConfigError, PipelineConfig
from wlf.mask_fusion import MaskPrediction
from wlf.pipeline import run_pipeline
from wlf.synth import SceneConfig


def run(*args) -> int:
    return main([str(a) for a in args])


def edit_json(path, edit) -> None:
    """Change a JSON file's payload in place; an edit that returns a string
    gives the file's new text instead, for what json.dumps cannot write."""
    payload = json.loads(path.read_text())
    text = edit(payload)
    path.write_text(text if isinstance(text, str) else json.dumps(payload))


def tree(root) -> dict:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in Path(root).rglob("*")}


# An --out or --labels that is a file, or a path beneath one.
FILE_PATHS = {"file": "taken", "beneath-file": "taken/run"}


def image_size_text(text: str):
    """An edit of calibration.json that writes ``text`` as its image_size."""
    return lambda calib: json.dumps({**calib, "image_size": None}).replace(
        '"image_size": null', f'"image_size": {text}')


# Pipeline configs that every command but synth rejects with exit 3.
MALFORMED_CONFIGS = {
    "rsc-t1-out-of-range": {"rsc": {"t1": 4.0}},
    "seed": {"seed": 1},
    "weights": {"weights": {"a1": 1.0}},
    "stages-dict": {"stages": {"spg": True}},
    "radius-nan": {"radii": {"1": float("nan"), "2": 0.1, "3": 0.15}},
    "radius-inf": {"radii": {"1": 0.6, "2": float("inf"), "3": 0.15}},
    "radius-string": {"radii": {"1": "0.6", "2": 0.1, "3": 0.15}},
    "radius-bool": {"radii": {"1": True, "2": 0.1, "3": 0.15}},
    "radius-zero": {"radii": {"1": 0.0, "2": 0.1, "3": 0.15}},
    # Two keys for class 1, and a class id below 1.
    "radii-key-leading-zero": {"radii": {"1": 0.6, "01": 0.7, "2": 0.1, "3": 0.15}},
    "radii-key-negative": {"radii": {"-1": 0.5, "1": 0.6, "2": 0.1, "3": 0.15}},
    "threads-bool": {"threads": True},
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

    @pytest.mark.parametrize("scene, flags", [({}, ["--seed", "-1"]), ({"seed": -3}, [])],
                             ids=["flag", "config"])
    def test_negative_seed_exit_3_writes_nothing(self, tmp_path, capsys, scene, flags):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene))
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--config", config, "--num-frames", "2", *flags) == 3
        err = capsys.readouterr().err
        assert "is not an integer in [0, inf]" in err and "Traceback" not in err
        assert (f"{config}: seed -3" in err) == (flags == [])
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--num-frames", "--epochs"])
    def test_negative_count_exit_3_writes_nothing(self, tmp_path, capsys, flag):
        out = tmp_path / "frames"
        assert run("synth", "--out", out, flag, "-1") == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    # Values of the wrong type, and then out of their range, each of which
    # once reached generate_scene and ended in a traceback.
    @pytest.mark.parametrize("scene", [
        {"seed": "x"}, {"columns": 512.0}, {"vehicles": 2},
        pytest.param({"image_width": 0}, id="image-width-0"),
        pytest.param({"image_height": -1}, id="image-height-negative"),
        pytest.param({"focal": 0}, id="focal-0"),
        pytest.param({"box_pad_px": -1}, id="box-pad-negative"),
        pytest.param({"columns": 2**70}, id="columns-2**70"),
        pytest.param({"sensor_height": 2**70}, id="sensor-height-2**70"),
    ])
    def test_mistyped_scene_config_exit_3_writes_nothing(self, tmp_path, capsys, scene):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene))
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--config", config, "--num-frames", "2") == 3
        err = capsys.readouterr().err
        assert f"{config}: {next(iter(scene))} " in err and "Traceback" not in err
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
        assert "is not a finite number" in err and "Traceback" not in err
        assert not out.exists()

    def test_beams_past_uint16_rows_exit_3_writes_nothing(self, tmp_path, capsys):
        # beam_row.u16 holds rows 0..65535; more beams would wrap the rows.
        config = tmp_path / "scene.json"
        counts = ("vehicles", "pedestrians", "cyclists", "background_walls")
        config.write_text(json.dumps({"beams": 65540, "columns": 1, **{k: [0, 0] for k in counts}}))
        out = tmp_path / "frames"
        assert run("synth", "--out", out, "--config", config, "--num-frames", "1") == 3
        err = capsys.readouterr().err
        assert "beams" in err and "Traceback" not in err
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


    @pytest.mark.parametrize("out", FILE_PATHS.values(), ids=FILE_PATHS.keys())
    def test_out_names_a_file_exit_3_writes_nothing(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_bytes(b"x")
        before = tree(tmp_path)
        assert run("synth", "--out", tmp_path / out, "--num-frames", "1") == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'taken'} is not a directory" in err and "Traceback" not in err
        assert tree(tmp_path) == before


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

    def test_unknown_flag_exit_3(self, tmp_path, capsys):
        # Exit 2 is kept for missing input; a usage error is a malformed call.
        with pytest.raises(SystemExit) as exc:
            run("pipeline", "--frames", f"{tmp_path}/*", "--out", tmp_path / "o", "--bogus")
        assert exc.value.code == 3
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

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

    # Above 64, a pool over a large corpus would start a thread per frame.
    @pytest.mark.parametrize("threads", ["0", "-3", "65"])
    def test_bad_threads_exit_3(self, bundles, tmp_path, threads):
        out = tmp_path / "o"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out, "--threads", threads) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "spg", "pvc", "rsc", "eval"])
    def test_rerun_over_a_run_exit_3_writes_nothing(self, bundles, tmp_path, capsys, command):
        # Fewer frames over an old run would leave its frames behind, beside a
        # run.json that does not count them.
        out = tmp_path / "out"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 0
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        capsys.readouterr()
        labels = [] if command in ("pipeline", "spg") else ["--labels", out]
        assert run(command, "--frames", f"{bundles}/frame_0000", "--out", out, *labels) == 3
        err = capsys.readouterr().err
        assert str(out / "run.json") in err and "Traceback" not in err
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    @pytest.mark.parametrize("command", ["pipeline", "spg", "pvc", "rsc", "eval", "ipg"])
    @pytest.mark.parametrize("out", FILE_PATHS.values(), ids=FILE_PATHS.keys())
    def test_out_names_a_file_exit_3_writes_nothing(self, bundles, tmp_path, capsys, command,
                                                     out):
        (tmp_path / "taken").write_bytes(b"x")
        labels = ["--labels", tmp_path / "none"] if command in ("pvc", "rsc", "eval") else []
        before = tree(tmp_path)
        assert run(command, "--frames", f"{bundles}/*", "--out", tmp_path / out, *labels) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'taken'} is not a directory" in err and "Traceback" not in err
        assert tree(tmp_path) == before

    def test_frames_of_a_failed_run_exit_3(self, bundles, tmp_path, capsys):
        # A failed run leaves frames but no run files; they would mix too.
        out = tmp_path / "out"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 0
        for name in ("run.json", "metrics.json", "metrics.txt"):
            (out / name).unlink()
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 3
        assert str(out / "frame_0000" / "sem.i32") in capsys.readouterr().err

    def test_unknown_stage_exit_3(self, bundles, tmp_path):
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o",
                   "--stages", "spg,warp") == 3

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("level, shown", [(None, True), ("error", False)])
    def test_warning_format_on_stderr(self, bundles, tmp_path, level, shown, threads):
        # A child logs nothing until its first warning, which then prints in
        # the CLI's format at the default level, and not at WLF_LOG=error;
        # with two threads the frames warn from the pool's threads.
        # In a child: under pytest the root logger already has handlers.
        missing = [bundles / f"frame_{i:04d}" / "gt_instance.i32" for i in range(3)]
        for path in missing:
            path.unlink()
        env = {k: v for k, v in os.environ.items() if k != "WLF_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
        if level is not None:
            env["WLF_LOG"] = level
        proc = subprocess.run(
            [sys.executable, "-m", "wlf.cli", "pipeline", "--frames", f"{bundles}/*",
             "--out", str(tmp_path / "o"), "--threads", str(threads)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        want = [f"WARNING wlf.bundle: {p} is missing: the frame is not scored" for p in missing]
        assert sorted(proc.stderr.splitlines()) == (want if shown else []), proc.stderr

    def test_warning_during_another_threads_set_up_waits_for_it(self, monkeypatch):
        # A thread that warns while the first warning's set-up is still
        # running must not log before the handler is in place.
        log = logging.getLogger("wlf.test_setup")
        monkeypatch.setattr(log, "propagate", False)
        monkeypatch.setattr(log, "handlers", [])
        got, lock, other = [], threading.Lock(), []

        class Keep(logging.Handler):
            def emit(self, record):
                got.append(record.getMessage())

        def setup():
            with lock:  # as logging.basicConfig holds logging's lock
                if not other:
                    other.append(threading.Thread(target=wlf.warn, args=(log.name, "second")))
                    other[0].start()
                    time.sleep(0.05)
                    log.addHandler(Keep())

        monkeypatch.setattr(wlf, "log_setup", setup)
        wlf.warn(log.name, "first")
        other[0].join()
        assert sorted(got) == ["first", "second"]
        assert wlf.log_setup is None

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
            ("calibration.json", image_size_text("[Infinity, 480]")),
            ("calibration.json", image_size_text("[1e400, 480]")),
            ("calibration.json", image_size_text("[640.7, 480]")),
            ("calibration.json", image_size_text("[true, 480]")),
            ("calibration.json", image_size_text(f"[{10**400}, 480]")),
            ("boxes.json", lambda boxes: boxes[0].update(bounds=["1", "2", "3", "4"])),
            ("boxes.json", lambda boxes: boxes[0].update(bounds=[0, 0, True, True])),
            ("manifest.json", lambda manifest: manifest.update(
                class_names=["vehicle", "vehicle", "cyclist"])),
            ("manifest.json", lambda manifest: manifest.update(
                class_names=["cyclist", "pedestrian", "vehicle"])),
        ],
        ids=["degenerate-box", "no-extrinsic", "no-columns", "beam-row-past-beams",
             "class-without-radius", "duplicate-box-id", "float-box-id", "string-num-classes",
             "float-columns", "string-beams", "negative-num-points", "float-num-points",
             "num-classes-differs", "image-size-infinity", "image-size-1e400",
             "image-size-float", "image-size-bool", "image-size-past-float-range",
             "string-bounds", "bool-bounds", "repeated-class-name", "class-names-differ"],
    )
    def test_malformed_bundle_exit_3(self, bundles, tmp_path, capsys, name, edit):
        edit_json(bundles / "frame_0002" / name, edit)
        # An exception escaping main would be a traceback and exit 1.
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert str(bundles / "frame_0002") in err
        if name == "calibration.json":
            assert f"{bundles / 'frame_0002' / name}: " in err

    @pytest.mark.parametrize(
        "name, edit, where",
        [
            ("manifest.json", lambda m: m.update(beams=2**70), "beams"),
            ("manifest.json", lambda m: m.update(columns=2**70), "columns"),
            ("manifest.json", lambda m: m.update(num_classes=2**70), "num_classes"),
            ("manifest.json", lambda m: m.update(arrays="junk"), "arrays"),
            ("boxes.json", lambda boxes: boxes[0].update(box_id=2**70), "boxes[0].box_id"),
            # box_classes' table is as long as the largest id: 2**31 - 1 asked for 8 GiB.
            ("boxes.json", lambda boxes: boxes[0].update(box_id=65536), "boxes[0].box_id"),
            ("boxes.json", lambda boxes: boxes[0]["bounds"].__setitem__(2, math.inf),
             "boxes[0].bounds[2]"),
            ("boxes.json", lambda boxes: "{}", "boxes"),
            ("calibration.json", lambda calib: calib["intrinsic"][0].__setitem__(0, "420"),
             "intrinsic[0][0]"),
            ("calibration.json", lambda calib: calib["intrinsic"][0].__setitem__(0, True),
             "intrinsic[0][0]"),
            # The range image's cell index is int32: this raster once asked
            # numpy for 128 GiB.
            ("manifest.json", lambda m: m.update(columns=2**31 - 1), "beams * columns"),
            ("calibration.json", lambda calib: calib["extrinsic"][3].__setitem__(0, 1.5),
             "extrinsic[3]"),
            ("calibration.json", lambda calib: calib["extrinsic"][3].__setitem__(3, 0),
             "extrinsic[3]"),
        ],
        ids=["beams-2**70", "columns-2**70", "num-classes-2**70", "arrays-string",
             "box-id-2**70", "box-id-65536", "bound-infinity", "boxes-object", "intrinsic-string",
             "intrinsic-bool", "raster-past-int32-cells", "extrinsic-bottom-row-1.5",
             "extrinsic-bottom-row-0"],
    )
    def test_json_leaf_of_wrong_type_or_range_exit_3(self, bundles, tmp_path, capsys, name, edit,
                                                     where):
        # Each once ended in a traceback or was read as a valid bundle.
        edit_json(bundles / "frame_0000" / name, edit)
        out = tmp_path / "o"
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", out) == 3
        err = capsys.readouterr().err
        assert f"{bundles / 'frame_0000' / name}: {where} " in err and "Traceback" not in err
        assert not any(p.is_file() for p in out.rglob("*"))

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
        assert f"{bundles / 'frame_0002' / 'calibration.json'}: {key}[{row}][{col}] " in err
        assert "is not a finite number" in err and "Traceback" not in err

    # float32 bit patterns; a signalling NaN raises the invalid flag as it is widened.
    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7FA00000, 0x7F800000, 0xFF800000],
                             ids=["nan", "signalling-nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
    def test_non_finite_point_exit_3(self, bundles, tmp_path, capsys, axis, bits):
        path = bundles / "frame_0000" / "points.f32"
        points = np.fromfile(path, dtype="<u4").reshape(-1, 4)
        points[len(points) // 2, axis] = bits
        points.tofile(path)
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and "Traceback" not in err

    def test_non_finite_intensity_is_never_read(self, bundles, tmp_path):
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "clean") == 0
        path = bundles / "frame_0001" / "points.f32"
        points = np.fromfile(path, dtype="<f4").reshape(-1, 4)
        points[0::3, 3], points[1::3, 3], points[2::3, 3] = np.nan, np.inf, -np.inf
        points.tofile(path)
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "dirty") == 0
        for name in ("metrics.json", *(f"frame_000{i}/{a}.i32" for i in range(3)
                                       for a in ("sem", "inst"))):
            assert (tmp_path / "dirty" / name).read_bytes() == \
                (tmp_path / "clean" / name).read_bytes(), name

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

    def test_in_box_point_past_the_clustering_bound_exit_3(self, bundles, tmp_path, capsys):
        # An instance point moved 10**12 m out along its camera ray keeps its
        # pixel, so its box still clusters it, past 2**33 radii of any class.
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "clean") == 0
        instance = np.fromfile(tmp_path / "clean" / "frame_0001" / "inst.i32", dtype="<i4")
        owned = np.flatnonzero(instance > 0)
        k = owned[len(owned) // 2]
        calib = json.loads((bundles / "frame_0001" / "calibration.json").read_text())
        rotation = np.array(calib["extrinsic"])[:3, :3]
        centre = -rotation.T @ np.array(calib["extrinsic"])[:3, 3]  # the camera, in the LiDAR frame
        path = bundles / "frame_0001" / "points.f32"
        points = np.fromfile(path, dtype="<f4").reshape(-1, 4)
        ray = points[k, :3] - centre
        points[k, :3] = centre + ray * (1e12 / np.linalg.norm(ray))
        points.tofile(path)
        assert run("pipeline", "--frames", f"{bundles}/*", "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert f"{bundles / 'frame_0001'}: " in err and "2**33 radii" in err
        assert "Traceback" not in err

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
        assert run("pipeline", "--frames", f"{frames}/*", "--out", tmp_path / "o2",
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
            assert exc.value.code == 3

    @pytest.mark.parametrize("stages", [("spg",), ("spg", "pvc", "rsc")], ids=["spg", "all"])
    def test_spg_on_start_labels_is_config_error(self, bundles, tmp_path, stages):
        # spg makes the starting labels, so on given labels it could only be
        # skipped. No command asks for that; a library call must not either.
        labels = tmp_path / "labels"
        assert run("spg", "--frames", f"{bundles}/*", "--out", labels) == 0
        out = tmp_path / "o"
        cfg = PipelineConfig(frames=f"{bundles}/*", out_dir=str(out), stages=stages)
        with pytest.raises(ConfigError, match="spg cannot run"):
            run_pipeline(cfg, labels)
        assert not out.exists()

    def test_missing_labels_exit_2(self, bundles, tmp_path, capsys):
        assert run("eval", "--frames", f"{bundles}/*", "--labels", tmp_path / "none",
                   "--out", tmp_path / "o") == 2
        assert str(tmp_path / "none" / "frame_0000") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pvc", "rsc", "eval"])
    @pytest.mark.parametrize("labels", FILE_PATHS.values(), ids=FILE_PATHS.keys())
    def test_labels_names_a_file_exit_2_writes_nothing(self, bundles, tmp_path, capsys, command,
                                                        labels):
        (tmp_path / "taken").write_bytes(b"x")
        before = tree(tmp_path)
        assert run(command, "--frames", f"{bundles}/*", "--labels", tmp_path / labels,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'taken'} is not a directory" in err and "Traceback" not in err
        assert tree(tmp_path) == before

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

    @pytest.mark.parametrize("command", ["pvc", "rsc", "eval"])
    @pytest.mark.parametrize(
        "array, value, message",
        [("sem.i32", 99, "semantic label 99 outside -1..3"),
         ("sem.i32", -7, "semantic label -7 outside -1..3"),
         ("inst.i32", -2, "instance id -2 is negative")],
        ids=["semantic-above-classes", "semantic-below-ignore", "negative-instance"],
    )
    def test_out_of_range_labels_exit_3(self, bundles, tmp_path, capsys, command, array,
                                        value, message):
        # No run writes such labels; on points of no instance they would
        # otherwise pass every check and be scored as a class.
        labels = tmp_path / "labels"
        assert run("spg", "--frames", f"{bundles}/*", "--out", labels) == 0
        sem = np.fromfile(labels / "frame_0001" / "sem.i32", dtype="<i4")
        inst = np.fromfile(labels / "frame_0001" / "inst.i32", dtype="<i4")
        path = labels / "frame_0001" / array
        edited = (sem if array == "sem.i32" else inst).copy()
        edited[np.flatnonzero(inst == 0)[:19]] = value
        edited.tofile(path)
        out = tmp_path / "o"
        assert run(command, "--frames", f"{bundles}/*", "--labels", labels, "--out", out) == 3
        err = capsys.readouterr().err
        assert f"{labels / 'frame_0001'}: {message}" in err and "Traceback" not in err
        assert not (out / "frame_0001").exists() and not (out / "run.json").exists()


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

    def test_reads_no_point(self, bundles, tmp_path, rng):
        # ipg needs only the manifest, the boxes and the masks: a bundle
        # without its point, beam, ground-truth and calibration files fuses
        # to the same bytes as the whole bundle.
        box = json.loads((bundles / "frame_0000" / "boxes.json").read_text())[0]
        write_mask_predictions(bundles / "frame_0000", [(box["box_id"], MaskPrediction(
            prob_map=rng.uniform(0, 1, (4, 4)), score=0.5, pred_box=tuple(box["bounds"])))])
        assert run("ipg", "--frames", f"{bundles}/frame_0000", "--out", tmp_path / "whole") == 0
        for name in ("points.f32", "beam_row.u16", "gt_semantic.i32", "gt_instance.i32",
                     "calibration.json"):
            (bundles / "frame_0000" / name).unlink()
        assert run("ipg", "--frames", f"{bundles}/frame_0000", "--out", tmp_path / "bare") == 0
        whole = sorted((tmp_path / "whole" / "frame_0000").iterdir())
        assert len(whole) == 3
        for path in whole:
            assert (tmp_path / "bare" / "frame_0000" / path.name).read_bytes() == path.read_bytes()

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

    @pytest.mark.parametrize("first", ["ipg", "pipeline"])
    def test_rerun_over_a_run_exit_3_writes_nothing(self, bundles, tmp_path, capsys, rng, first):
        # ipg over fewer frames would leave the old run's ipg.json, fused_*
        # and trinary_* files beside the new ones.
        for name in ("frame_0000", "frame_0001"):
            box = json.loads((bundles / name / "boxes.json").read_text())[0]
            write_mask_predictions(bundles / name, [(box["box_id"], MaskPrediction(
                prob_map=rng.uniform(0, 1, (4, 4)), score=0.5, pred_box=tuple(box["bounds"])))])
        out = tmp_path / "out"
        assert run(first, "--frames", f"{bundles}/*", "--out", out) == 0
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        capsys.readouterr()
        assert run("ipg", "--frames", f"{bundles}/frame_0000", "--out", out) == 3
        err = capsys.readouterr().err
        held = out / "frame_0000" / "ipg.json" if first == "ipg" else out / "run.json"
        assert f"({held})" in err and "Traceback" not in err
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

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
        assert exc.value.code == 3
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("mask_1.json", lambda path: path.write_text('{"box_id": ')),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.pop("score"))),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(pred_box=[5, 5, 5, 9]))),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(score=-0.5))),
            ("mask_1.f32", lambda path: path.write_bytes(np.full(16, np.nan, "<f4").tobytes())),
            # float32 signalling NaNs, which raise the invalid flag as they are widened.
            ("mask_1.f32", lambda path: path.write_bytes(np.full(16, 0x7FA00000, "<u4").tobytes())),
            # Still 16 values, so the map reads, but not in the 4x4 of mask_0.
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(shape=[2, 8]))),
            ("mask_1.json", lambda path: edit_json(path, lambda m: m.update(box_id=65536))),
        ],
        ids=["bad-json", "missing-key", "degenerate-box", "negative-score", "non-finite-map",
             "signalling-nan-map", "shape-mismatch", "box-id-65536"],
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

    @pytest.mark.parametrize("bounds", [["1", "2", "3", "4"], [0, 0, True, True]],
                             ids=["strings", "bools"])
    def test_non_numeric_box_bounds_exit_3(self, bundles, tmp_path, capsys, rng, bounds):
        # Strings compare, so only a type check stops them before box_iou.
        bundle = bundles / "frame_0001"
        box = json.loads((bundle / "boxes.json").read_text())[0]
        write_mask_predictions(bundle, [(box["box_id"], MaskPrediction(
            prob_map=rng.uniform(0, 1, (4, 4)), score=0.5, pred_box=tuple(box["bounds"])))])
        edit_json(bundle / "boxes.json", lambda boxes: boxes[0].update(bounds=bounds))
        out = tmp_path / "o"
        assert run("ipg", "--frames", f"{bundles}/*", "--out", out) == 3
        err = capsys.readouterr().err
        assert f"{bundle / 'boxes.json'}: " in err and "Traceback" not in err
        assert not list(out.glob("frame_*"))

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
FUZZ_JSON = ("manifest.json", "boxes.json", "calibration.json", "masks/mask_0.json")
# What a JSON leaf is replaced with: each is of the wrong type, out of some
# leaf's range, or a valid value in a leaf that is not its default.
LEAF_VALUES = [True, "1", math.inf, -math.inf, -1, 0, None, [], {}, 1.5, 2**70, math.nan]


def leaves(payload, path=()) -> list[tuple]:
    """The key path of every scalar in a JSON payload."""
    if isinstance(payload, (dict, list)):
        items = payload.items() if isinstance(payload, dict) else enumerate(payload)
        return [leaf for key, value in items for leaf in leaves(value, (*path, key))]
    return [path]


def replaced(payload, path: tuple, value):
    """A copy of a JSON payload with ``value`` at the leaf ``path``."""
    payload = copy.deepcopy(payload)
    *parents, key = path
    node = payload
    for k in parents:
        node = node[k]
    node[key] = value
    return payload


def run_quietly(*args) -> tuple[int, str]:
    """``main``'s exit code and stderr, with its stdout discarded."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = run(*args)
    return rc, stderr.getvalue()


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
    """Each bundle file in turn is dropped, truncated, has bytes flipped or,
    for a JSON file, has one leaf replaced by one of LEAF_VALUES. A run (ipg
    for the masks/ files, pipeline for the rest) ends with exit 2 or 3 and no
    traceback, or, where the damage leaves a well-formed bundle, with exit 0.
    An exit 3 names the bundle, and a refused run writes nothing."""

    @settings(max_examples=200, deadline=None)
    @given(
        damage=st.one_of(
            st.tuples(st.sampled_from(FUZZ_REQUIRED + FUZZ_OPTIONAL + FUZZ_MASKS),
                      st.sampled_from(["drop", "truncate", "corrupt"])),
            st.tuples(st.sampled_from(FUZZ_JSON), st.just("leaf")),
        ),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
                       min_size=1, max_size=4),
        value=st.sampled_from(LEAF_VALUES),
    )
    def test_damaged_bundle_exits_cleanly(self, fuzz_bundle, damage, cut, flips, value):
        name, action = damage
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
            elif action == "leaf":  # cut picks the leaf
                payload = json.loads(data)
                paths = leaves(payload)
                path.write_text(json.dumps(replaced(payload, paths[int(cut * len(paths))], value)))
                expected = {0, 3}
            else:
                for where, mask in flips:
                    data[int(where * len(data))] ^= mask
                path.write_bytes(bytes(data))
                expected = {0, 3}
            out = Path(tmp) / "out"
            command = "ipg" if name in FUZZ_MASKS else "pipeline"
            rc, err = run_quietly(command, "--frames", f"{frames}/*", "--out", out)
            assert rc in expected, err
            assert "Traceback" not in err
            if rc == 3:
                assert str(bundle) in err
                assert not any(p.is_file() for p in out.rglob("*"))


# Every leaf of a tiny scene config and of the default pipeline config.
TINY_SCENE = json.loads(json.dumps({**SceneConfig().to_dict(), "beams": 4, "columns": 64}))
PIPELINE = json.loads(json.dumps(PipelineConfig().to_dict()))
CONFIG_LEAVES = [("synth", path) for path in leaves(TINY_SCENE)] + \
                [("pipeline", path) for path in leaves(PIPELINE)]


@pytest.mark.parametrize("command, path", CONFIG_LEAVES,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, p in CONFIG_LEAVES])
def test_config_leaf_exits_cleanly(fuzz_bundle, tmp_path, command, path):
    """The leaf, replaced by each of LEAF_VALUES in turn: exit 0, or exit 3
    naming the config file with nothing written, and never a traceback."""
    for k, value in enumerate(LEAF_VALUES):
        config, out = tmp_path / f"config_{k}.json", tmp_path / f"out_{k}"
        config.write_text(json.dumps(replaced(TINY_SCENE if command == "synth" else PIPELINE,
                                              path, value)))
        if command == "synth":
            rc, err = run_quietly("synth", "--out", out, "--config", config, "--num-frames", "1",
                                  "--epochs", "1")
        else:
            rc, err = run_quietly("pipeline", "--config", config, "--frames", fuzz_bundle,
                                  "--out", out)
        assert rc in (0, 3), (value, err)
        assert "Traceback" not in err
        if rc == 3:
            assert f"{config}: " in err, (value, err)
            assert not out.exists()
