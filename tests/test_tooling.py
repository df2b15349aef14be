"""The benchmark tracer's wrapped names, the experiment scripts and the
README's library example still fit the package: each reaches into it by
name, so a rename would otherwise only show when they run. The runtime
imports nothing beyond numpy."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wlf.bundle import read_labels
from wlf.cli import main
from wlf.config import PipelineConfig
from wlf.pipeline import run_pipeline

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def params(module: str, attr: str) -> list[str]:
    return list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)


class TestTracedNames:
    def test_every_wrapped_name_is_callable(self):
        for module, attr, _, _ in load_spans().WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"

    def test_counter_argument_positions(self):
        # The span counters read these positional arguments.
        assert params("wlf.pipeline", "process_frame")[0] == "bundle_dir"
        assert params("wlf.pipeline", "read_frame_bundle")[0] == "directory"
        assert params("wlf.pipeline", "vote_correct")[2] == "labels"
        assert params("wlf.pipeline", "rsc_correct")[0] == "pred"
        assert params("wlf.pipeline", "read_votes")[:2] == ["directory", "epoch"]


def test_traced_run_counts_every_layer(tmp_path):
    # The counters read fields of the program's results (Components.num,
    # RingSegments.num_segments, ...), which only a traced run exercises.
    spans = load_spans()
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--num-frames", "2", "--score-sigma", "0.2"]) == 0
    tracer = spans.Tracer()
    tracer.run(run_pipeline, PipelineConfig(frames=f"{corpus}/*", out_dir=str(tmp_path / "out")))
    tracer.check_complete()
    layers = spans.layer_metrics(tracer.spans)
    assert set(layers) <= set(spans.LAYER_METRICS)
    assert all(math.isfinite(v) and v >= 0 for v in layers.values()), layers
    for name in ("range_image.segments", "clustering.ccl_calls", "clustering.components",
                 "metrics.pred_instances", "metrics.gt_instances"):
        assert layers[name] > 0, name
    # The crop must count every point of the frame, not only those in the image.
    manifests = corpus.glob("*/manifest.json")
    corpus_points = sum(json.loads(m.read_text())["num_points"] for m in manifests)
    assert sum(s.counts["points"] for s in tracer.spans if s.name == "frames.crop") == corpus_points
    # spg clusters only the in-box points but labels all of them, so
    # spatial.ignore_share keeps every point of the corpus as its denominator.
    labelled = sum(s.counts["points"] for s in tracer.spans if s.name == "spatial.labels")
    assert labelled == corpus_points
    assert 0 < layers["frames.in_frustum_share"] < 1


def test_traced_stage_changes_match_the_labels(tmp_path):
    # The pvc and rsc counters compare a stage's input labels with its result
    # after the call, so a stage that wrote into its input would count 0
    # without any error. The counts must be those of the stage commands'
    # labels, each stage starting from the last one's.
    spans = load_spans()
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--num-frames", "2", "--score-sigma", "0.2"]) == 0
    tracer = spans.Tracer()
    tracer.run(run_pipeline, PipelineConfig(frames=f"{corpus}/*", out_dir=str(tmp_path / "all")))
    layers = spans.layer_metrics(tracer.spans)
    for stage, start in (("spg", None), ("pvc", "spg"), ("rsc", "pvc")):
        argv = [stage, "--frames", f"{corpus}/*", "--out", str(tmp_path / stage)]
        assert main(argv + (["--labels", str(tmp_path / start)] if start else [])) == 0
    pvc_changed = rsc_changed = 0
    for frame in sorted(p.name for p in corpus.iterdir()):
        spg, pvc, rsc = (read_labels(tmp_path / stage / frame) for stage in ("spg", "pvc", "rsc"))
        pvc_changed += np.count_nonzero((spg[0] != pvc[0]) | (spg[1] != pvc[1]))
        rsc_changed += np.count_nonzero(pvc[0] != rsc[0])
    assert layers["voting.changed_points"] == pvc_changed > 0
    assert layers["ring_correct.changed_points"] == rsc_changed > 0


def src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_runtime_needs_only_numpy():
    # Installed packages (scipy among them) would otherwise creep in unnoticed.
    # Every module is imported, the lazily imported ones included.
    code = (
        "import importlib, json, pkgutil, sys; before = set(sys.modules); import wlf; "
        "[importlib.import_module(m.name) for m in pkgutil.iter_modules(wlf.__path__, 'wlf.')]; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["numpy", "wlf"]


def test_cli_import_leaves_synth_out():
    # Only `wlf synth` needs the scene generator and only `wlf ipg` the mask
    # fusion, no command needs hashlib (OpenSSL, about 3.6 MiB of RSS), and
    # logging waits for the first warning; every other command would pay
    # for them at start-up.
    lazy = ["wlf.synth", "hashlib", "logging", "wlf.mask_fusion"]
    code = f"import sys, wlf.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_label_io_and_rsc_load_no_clustering():
    # Label files and ring-segment correction are plain arrays, so neither
    # loads spg, the clustering or the range image.
    heavy = ["wlf.spatial", "wlf.clustering", "wlf.range_image"]
    code = f"import sys, wlf.bundle, wlf.ring_correct; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_field_readers_load_no_other_module():
    # Every module reads its JSON leaves through wlf.fields, so it imports
    # nothing of wlf that could import it back.
    code = "import sys, wlf.fields; print(sorted(m for m in sys.modules if m.startswith('wlf')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['wlf', 'wlf.fields']"


def test_spg_and_pvc_load_no_frames():
    # spg and pvc read the box-class table, a plain array, not the boxes.
    code = "import sys, wlf.spatial, wlf.voting; print('wlf.frames' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_freezes_its_heap():
    # Frozen, the import-time objects are skipped by the collections at
    # interpreter exit, which every short `wlf` child would otherwise pay for.
    code = "import gc, wlf.cli; print(gc.get_freeze_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_run_ends_without_openssl(tmp_path):
    # run.json's config hash comes from the interpreter's own sha256; hashlib
    # would map OpenSSL (about 3.6 MiB of RSS) after the last frame, on top
    # of whatever heap the frames left.
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--num-frames", "1"]) == 0
    argv = ["pipeline", "--frames", f"{corpus}/*", "--out", str(out)]
    code = (f"import sys, wlf.cli; assert wlf.cli.main({argv!r}) == 0; "
            "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads((out / "run.json").read_text())["config_hash"]


def test_quiet_run_imports_no_logging_or_2d_branch(tmp_path):
    # logging is imported at a run's first warning, and only `wlf ipg` needs
    # the mask fusion; a run that warns of nothing pays for neither.
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--num-frames", "2"]) == 0
    argv = ["pipeline", "--frames", f"{corpus}/*", "--out", str(out)]
    lazy = ["logging", "wlf.mask_fusion"]
    code = (f"import sys, wlf.cli; assert wlf.cli.main({argv!r}) == 0; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert json.loads((out / "metrics.json").read_text())["miou"] > 0


def test_one_thread_run_imports_no_pool(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--num-frames", "1"]) == 0
    argv = ["pipeline", "--frames", f"{corpus}/*", "--out", str(out), "--threads", "1"]
    code = (f"import sys, wlf.cli; assert wlf.cli.main({argv!r}) == 0; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (out / "frame_0000" / "sem.i32").is_file()


def cli_import_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in src_env().items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**env, **extra}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_cli_import_starts_no_blas_worker():
    # Left alone, OpenBLAS starts a pool of worker threads at `import numpy`.
    code = "import os, wlf.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_import_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_cli_import_keeps_explicit_blas_threads():
    code = "import os, wlf.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_import_env(OPENBLAS_NUM_THREADS="2"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("compare_label_quality.py", ["--frames", "2"], "+rsc"),
        ("fuse_masks_demo.py", [], "mean pseudo loss"),
    ],
)
def test_script_runs(script, args, expect):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
