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

import pytest

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
    assert 0 < layers["frames.in_frustum_share"] < 1


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
    # Only `wlf synth` needs the scene generator; every other command would
    # pay for compiling it at start-up.
    code = "import sys, wlf.cli; print('wlf.synth' in sys.modules)"
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
