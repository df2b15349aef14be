"""The benchmark tracer's wrapped names and the experiment scripts still fit
the package: both reach into it by name, so a rename would otherwise only
show when they run."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("compare_label_quality.py", ["--frames", "2"], "+rsc"),
        ("fuse_masks_demo.py", [], "mean pseudo loss"),
    ],
)
def test_script_runs(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
