"""Symmetries of the whole chain: the order of a bundle's points, the
order of its boxes and the split of a corpus into runs carry no meaning.

A `wlf pipeline` run over bundles whose per-point files are permuted, each
the same way, writes labels permuted that way and the same metrics.json. A
run over bundles whose boxes.json lists the boxes in another order writes
the same bytes. Two runs over disjoint halves of the bundles write the same
per-frame labels as one run over all of them. The corpus is four small
crowd scenes (16 x 256 raster), where pedestrians and cyclists overlap in
the image and many boxes have largest components of equal size. Each run
is made with every stage and without pvc, which overwrites most of the
instances that spg picks.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tree_hashes

from wlf.cli import main

CROWD_SCENE = {
    "beams": 16, "columns": 256, "vehicles": [0, 0], "pedestrians": [8, 12],
    "cyclists": [4, 8], "pedestrian_distance": [3.5, 14.0], "cyclist_distance": [4.0, 16.0],
    "min_separation": 1.2, "azimuth_deg": [-40.0, 40.0],
}

# The per-point files' element types, by suffix; each row is one point.
PER_POINT = {".f32": "<f4", ".u16": "<u2", ".i32": "<i4"}

STAGES = ["spg,pvc,rsc", "spg,rsc"]


def pipeline(frames: Path, out: Path, stages: str, pattern: str = "*") -> None:
    assert main(["pipeline", "--frames", f"{frames}/{pattern}", "--out", str(out),
                 "--stages", stages]) == 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """The bundles in ``frames/`` and a run over them per entry of STAGES,
    in a directory of that name."""
    root = tmp_path_factory.mktemp("symmetry")
    scene = root / "scene.json"
    scene.write_text(json.dumps(CROWD_SCENE))
    assert main(["synth", "--out", str(root / "frames"), "--config", str(scene), "--seed", "5",
                 "--num-frames", "4", "--epochs", "4", "--score-sigma", "0.2"]) == 0
    for stages in STAGES:
        pipeline(root / "frames", root / stages, stages)
    return root


def read_labels(run: Path, frame_id: str) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.fromfile(run / frame_id / f"{name}.i32", dtype="<i4")
                 for name in ("sem", "inst"))


@pytest.mark.parametrize("stages", STAGES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_point_order(corpus, stages, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp) / "frames"
        shutil.copytree(corpus / "frames", frames)
        perms = {}
        for bundle in sorted(frames.iterdir()):
            perm = rng.permutation(json.loads((bundle / "manifest.json").read_text())["num_points"])
            for path in bundle.iterdir():
                if path.suffix in PER_POINT:
                    rows = np.fromfile(path, dtype=PER_POINT[path.suffix]).reshape(perm.size, -1)
                    rows[perm].tofile(path)
            perms[bundle.name] = perm
        pipeline(frames, Path(tmp) / "out", stages)
        for frame_id, perm in perms.items():
            got = read_labels(Path(tmp) / "out", frame_id)
            want = read_labels(corpus / stages, frame_id)
            for g, w in zip(got, want):
                assert np.array_equal(g, w[perm]), frame_id
        metrics = (Path(tmp) / "out" / "metrics.json").read_bytes()
        assert metrics == (corpus / stages / "metrics.json").read_bytes()


@pytest.mark.parametrize("stages", STAGES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_box_order(corpus, stages, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        frames = Path(tmp) / "frames"
        shutil.copytree(corpus / "frames", frames)
        for path in frames.glob("*/boxes.json"):
            boxes = json.loads(path.read_text())
            path.write_text(json.dumps([boxes[k] for k in rng.permutation(len(boxes))]))
        pipeline(frames, Path(tmp) / "out", stages)
        assert tree_hashes(Path(tmp) / "out") == tree_hashes(corpus / stages)


@pytest.mark.parametrize("stages", STAGES)
def test_frame_split(corpus, stages, tmp_path):
    # Interleaved halves, so that neither run holds a contiguous range.
    halves = ["frame_000[02]", "frame_000[13]"]
    split = {}
    for k, pattern in enumerate(halves):
        pipeline(corpus / "frames", tmp_path / str(k), stages, pattern)
        for frame in (tmp_path / str(k)).glob("*/sem.i32"):
            split[frame.parent.name] = frame.parent
    whole = sorted(frame.parent.name for frame in (corpus / stages).glob("*/sem.i32"))
    assert sorted(split) == whole and len(whole) == 4
    for frame_id in whole:
        for name in ("sem.i32", "inst.i32"):
            assert (split[frame_id] / name).read_bytes() == \
                (corpus / stages / frame_id / name).read_bytes(), (frame_id, name)
