"""The byte contract without the benchmark: the sha256 of every file that
`wlf synth` and five runs over each of its corpora write, run.json aside (it
holds wall times), against the committed ``golden_sha256.json``.

The default corpus is three default frames of scene seed 5 with four vote
epochs. The crowd corpus is two frames of the benchmark's crowd scene on a
32 x 512 raster, whose pedestrians and cyclists are clustered at 0.1 and
0.15 m, with noisy votes. The runs are `pipeline` with every stage, the
`spg` -> `pvc` -> `rsc` chain, each stage starting from the last one's
labels, and `eval` of the chain's labels. A change that moves any of these
bytes on purpose says why, and regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

from conftest import tree_hashes

from wlf.cli import main

GOLDEN = Path(__file__).with_name("golden_sha256.json")

# (run, stage command, the run whose labels it starts from)
RUNS = [
    ("pipeline", "pipeline", None),
    ("spg", "spg", None),
    ("pvc", "pvc", "spg"),
    ("rsc", "rsc", "pvc"),
    ("eval", "eval", "rsc"),
]


# Each corpus's `wlf synth` flags and scene config (None: the default scene).
CORPORA = {
    "default": (["--seed", "5", "--num-frames", "3"], None),
    "crowd": (
        ["--seed", "5", "--num-frames", "2", "--score-sigma", "0.2"],
        {"beams": 32, "columns": 512, "vehicles": [0, 0], "pedestrians": [8, 12],
         "cyclists": [4, 8], "pedestrian_distance": [3.5, 14.0],
         "cyclist_distance": [4.0, 16.0], "min_separation": 1.2, "azimuth_deg": [-40.0, 40.0]},
    ),
}


def golden_run(work: Path, flags: list[str], scene: dict | None) -> dict[str, dict[str, str]]:
    """Each written tree's file hashes, keyed by "corpus" and run name."""
    corpus = work / "corpus"
    if scene is not None:
        (work / "scene.json").write_text(json.dumps(scene))
        flags = [*flags, "--config", str(work / "scene.json")]
    assert main(["synth", "--out", str(corpus), *flags]) == 0
    hashes = {"corpus": tree_hashes(corpus)}
    for name, command, start in RUNS:
        argv = [command, "--frames", f"{corpus}/*", "--out", str(work / name)]
        if start is not None:
            argv += ["--labels", str(work / start)]
        assert main(argv) == 0, name
        hashes[name] = tree_hashes(work / name)
    return hashes


def golden_runs(work: Path) -> dict[str, dict[str, dict[str, str]]]:
    """``golden_run``'s hashes of each corpus, keyed by its CORPORA name."""
    hashes = {}
    for name, (flags, scene) in CORPORA.items():
        (work / name).mkdir()
        hashes[name] = golden_run(work / name, flags, scene)
    return hashes


def test_outputs_match_golden_hashes(tmp_path):
    got = golden_runs(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert list(got) == list(want)
    for corpus in want:
        assert list(got[corpus]) == list(want[corpus]), corpus
        for tree, files in want[corpus].items():
            assert got[corpus][tree].keys() == files.keys(), (corpus, tree)
            moved = sorted(f for f in files if got[corpus][tree][f] != files[f])
            assert not moved, f"{corpus}/{tree}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        hashes = golden_runs(Path(work))
    print(json.dumps(hashes, indent=1))
