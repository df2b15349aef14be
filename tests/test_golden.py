"""The byte contract without the benchmark: the sha256 of every file that
`wlf synth` and four runs over its corpus write, run.json aside (it holds
wall times), against the committed ``golden_sha256.json``.

The corpus is three default frames of scene seed 5 with four vote epochs. The
runs are `pipeline` with every stage, the `spg` -> `pvc` -> `rsc` chain, each
stage starting from the last one's labels, and `eval` of the chain's labels.
A change that moves any of these bytes on purpose says why, and regenerates
the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

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


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run.json"
    }


def golden_run(work: Path) -> dict[str, dict[str, str]]:
    """Each written tree's file hashes, keyed by "corpus" and run name."""
    corpus = work / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "5", "--num-frames", "3"]) == 0
    hashes = {"corpus": tree_hashes(corpus)}
    for name, command, start in RUNS:
        argv = [command, "--frames", f"{corpus}/*", "--out", str(work / name)]
        if start is not None:
            argv += ["--labels", str(work / start)]
        assert main(argv) == 0, name
        hashes[name] = tree_hashes(work / name)
    return hashes


def test_outputs_match_golden_hashes(tmp_path):
    got = golden_run(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert list(got) == list(want)
    for tree in want:
        assert got[tree].keys() == want[tree].keys(), tree
        moved = sorted(f for f in want[tree] if got[tree][f] != want[tree][f])
        assert not moved, f"{tree}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        hashes = golden_run(Path(work))
    print(json.dumps(hashes, indent=1))
