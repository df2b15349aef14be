import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wlf import frames
from wlf.metrics import GT_INSTANCE, PRED_INSTANCE

# The point block of the ``small_blocks`` fixture.
SMALL_BLOCK = 4


def as_columns(points) -> np.ndarray:
    """The (3, N) ``xyz`` of (N, 3) points, one contiguous row per axis as
    the bundle reader returns it, but float64 (the reader's is float32)."""
    return np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 3).T)


def tree_hashes(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root`` but run.json, which holds wall
    times, keyed by its path relative to ``root``."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run.json"
    }


def ri_from_depth(depth) -> tuple[np.ndarray, np.ndarray]:
    """``(depth, cell)`` with one synthetic point per occupied cell, the points
    in scan order."""
    depth = np.asarray(depth, dtype=float)
    return depth.copy(), np.flatnonzero(np.isfinite(depth))


def random_range_image(rng: np.random.Generator, beams=4, columns=24, fill=0.7):
    depth = rng.uniform(2.0, 40.0, (beams, columns))
    depth[rng.random((beams, columns)) > fill] = np.nan
    return ri_from_depth(depth)


def instances_from_sets(frame_id: str, preds: list, gts: list) -> tuple:
    """A frame's ``(frame_id, preds, gts, inter)`` record built from point
    sets: ``preds`` as (class_id, indices, score), ``gts`` as (class_id, indices)."""
    inter = [[len(set(p[1]) & set(g[1])) for g in gts] for p in preds]
    return (
        frame_id,
        np.array([(k + 1, c, len(set(idx)), s) for k, (c, idx, s) in enumerate(preds)],
                 dtype=PRED_INSTANCE),
        np.array([(k + 1, c, len(set(idx))) for k, (c, idx) in enumerate(gts)], dtype=GT_INSTANCE),
        np.array(inter, dtype=np.int64).reshape(len(preds), len(gts)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_blocks(monkeypatch):
    """The front end's point block cut to ``SMALL_BLOCK`` points, so that a
    test frame spans many blocks."""
    monkeypatch.setattr(frames, "POINT_BLOCK", SMALL_BLOCK)
