"""Host-speed probe of the benchmark, run as its own child process.

    python3 perfbench/probe.py

Other tenants of a shared host slow the same work for minutes at a time,
and a slow spell moves every timing of a run alike. Between `wlf` children,
``run.py`` asks this process to time a fixed unit of work shaped like the
pipeline's: a union-find and dict remap in the interpreter, many numpy calls
on small arrays, and numpy sorts, uniques and gathers on large ones. Its
inputs are fixed, so it does the same work whatever the program under test
does. It lives in a process of its own so that its memory stays out of the
peak RSS that ``os.wait4`` reports for the `wlf` children.

Each line on standard input is a number of seconds; the probe times units,
at least one, until that many seconds have passed and answers with one line,
the JSON list of the unit times. It exits at the end of its input.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

NODES = 30_000
rng = np.random.default_rng(0)
PAIRS = (rng.integers(0, NODES, 40_000).tolist(), rng.integers(0, NODES, 40_000).tolist())
SMALLS = [rng.integers(0, 1000, int(k)) for k in rng.integers(1, 40, 400)]
VALUES, IDS = rng.random(200_000), rng.integers(0, 5000, 200_000)
POINTS = rng.random((15_000, 3))
ENDS = (rng.integers(0, 15_000, 150_000), rng.integers(0, 15_000, 150_000))


def unit() -> None:
    parent = list(range(NODES))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(*PAIRS):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    remap: dict[int, int] = {}
    for i in range(NODES):
        remap.setdefault(find(i), len(remap))
    parts = []
    for m in SMALLS:
        iu, _ = np.triu_indices(m.shape[0], k=1)
        parts += [np.repeat(m, 3), np.tile(m, 2), m[iu]]
    np.concatenate(parts)
    np.sort(VALUES)
    np.unique(IDS)
    np.bincount(IDS)
    VALUES[IDS].sum()
    np.unique(np.floor(POINTS / 0.05).astype(np.int64), axis=0, return_inverse=True)
    ia, ib = ENDS
    np.flatnonzero(np.sum((POINTS[ia] - POINTS[ib]) ** 2, axis=1) <= 0.01)


def sample(seconds: float) -> list[float]:
    times = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        unit()
        now = time.perf_counter()
        times.append(now - start)
        if now >= end:
            return times


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(sample(float(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
