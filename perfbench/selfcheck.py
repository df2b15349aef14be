"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Runs every workload through synth, pipeline and the output check, untraced
and traced, with two one-frame shards. Then it runs one more invocation,
flips one byte of a sem.i32 it wrote, and shows that the gate counts that
invocation as failed. Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys

import run

SEED = 7


def check_workloads() -> None:
    for name in run.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, SEED, 0.0, trace, size=(2, 1))
            wanted = run.LAYER_METRICS if trace else run.END_TO_END
            missing = sorted(set(wanted) - set(record["stats"]))
            if missing:
                raise AssertionError(f"{name} trace={trace}: missing metrics {missing}")
            if record["failed"] or record["attempted"] < 2:
                raise AssertionError(f"{name} trace={trace}: {record['failed']} of {record['attempted']} failed")
            print(f"ok  {name} trace={int(trace)}: {record['attempted']} invocations checked", flush=True)


def check_flipped_byte() -> None:
    w = run.WORKLOADS["fleet-32x512"]
    work = run.WORK / "selfcheck"
    corpus, out = work / "shard0", work / "out"
    try:
        run.synthesise(w, SEED * run.SEED_STRIDE, 1, corpus)
        gate = run.Gate(1, {})
        child = run.run_pass(corpus, out)
        if not gate.check("clean invocation", "shard0", child.returncode, out):
            raise AssertionError("a clean invocation failed the gate")
        child = run.run_pass(corpus, out)
        sem = out / "frame_0000" / "sem.i32"
        data = bytearray(sem.read_bytes())
        data[len(data) // 2] ^= 0x01
        sem.write_bytes(bytes(data))
        if gate.check("invocation with a flipped byte", "shard0", child.returncode, out):
            raise AssertionError("a flipped byte in sem.i32 passed the gate")
        if (gate.attempted, gate.failed) != (2, 1):
            raise AssertionError(f"gate counted {gate.failed} of {gate.attempted}, expected 1 of 2")
        print("ok  a flipped byte in sem.i32 counts as 1 failed invocation of 2", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    check_workloads()
    check_flipped_byte()
    return 0


if __name__ == "__main__":
    sys.exit(main())
