"""Benchmark of `wlf pipeline` on corpora made by `wlf synth`.

    python3 perfbench/run.py --workload fleet-32x512 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
Every run synthesises its corpus from ``--seed`` as several shards, each
written by one `wlf synth` child. With ``--trace 0`` it then runs one
`wlf pipeline` child per shard, round robin, until every shard ran once and
``--seconds`` have passed, times the host probe of ``probe.py`` between
children, and reports the end-to-end metrics, with its timings scaled by
how much slower than the reference host the probe ran. With
``--trace 1`` it runs the first shards in-process, untraced and under the
span tracer of ``spans.py``, and reports the per-layer metrics. Every output
file but ``run.json`` is hashed and compared with a reference: the one in
``perfbench/reference/`` for the default seed, otherwise the first run of
each shard. The last line of standard output is one JSON object; a readable
summary goes to standard error, and each result, with the versions it ran
on, is appended to ``.bench_build/perfbench/results.jsonl``. NOTES.md says
why the workloads are what they are.
"""

from __future__ import annotations

import os

# The program runs with its own defaults: no inherited thread-count or
# logging overrides, for the children and for the in-process traced run.
STRIPPED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WLF_LOG")
for _var in STRIPPED_ENV:
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYER_METRICS, Tracer, TraceError, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".bench_build" / "perfbench"
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 0
# Benchmark seed s synthesises scene seeds s*SEED_STRIDE + i, so the corpora of
# two benchmark seeds share no frame.
SEED_STRIDE = 1000
VOTE_EPOCHS = 4
SCORE_SIGMA = 0.2
STARTUP_PROBES = 3
# A traced run covers this many shards, three times each.
TRACE_SHARDS = 2
CHILD_TIMEOUT_S = 150.0
# End-to-end runs use one thread: on a shared 2-vCPU host, runs of the frame
# pool followed the other tenants' load (NOTES.md). The traced runs measure
# the pool.
THREADS = 1
# Host speed, from probe.py. After each child the probe runs for
# PROBE_SHARE of the child's wall, so a third of a run measures the host.
# PROBE_REFERENCE_S is one probe unit on the 2-vCPU Xeon VM the benchmark was
# made on; a run's timings are reported at that speed (NOTES.md).
PROBE_SHARE = 0.5
PROBE_REFERENCE_S = 0.12


@dataclass(frozen=True)
class Workload:
    name: str
    shards: int
    frames_per_shard: int
    scene: dict


# A run's corpus is `shards` separate `wlf synth` outputs, and one
# `wlf pipeline` invocation reads one shard. Many distinct frames per run keep
# the spread of the figures across seeds small. Why each workload exists, and
# what each layer metric should move on it, is in NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet-32x512", 8, 20, {}),
        Workload(
            "sensor-64x2048",
            6,
            4,
            {"beams": 64, "columns": 2048, "vehicles": [4, 4], "vehicle_distance": [12.0, 20.0]},
        ),
        Workload(
            "crowd-64x1024",
            8,
            6,
            {
                "beams": 64,
                "columns": 1024,
                "vehicles": [0, 0],
                "pedestrians": [8, 12],
                "cyclists": [4, 8],
                "pedestrian_distance": [3.5, 14.0],
                "cyclist_distance": [4.0, 16.0],
                "min_separation": 1.2,
                "azimuth_deg": [-40.0, 40.0],
            },
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # STRIPPED_ENV is already gone
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def run_child(args: list[str]) -> Child:
    """Run ``wlf <args>`` and account for this child alone with wait4."""
    WORK.mkdir(parents=True, exist_ok=True)
    err_path = WORK / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "wlf.cli", *args],
            cwd=REPO,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


def synthesise(w: Workload, scene_seed: int, frames: int, corpus: Path) -> float:
    """Write one shard with `wlf synth`; returns the child's wall time."""
    shutil.rmtree(corpus, ignore_errors=True)
    args = [
        "synth", "--out", str(corpus), "--seed", str(scene_seed),
        "--num-frames", str(frames), "--epochs", str(VOTE_EPOCHS), "--score-sigma", str(SCORE_SIGMA),
    ]
    if w.scene:
        scene = WORK / f"{w.name}.scene.json"
        scene.write_text(json.dumps(w.scene))
        args += ["--config", str(scene)]
    child = run_child(args)
    if child.returncode != 0:
        raise BenchError(f"wlf synth exited {child.returncode}: {child.stderr}")
    return child.wall_s


def hash_outputs(out: Path) -> dict[str, str]:
    """sha256 of every output file except run.json, which holds wall times."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run.json"
    }


def expected_files(frames: int) -> set[str]:
    names = {"metrics.json", "metrics.txt"}
    for i in range(frames):
        names |= {f"frame_{i:04d}/sem.i32", f"frame_{i:04d}/inst.i32"}
    return names


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def load_reference(w: Workload, seed: int, frames: int) -> dict[str, dict[str, str]]:
    """Stored hashes per shard for the default seed; empty means the first run
    of each shard decides."""
    if seed != DEFAULT_SEED or frames != w.frames_per_shard:
        return {}
    path = reference_path(w)
    if not path.is_file():
        raise BenchError(f"missing reference {path}; create it with --update-reference")
    ref = json.loads(path.read_text())
    if (ref["seed"], ref["shards"], ref["frames_per_shard"]) != (seed, w.shards, frames):
        raise BenchError(f"{path} does not describe this workload; rerun --update-reference")
    return ref["files"]


class Gate:
    """Counts invocations and checks each one's outputs against the reference."""

    def __init__(self, frames_per_shard: int, reference: dict[str, dict[str, str]]) -> None:
        self.expected = expected_files(frames_per_shard)
        self.reference = dict(reference)
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, shard: str, returncode: int, out: Path) -> bool:
        self.attempted += 1
        problem = None
        if returncode != 0:
            problem = f"exit code {returncode}"
        else:
            hashes = hash_outputs(out)
            if set(hashes) != self.expected:
                problem = f"output files differ from the expected set ({len(hashes)} files)"
            elif hashes != (ref := self.reference.setdefault(shard, hashes)):
                bad = sorted(k for k in hashes if hashes[k] != ref.get(k))
                problem = f"{len(bad)} output files differ from the reference, first {bad[0]}"
        if problem:
            self.failed += 1
            log(f"FAILED {label} on {shard}: {problem}")
        return problem is None


def run_pass(corpus: Path, out: Path) -> Child:
    shutil.rmtree(out, ignore_errors=True)
    return run_child(["pipeline", "--frames", f"{corpus}/*", "--out", str(out), "--threads", str(THREADS)])


def quality(out: Path) -> tuple[float, float]:
    report = json.loads((out / "metrics.json").read_text())
    return float(report["miou"]), float(report["ap"])


def stats(values: list[float], value: float | None = None) -> dict:
    """Median, quartiles and count of ``values``; ``value`` is what gets
    reported and defaults to the median."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {"value": median if value is None else value, "median": median, "q1": q[0], "q3": q[2], "n": len(values)}


class HostProbe:
    """Client of ``probe.py``, which times a fixed unit of work between
    children; see there. Use it in a ``with`` block, which stops the probe."""

    def __init__(self) -> None:
        self.units: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            cwd=REPO,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> HostProbe:
        return self

    def __exit__(self, exc_type: type | None, *_: object) -> None:
        # The probe exits at the end of its input; on an error it is killed.
        try:
            if exc_type is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()

    def sample(self, seconds: float) -> None:
        """Time probe units, at least one, for ``seconds``."""
        self.proc.stdin.write(f"{seconds}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the host probe exited {self.proc.wait()}")
        self.units += json.loads(line)

    def slowdown(self) -> float:
        """Mean unit time of the run over the reference host's."""
        return statistics.fmean(self.units) / PROBE_REFERENCE_S


def scaled(s: dict, factor: float) -> dict:
    return {k: v * factor if k != "n" else v for k, v in s.items()}


def startup_times() -> list[float]:
    """Wall time of `wlf --help`: interpreter start and every module import."""
    times = []
    for _ in range(STARTUP_PROBES):
        child = run_child(["--help"])
        if child.returncode != 0:
            raise BenchError(f"wlf --help exited {child.returncode}: {child.stderr}")
        times.append(child.wall_s)
    return times


def measure_untraced(
    shards: dict[str, Path], frames: int, out: Path, gate: Gate, probe: HostProbe, seconds: float
) -> tuple[dict, dict[str, list[float]]]:
    """Closed loop, one `wlf pipeline` child at a time, round robin over the
    shards until every shard ran once and ``seconds`` have passed, with the
    host probe between children. Returns the unscaled end-to-end metrics
    other than setup_s, and the invocation walls of each shard."""
    passes: dict[str, list[Child]] = {name: [] for name in shards}
    scores: dict[str, tuple[float, float]] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for name, corpus in shards.items():
            child = run_pass(corpus, out)
            if child.returncode != 0:
                log(child.stderr)
            gate.check(f"invocation {rounds}", name, child.returncode, out)
            if child.returncode == 0:
                passes[name].append(child)
                scores.setdefault(name, quality(out))
            probe.sample(PROBE_SHARE * child.wall_s)
            if rounds > 1 and time.perf_counter() - start >= seconds:
                break
    if not all(passes.values()):
        raise BenchError("on some shard no invocation of wlf pipeline exited 0")
    # Every shard weighs the same, however often it ran before the time was
    # up: frames of the corpus over the summed mean wall of each shard.
    # Quality is the mean over shards, so every frame counts.
    walls = {name: [c.wall_s for c in v] for name, v in passes.items()}
    fps = [frames / w for v in walls.values() for w in v]
    rss = [statistics.median(c.peak_rss_mb for c in v) for v in passes.values()]
    miou, ap = ([s[i] for s in scores.values()] for i in (0, 1))
    dist = {
        "frames_per_s": stats(fps, frames * len(walls) / sum(statistics.fmean(v) for v in walls.values())),
        "peak_rss_mb": stats(rss),
        "miou": stats(miou, statistics.fmean(miou)),
        "ap": stats(ap, statistics.fmean(ap)),
    }
    return dist, walls


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: tuple[int, int] | None = None,
    update_reference: bool = False,
) -> dict:
    """One benchmark run; returns its record, with a distribution per metric.

    ``size`` overrides the workload's (shards, frames per shard).
    """
    w = WORKLOADS[name]
    n_shards, frames = size or (w.shards, w.frames_per_shard)
    if trace:
        n_shards = min(n_shards, TRACE_SHARDS)
    run_dir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    gate = Gate(frames, {} if update_reference else load_reference(w, seed, frames))
    shards = {f"shard{k}": run_dir / f"shard{k}" for k in range(n_shards)}
    try:
        startup = startup_times() if trace else []
        walls: dict[str, list[float]] = {}
        setup = [
            synthesise(w, seed * SEED_STRIDE + k * frames, frames, corpus)
            for k, corpus in enumerate(shards.values())
        ]
        if trace:
            layers = measure_traced(shards, run_dir, gate)
            layers["cli.startup_s"] = statistics.median(startup)
            dist = {k: stats([v]) for k, v in layers.items()}
        else:
            with HostProbe() as probe:
                dist, walls = measure_untraced(shards, frames, run_dir / "out", gate, probe, seconds)
            dist["setup_s"] = stats(setup)
            # One slowdown per run, from every probe unit of the run, scales
            # every timing of the run alike.
            slowdown = probe.slowdown()
            dist["frames_per_s_unscaled"] = dist["frames_per_s"]
            dist["setup_s_unscaled"] = dist["setup_s"]
            dist["frames_per_s"] = scaled(dist["frames_per_s"], slowdown)
            dist["setup_s"] = scaled(dist["setup_s"], 1.0 / slowdown)
            dist["host_slowdown"] = stats([u / PROBE_REFERENCE_S for u in probe.units], slowdown)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "shards": n_shards,
        "frames_per_shard": frames,
        "threads": THREADS,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "reference": gate.reference,
        "stats": dist,
        "invocation_walls": walls,
    }


def measure_traced(shards: dict[str, Path], run_dir: Path, gate: Gate) -> dict[str, float]:
    """In-process runs of every shard: untraced at 1 and at 2 threads, and
    traced at 1 thread, which gives the layer metrics. Interleaving the three
    per shard keeps the walls they are compared by close in time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wlf.pipeline  # noqa: PLC0415
    from wlf.config import PipelineConfig  # noqa: PLC0415

    tracer = Tracer()
    walls = {"untraced1": 0.0, "untraced2": 0.0, "traced1": 0.0}
    cpu = {"untraced1": 0.0, "untraced2": 0.0, "traced1": 0.0}
    for name, corpus in shards.items():
        for kind in walls:
            out = run_dir / kind
            shutil.rmtree(out, ignore_errors=True)
            cfg = PipelineConfig(frames=f"{corpus}/*", out_dir=str(out), threads=int(kind[-1]))
            cpu_start = time.process_time()
            if kind.startswith("traced"):
                _, root = tracer.run(wlf.pipeline.run_pipeline, cfg)
                walls[kind] += root.duration
            else:
                start = time.perf_counter()
                wlf.pipeline.run_pipeline(cfg)
                walls[kind] += time.perf_counter() - start
            cpu[kind] += time.process_time() - cpu_start
            gate.check(f"in-process {kind} run", name, 0, out)
    tracer.check_complete()
    layers = layer_metrics(tracer.spans)
    own = f"untraced{THREADS}"
    layers["pipeline.pool_speedup"] = walls["untraced1"] / walls["untraced2"]
    layers["cli.cpu_s"] = cpu[own]
    layers["cli.cpu_util"] = cpu[own] / walls[own]
    layers["trace.overhead_share"] = walls["traced1"] / walls["untraced1"] - 1.0
    return layers


def environment() -> dict:
    import numpy  # noqa: PLC0415

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (REPO / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


END_TO_END = {
    "frames_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "miou": "ratio",
    "ap": "ratio",
    "setup_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's output hashes as the reference for the default seed",
    )
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wlf" / "cli.py").is_file():
        log(f"error: no wlf sources under {SRC}")
        return 2
    if args.update_reference and (args.seed != DEFAULT_SEED or args.trace):
        log("error: --update-reference needs the default seed and --trace 0")
        return 2
    w = WORKLOADS[args.workload]
    try:
        record = measure(w.name, args.seed, args.seconds, bool(args.trace), None, args.update_reference)
    except (BenchError, TraceError) as exc:
        log(f"error: {exc}")
        return 1
    if args.update_reference and record["failed"] == 0:
        ref = {
            "seed": record["seed"],
            "shards": record["shards"],
            "frames_per_shard": record["frames_per_shard"],
            "files": record["reference"],
        }
        reference_path(w).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

    record["environment"] = environment()
    names = LAYER_METRICS if args.trace else END_TO_END
    metrics = {k: {"value": record["stats"][k]["value"], "unit": u} for k, u in names.items()}
    failed_frac = record["failed"] / record["attempted"]
    log(f"{w.name} seed {args.seed}: " + json.dumps(record["environment"]))
    for k, s in record["stats"].items():
        unit = names.get(k, "")
        log(f"{k:28s} {s['value']:<12.6g} {unit:6s} median {s['median']:<10.6g} q1 {s['q1']:<10.6g} "
            f"q3 {s['q3']:<10.6g} n {s['n']}")
    if args.trace:
        seconds = {
            k: v["value"]
            for k, v in record["stats"].items()
            if LAYER_METRICS.get(k) == "s" and not k.startswith(("pipeline.", "cli."))
        }
        order = sorted(seconds, key=seconds.get, reverse=True)
        log("layer seconds, largest first: " + ", ".join(f"{k} {seconds[k]:.3g}" for k in order[:6]))
    log(f"{'failed_frac':28s} {failed_frac:<12.6g} {'ratio':6s} {record['failed']} of {record['attempted']} invocations")
    del record["reference"]
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record | {"failed_frac": failed_frac}, sort_keys=True) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
