"""Command-line interface.

Subcommands:
    synth      generate synthetic frame bundles with ground truth and votes
    pipeline   full label generation over bundles (stages configurable)
    spg        pipeline with only the spg stage
    pvc        pipeline with only pvc, starting from --labels
    rsc        pipeline with only rsc, starting from --labels
    ipg        fuse 2D mask predictions per annotated box
    eval       pipeline with no stage, scoring --labels against ground truth

Exit codes: 0 ok, 2 missing input, 3 malformed config or bundle or a usage
error, 4 internal invariant violation. Set WLF_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

# The runtime makes no BLAS call worth a thread, and OpenBLAS starts a worker
# pool at `import numpy` unless told otherwise first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .bundle import (  # noqa: E402
    BundleError,
    read_frame_bundle,
    read_mask_predictions,
    write_frame_bundle,
    write_json,
    write_votes,
)
from .config import ConfigError, PipelineConfig  # noqa: E402
from .mask_fusion import binarize, pseudo_loss, weight_masks  # noqa: E402
from .pipeline import (  # noqa: E402
    MissingInputError,
    RunResult,
    discover_bundles,
    read_manifests,
    run_pipeline,
)

# Move the ~22k objects made by the imports above into the permanent
# generation. The collections at interpreter exit (and any full collection
# during a run) then skip them: a short `wlf` child otherwise spends about
# 30 ms of its exit walking its own import heap. Objects made later are
# collected as before.
gc.freeze()

logger = logging.getLogger("wlf")

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error, so that exit 2 means missing input alone;
    subparsers are made of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _setup_logging() -> None:
    level = os.environ.get("WLF_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _flags(**values) -> dict:
    """The flag values that were given; an absent flag leaves its field alone."""
    return {k: v for k, v in values.items() if v is not None}


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    stages = None if args.stages is None else tuple(s for s in args.stages.split(",") if s)
    cfg = replace(cfg, **_flags(frames=args.frames, out_dir=args.out, threads=args.threads,
                                stages=stages))
    if not cfg.out_dir:
        raise ConfigError("no output directory (use --out or the config file)")
    return cfg


def cmd_synth(args: argparse.Namespace) -> int:
    # Only this command needs the scene generator; the others skip its import.
    from .synth import CLASS_NAMES, SceneConfig, fabricate_votes, generate_scene  # noqa: PLC0415

    if args.num_frames < 0 or args.epochs < 0:
        raise ConfigError("--num-frames and --epochs must be >= 0")
    text = None
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise MissingInputError(f"scene config not found: {path}")
        text = path.read_text()
    try:
        scene_cfg = SceneConfig() if text is None else SceneConfig.from_dict(json.loads(text))
        scene_cfg = replace(scene_cfg, **_flags(seed=args.seed, score_sigma=args.score_sigma))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene config: {exc}") from exc
    out = Path(args.out)
    # A rerun with fewer frames or epochs would leave the old ones behind.
    existing = sorted(out.glob("*/manifest.json"))
    if existing:
        raise ConfigError(f"{out} already holds frame bundle {existing[0].parent}; use a new --out")
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.num_frames):
        cfg_i = replace(scene_cfg, seed=scene_cfg.seed + i)
        scene = generate_scene(cfg_i, frame_id=f"frame_{i:04d}")
        bundle = write_frame_bundle(
            out / scene.frame.frame_id,
            scene.frame,
            scene.calibration,
            scene.boxes,
            CLASS_NAMES,
            beams=cfg_i.beams,
            columns=cfg_i.columns,
        )
        for epoch in range(args.epochs):
            votes = fabricate_votes(
                scene.frame.gt_semantic, len(CLASS_NAMES), cfg_i.score_sigma, cfg_i.seed, epoch
            )
            write_votes(bundle, epoch, votes)
        write_json(bundle / "scene.json", cfg_i.to_dict())
    print(f"wrote {args.num_frames} frame bundles to {out}")
    return EXIT_OK


def _run(args: argparse.Namespace) -> RunResult:
    result = run_pipeline(_load_pipeline_config(args), getattr(args, "labels", None))
    print(f"processed {len(result.frame_ids)} frames -> {result.out_dir}")
    if result.report is not None:
        print(result.report.format_table(result.class_names))
    return result


def cmd_pipeline(args: argparse.Namespace) -> int:
    _run(args)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if _run(args).report is None:
        raise MissingInputError("no bundle has ground-truth labels to score")
    return EXIT_OK


def cmd_ipg(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    out_root = Path(cfg.out_dir)
    bundles = discover_bundles(cfg.frames)
    read_manifests(bundles)
    # Read, check and fuse every bundle before the first write, so a bad
    # bundle late in the glob leaves no outputs behind.
    fused_frames = []
    for bundle in bundles:
        frame, _, boxes, _ = read_frame_bundle(bundle)
        grouped = read_mask_predictions(bundle)
        if not grouped:
            continue
        box_by_id = {b.box_id: b for b in boxes}
        maps, report = [], {}
        for box_id in sorted(grouped):
            box = box_by_id.get(box_id)
            if box is None:
                logger.warning("%s: masks reference unknown box %d", bundle, box_id)
                continue
            preds = grouped[box_id]
            fused = weight_masks(preds, box, cfg.ipg.k)
            target = binarize(fused, cfg.ipg)
            losses = [pseudo_loss(p.prob_map, target) for p in preds]
            maps.append((box_id, fused, target))
            report[str(box_id)] = {
                "num_predictions": len(preds),
                "mean_pseudo_loss": float(np.mean(losses)),
            }
        fused_frames.append((frame.frame_id, maps, report))
    if not fused_frames:
        raise MissingInputError("no bundles with masks/ found")
    for frame_id, maps, report in fused_frames:
        out_dir = out_root / frame_id
        out_dir.mkdir(parents=True, exist_ok=True)
        for box_id, fused, target in maps:
            fused.astype("<f4").tofile(out_dir / f"fused_{box_id}.f32")
            target.astype("<i1").tofile(out_dir / f"trinary_{box_id}.i8")
        write_json(out_dir / "ipg.json", report)
    print(f"fused masks for {len(fused_frames)} frames -> {out_root}")
    return EXIT_OK


def _add_common(
    parser: argparse.ArgumentParser, labels: bool = False, threads: bool = True
) -> None:
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--frames", help="glob of frame bundle directories")
    parser.add_argument("--out", help="output directory")
    if threads:
        parser.add_argument("--threads", type=int, default=None)
    if labels:
        parser.add_argument(
            "--labels", required=True, help="earlier run to start from: <labels>/<frame_id>/*.i32"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wlf", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic frame bundles")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="scene config JSON")
    p.add_argument("--num-frames", type=int, default=8)
    p.add_argument("--epochs", type=int, default=4, help="teacher vote epochs to fabricate")
    p.add_argument("--score-sigma", type=float, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="full label generation")
    _add_common(p)
    p.add_argument("--stages", help="comma list from spg,pvc,rsc (default: all)")
    p.set_defaults(func=cmd_pipeline)

    # Stage commands: the pipeline with a fixed stage list.
    for name, stages, func, help_text in (
        ("spg", "spg", cmd_pipeline, "spatial refinement only"),
        ("pvc", "pvc", cmd_pipeline, "vote-correct existing labels"),
        ("rsc", "rsc", cmd_pipeline, "ring-segment-correct existing labels"),
        ("eval", "", cmd_eval, "score existing labels against ground truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, labels=name != "spg")
        p.set_defaults(func=func, stages=stages)

    p = sub.add_parser("ipg", help="fuse 2D mask predictions per box")
    _add_common(p, threads=False)
    p.set_defaults(func=cmd_ipg, stages=None, threads=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MissingInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ConfigError, BundleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
