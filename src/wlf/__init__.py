"""wlf: weak-label factory for LiDAR + camera instance segmentation.

Generates, refines, and evaluates pseudo instance/semantic labels for point
clouds (and fused pseudo masks for images) starting from nothing but 2D box
annotations, with a synthetic scene oracle for verification.
"""

__version__ = "0.1.0"

from .clustering import ClassRadii, Components, ccl_cluster, max_component
from .config import PipelineConfig
from .frames import (
    Box2D,
    Calibration,
    Frame,
    ProjectedPoints,
    back_project,
    crop_frustum,
    project_points,
)
from .losses import LossWeights, combine_losses, cscs, cscs_grad_student
from .mask_fusion import (
    IpgConfig,
    MaskPrediction,
    binarize,
    box_iou,
    fusion_weights,
    pseudo_loss,
    pseudo_loss_grad,
    weight_masks,
)
from .metrics import (
    InstanceGT,
    InstancePred,
    MetricReport,
    instance_ap,
)
from .pipeline import run_pipeline
from .range_image import (
    DcsConfig,
    RangeImage,
    RingSegments,
    build_range_image,
    dcs_dynamic,
    dcs_rows,
)
from .ring_correct import RscConfig, rsc_correct
from .spatial import (
    PseudoLabels,
    frustum_semantic,
    generate_labels,
    refine_by_segments,
    trinary_from_prop,
)
from .synth import CLASS_NAMES, Scene, SceneConfig, fabricate_scores, generate_scene
from .voting import PvcConfig, foreground_score, vote_correct

__all__ = [
    "__version__",
    "Box2D",
    "Calibration",
    "ClassRadii",
    "Components",
    "DcsConfig",
    "Frame",
    "InstanceGT",
    "InstancePred",
    "IpgConfig",
    "LossWeights",
    "MaskPrediction",
    "MetricReport",
    "PipelineConfig",
    "ProjectedPoints",
    "PseudoLabels",
    "PvcConfig",
    "RangeImage",
    "RingSegments",
    "RscConfig",
    "Scene",
    "SceneConfig",
    "CLASS_NAMES",
    "back_project",
    "binarize",
    "box_iou",
    "build_range_image",
    "ccl_cluster",
    "combine_losses",
    "crop_frustum",
    "cscs",
    "cscs_grad_student",
    "dcs_dynamic",
    "dcs_rows",
    "fabricate_scores",
    "foreground_score",
    "frustum_semantic",
    "fusion_weights",
    "generate_labels",
    "generate_scene",
    "instance_ap",
    "max_component",
    "project_points",
    "pseudo_loss",
    "pseudo_loss_grad",
    "refine_by_segments",
    "rsc_correct",
    "run_pipeline",
    "trinary_from_prop",
    "vote_correct",
    "weight_masks",
]
