"""Lane-graph toolkit: connected lanes, topology-aware attention, metrics.

Desk-scale reference implementation of a driving-scene topology stack:
synthetic lane-graph scenes, ground-truth connected-lane construction,
attention numerics with hand-written verified gradients, argmin-matched
topology heads, Hungarian assignment, focal losses, and an
OpenLane-V2-style metric suite, all tied together by a deterministic
CLI harness.
"""

from .attention import (
    CrossAttentionParams,
    ModelDims,
    SelfAttentionParams,
    SigmoidMaskParams,
    masked_cross_attention,
    self_attention,
)
from .connect import ConnectedLane, build_connected_gt, connected_curves, half_distances
from .geometry import avg_l1, chamfer, discrete_frechet
from .gradcheck import GradCheckResult, grad_check, run_gradcheck
from .heads import TopologyHeadParams, match_connected, predict_lt
from .metrics import (
    LaneSegmentReport,
    MetricReport,
    average_precision,
    det_l,
    evaluate,
    greedy_match,
    ols,
    rank_by_score,
)
from .pipeline import PipelineConfig, run_pipeline
from .scene import (
    JUNCTION_TOL,
    Polyline3D,
    Prediction,
    Scene,
    TopologyGraph,
    Traffic,
    TrafficElement,
    validate_prediction,
    validate_scene,
)
from .serialize import (
    SchemaError,
    TOOL_VERSION,
    prediction_from_dict,
    prediction_to_dict,
    scene_from_dict,
    scene_to_dict,
)
from .synth import (
    TRAFFIC_CATEGORIES,
    NoiseParams,
    SynthParams,
    generate_roundabout,
    generate_scene,
    infer_ll,
    perturb,
)
from .training import (
    FitResult,
    focal_loss,
    focal_loss_grad,
    hungarian,
    toy_fit,
)

__version__ = TOOL_VERSION
