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
    sigmoid_mask,
)
from .connect import (
    ConnectedLane,
    build_connected_gt,
    half_distances,
    merge_at_junction,
    split_halves_array,
)
from .geometry import (
    arc_length,
    avg_l1,
    box_iou,
    chamfer,
    discrete_frechet,
    lane_segment_distance,
    resample_array,
    widen_to_segment,
)
from .gradcheck import GradCheckResult, grad_check, run_gradcheck
from .heads import TopologyHeadParams, match_connected, predict_ll, predict_lt
from .metrics import (
    LaneSegmentReport,
    MetricReport,
    average_precision,
    det_l,
    det_t,
    evaluate,
    greedy_match,
    lane_segment_metrics,
    ols,
    rank_by_score,
    top_score,
)
from .pipeline import PipelineConfig, run_pipeline
from .scene import (
    JUNCTION_TOL,
    LaneSegment,
    Polyline3D,
    Prediction,
    Scene,
    TopologyGraph,
    TrafficElement,
    junction_point,
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
    GroupConfig,
    focal_loss,
    focal_loss_grad,
    hungarian,
    sum_group_losses,
    toy_fit,
)

__version__ = TOOL_VERSION
