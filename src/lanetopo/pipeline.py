"""End-to-end inference pipeline at desk scale.

One decoder iteration: encode geometry into query features, run the shared
intra-group self-attention over each query group, bias lane-to-connection
cross-attention with the geometric correlation mask, then score lane-lane
pairs (argmin-matched pairs through the matched branch) and lane-traffic
pairs. The mean L1 distances between every lane and both halves of every
connected lane are computed once per run, by one batched kernel: their
column argmins are the matched pairs, and their elementwise minimum over
the two halves is the mask input D. Detection and segmentation stages of
the full system (BEV feature extraction, deformable attention, the
traffic-element GCN, iterative refinement) are out of scope here and the
corresponding hand-offs are plain pass-throughs, marked below.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    CrossAttentionParams,
    ModelDims,
    SelfAttentionParams,
    SigmoidMaskParams,
    masked_cross_attention,
    self_attention,
    sigmoid_mask,
)
from .connect import ConnectedLane, build_connected_gt, half_distances
from .features import GeometryEncoder, box_values, lane_values
from .heads import TopologyHeadParams, match_connected, predict_ll, predict_lt
from .nn import MlpParams, mlp_forward, sigmoid
from .scene import (
    FLAWS,
    Polyline3D,
    Prediction,
    Scene,
    TopologyGraph,
    TrafficElement,
    polyline_flaws,
)
from .synth import NoiseParams, perturb


@dataclass(frozen=True)
class PipelineConfig:
    dims: ModelDims = field(default_factory=ModelDims)
    n_lane_queries: int = 300
    n_traffic_queries: int = 100
    param_seed: int = 0
    source: str = "gt"  # "gt" or "perturbed"
    noise: NoiseParams = field(default_factory=NoiseParams)
    noise_seed: int = 0
    use_tam: bool = True

    def __post_init__(self):
        if self.source not in ("gt", "perturbed"):
            raise ValueError(f"source must be 'gt' or 'perturbed', got {self.source!r}")
        if self.n_lane_queries < 1 or self.n_traffic_queries < 1:
            raise ValueError("query budgets must be >= 1")


@dataclass
class PipelineParams:
    enc_lane: GeometryEncoder
    enc_conn: GeometryEncoder
    enc_traffic: GeometryEncoder
    p_lane: np.ndarray
    p_conn: np.ndarray
    p_traffic: np.ndarray
    attn: SelfAttentionParams
    mask: SigmoidMaskParams
    tam: CrossAttentionParams
    heads: TopologyHeadParams
    conf_lane: MlpParams
    conf_traffic: MlpParams


def init_pipeline_params(cfg: PipelineConfig, n_points: int) -> PipelineParams:
    """All parameters, drawn in a fixed order from one seeded generator."""
    rng = np.random.default_rng(cfg.param_seed)
    c = cfg.dims.c
    return PipelineParams(
        enc_lane=GeometryEncoder.init(3 * n_points, c, rng),
        enc_conn=GeometryEncoder.init(3 * n_points, c, rng),
        enc_traffic=GeometryEncoder.init(4, c, rng),
        p_lane=rng.normal(0.0, 0.5, size=(cfg.n_lane_queries, c)),
        p_conn=rng.normal(0.0, 0.5, size=(cfg.n_lane_queries, c)),
        p_traffic=rng.normal(0.0, 0.5, size=(cfg.n_traffic_queries, c)),
        attn=SelfAttentionParams.init(cfg.dims, rng),
        mask=SigmoidMaskParams.init(c, rng),
        tam=CrossAttentionParams.init(cfg.dims, rng),
        heads=TopologyHeadParams.init(c, rng),
        conf_lane=MlpParams.init((c, c, 1), rng),
        conf_traffic=MlpParams.init((c, c, 1), rng),
    )


def run_pipeline(scene: Scene, cfg: PipelineConfig = PipelineConfig(),
                 warn: Callable[[str], None] | None = None) -> Prediction:
    """Produce a Prediction for one scene.

    source="gt" passes the ground-truth geometry through; "perturbed" runs
    the degradation model first. Either way the connection queries keep the
    ground-truth source pair of the merge they were built from. Lane,
    connection and traffic counts are truncated to the query budgets; warn,
    if given, receives one message naming every count that was cut. All
    emitted confidence and topology scores are sigmoids, strictly inside
    (0, 1); the lane-lane diagonal is zeroed at graph assembly.
    """
    params = init_pipeline_params(cfg, scene.n_points)

    connected = build_connected_gt(scene)
    if cfg.source == "gt":
        lanes = list(scene.lanes)
    else:
        lanes = list(perturb(scene, cfg.noise, cfg.noise_seed).lanes)
        if cfg.noise.point_sigma > 0 and connected:
            # junctions no longer coincide after jitter, so connection queries
            # are the ground-truth merges degraded with the same point noise,
            # drawn as one stack: the stream of one draw per curve
            conn_rng = np.random.default_rng(cfg.noise_seed + 1)
            C = np.stack([c.curve.points for c in connected])
            C += conn_rng.normal(0.0, cfg.noise.point_sigma, size=C.shape)
            bad = np.argwhere(polyline_flaws(C))
            if bad.size:
                raise ValueError(FLAWS[bad[0, 1]])
            connected = [ConnectedLane(source=c.source, curve=Polyline3D.unchecked(row))
                         for c, row in zip(connected, C)]

    cut = [f"{budget} of {len(items)} {what}" for items, budget, what in (
        (lanes, cfg.n_lane_queries, "lanes"),
        (connected, cfg.n_lane_queries, "connected lanes"),
        (scene.traffic, cfg.n_traffic_queries, "traffic elements")) if len(items) > budget]
    if cut and warn is not None:
        warn(f"query budget keeps {', '.join(cut)}")
    lanes = lanes[: cfg.n_lane_queries]
    conn = connected[: cfg.n_lane_queries]
    traffic = list(scene.traffic)[: cfg.n_traffic_queries]

    n = len(lanes)
    if n == 0:
        return Prediction(lanes=[], lane_scores=np.zeros(0), traffic=[],
                          topo=TopologyGraph(ll=np.zeros((0, 0)),
                                             lt=np.zeros((0, len(traffic)))))

    q = params.enc_lane.encode(lane_values(lanes))
    q_bar = self_attention(q, params.p_lane[:n], params.attn)

    d_front, d_back = half_distances(lanes, conn)
    pairs = match_connected(d_front, d_back)

    if conn:
        qc = params.enc_conn.encode(lane_values([c.curve for c in conn]))
        qc_hat = self_attention(qc, params.p_conn[: len(conn)], params.attn)
    else:
        qc_hat = np.zeros((0, cfg.dims.c))

    if conn and cfg.use_tam:
        s = sigmoid_mask(np.minimum(d_front, d_back), params.mask)
        q_hat = masked_cross_attention(q_bar, qc_hat, s, params.tam)
    else:
        # ablation (or no connections): lane queries skip the masked
        # cross-attention and pass through unchanged
        q_hat = q_bar

    # a full system would refine queries with BEV deformable attention and a
    # traffic-element GCN at this point; both stages are pass-throughs here
    lane_scores = sigmoid(mlp_forward(params.conf_lane, q_hat).reshape(-1))

    ll = predict_ll(q_hat, qc_hat, pairs, params.heads)
    np.fill_diagonal(ll, 0.0)

    if traffic:
        qt = params.enc_traffic.encode(box_values(traffic))
        qt_bar = self_attention(qt, params.p_traffic[: len(traffic)], params.attn)
        t_scores = sigmoid(mlp_forward(params.conf_traffic, qt_bar).reshape(-1))
        out_traffic = [TrafficElement(bbox=el.bbox, category=el.category,
                                      score=float(t_scores[k]))
                       for k, el in enumerate(traffic)]
        lt = predict_lt(q_hat, qt_bar, params.heads)
    else:
        out_traffic = []
        lt = np.zeros((n, 0))

    return Prediction(lanes=lanes, lane_scores=lane_scores, traffic=out_traffic,
                      topo=TopologyGraph(ll=ll, lt=lt))
