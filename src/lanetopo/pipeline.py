"""End-to-end inference pipeline at desk scale.

One decoder iteration: encode geometry into query features, run the shared
intra-group self-attention over each query group, then run the
TopologyStack: bias lane-to-connection cross-attention with the geometric
correlation mask, and score lane-lane pairs (argmin-matched pairs through
the matched branch) from the refined lane queries. Lane-traffic pairs are
scored last, from the same queries. Every query is the encoding of its own
geometry, with no per-slot term, so on ground-truth input permuting the
lanes permutes the prediction and changes nothing else. queries builds the
stack's inputs from two arrays, a lane stack L (n, N_P, 3) and a
connected-curve stack C (m, N_P, 3), whatever produced them; run_pipeline
and toy_fit build each once (C from connect.connected_curves). The stack
has one cached forward and one backward; toy_fit trains
init_pipeline_params' stack through the same three calls.

The mean L1 distances between every lane and both halves of every
connected curve are computed once per run, by one batched kernel: their
column argmins are the matched pairs, and their elementwise minimum over
the two halves is the mask input D. Detection and segmentation stages of
the full system (BEV feature extraction, deformable attention, the
traffic-element GCN, iterative refinement) are out of scope here and the
corresponding hand-offs are plain pass-throughs, marked below.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import attention, heads
from .attention import (
    CrossAttentionParams,
    ModelDims,
    SelfAttentionParams,
    SigmoidMaskParams,
    self_attention,
)
from .connect import connected_curves, half_distances
from .features import BOX_SCALE, GeometryEncoder
from .heads import LlCache, MatchPair, TopologyHeadParams, match_connected, predict_lt
from .nn import MlpParams, mlp_forward, sigmoid
from .scene import Prediction, Scene, TopologyGraph, TrafficElement, bounded, check_fields
from .synth import NoiseParams, jittered, perturb


@dataclass(frozen=True)
class PipelineConfig:
    dims: ModelDims = field(default_factory=ModelDims)
    n_lane_queries: int = bounded(300, about="query budget", lo=1)
    n_traffic_queries: int = bounded(100, about="query budget", lo=1)
    param_seed: int = bounded(0, lo=0)
    source: str = "gt"  # "gt" or "perturbed"
    noise: NoiseParams = field(default_factory=NoiseParams)
    noise_seed: int = bounded(0, lo=0)
    use_tam: bool = True

    def __post_init__(self):
        if self.source not in ("gt", "perturbed"):
            raise ValueError(f"source must be 'gt' or 'perturbed', got {self.source!r}")
        check_fields(self)


class StackCache(NamedTuple):
    """What TopologyStack.backward reads; mask and tam are None when the
    cross-attention was skipped."""

    mask: tuple | None
    tam: tuple | None
    ll: LlCache


@dataclass
class TopologyStack:
    """The layers lanes and their topology share: correlation mask, masked
    cross-attention (TAM) and topology heads.

    The layer functions are looked up on their home modules at call time,
    so a wrapper installed there (perfbench's per-layer tracer) sees every
    call.
    """

    mask: SigmoidMaskParams
    tam: CrossAttentionParams
    heads: TopologyHeadParams

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "TopologyStack":
        return cls(mask=SigmoidMaskParams.init(dims.c, rng),
                   tam=CrossAttentionParams.init(dims, rng),
                   heads=TopologyHeadParams.init(dims.c, rng))

    def forward(self, q: np.ndarray, qc: np.ndarray, d: np.ndarray,
                pairs: list[MatchPair], use_tam: bool):
        """(q_hat, ll, cache): lane queries refined by the masked
        cross-attention over the connected queries qc, with S = mask(d), and
        the lane-lane scores of q_hat.

        Without use_tam (the ablation) or without connected lanes, lane
        queries skip the cross-attention and pass through unchanged.
        """
        mask_cache = tam_cache = None
        q_hat = q
        if use_tam and len(qc):
            s, mask_cache = attention.sigmoid_mask_forward(self.mask, d)
            q_hat, tam_cache = attention.masked_cross_attention_forward(self.tam, q, qc, s)
        ll, ll_cache = heads.predict_ll_cached(self.heads, q_hat, qc, pairs)
        return q_hat, ll, StackCache(mask_cache, tam_cache, ll_cache)

    def backward(self, cache: StackCache, g_ll: np.ndarray):
        """(gq, gqc, gd, grads) for the gradient g_ll of the lane-lane scores:
        grads is a TopologyStack, its mask and tam None when the
        cross-attention was skipped; gqc sums the TAM's and the ll head's parts."""
        gq, gqc, head_grads = heads.predict_ll_backward(self.heads, cache.ll, g_ll)
        grads = TopologyStack(mask=None, tam=None, heads=head_grads)
        if cache.tam is None:
            return gq, gqc, np.zeros((len(gq), cache.ll.n_conn)), grads
        gq, gqc_tam, gs, grads.tam = attention.masked_cross_attention_backward(
            self.tam, cache.tam, gq)
        gd, grads.mask = attention.sigmoid_mask_backward(self.mask, cache.mask, gs)
        return gq, gqc_tam + gqc, gd, grads


@dataclass
class PipelineParams:
    enc_lane: GeometryEncoder
    enc_conn: GeometryEncoder
    enc_traffic: GeometryEncoder
    attn: SelfAttentionParams
    stack: TopologyStack
    conf_lane: MlpParams
    conf_traffic: MlpParams


def init_pipeline_params(cfg: PipelineConfig, n_points: int) -> PipelineParams:
    """All parameters, drawn in a fixed order from one seeded generator; no
    shape depends on the query budgets, which only truncate."""
    rng = np.random.default_rng(cfg.param_seed)
    c = cfg.dims.c
    return PipelineParams(
        enc_lane=GeometryEncoder.init(3 * n_points, c, rng),
        enc_conn=GeometryEncoder.init(3 * n_points, c, rng),
        enc_traffic=GeometryEncoder.init(4, c, rng),
        attn=SelfAttentionParams.init(cfg.dims, rng),
        stack=TopologyStack.init(cfg.dims, rng),
        conf_lane=MlpParams.init((c, c, 1), rng),
        conf_traffic=MlpParams.init((c, c, 1), rng),
    )


def queries(params: PipelineParams, L: np.ndarray, C: np.ndarray) -> tuple:
    """(q_bar, qc_hat, d, pairs), as TopologyStack.forward takes them, from
    the lane stack L (n, N_P, 3) and the connected-curve stack C (m, N_P, 3):
    lane and connected-curve queries encoded and refined by the shared
    self-attention (qc_hat is (0, c) when m is 0), D = the elementwise
    minimum of the half distances, and the matched pairs."""
    q_bar = self_attention(params.enc_lane.encode(L), params.attn)

    d_front, d_back = half_distances(L, C)
    pairs = match_connected(d_front, d_back)

    if len(C):
        qc_hat = self_attention(params.enc_conn.encode(C), params.attn)
    else:
        qc_hat = np.zeros((0, q_bar.shape[1]))
    return q_bar, qc_hat, np.minimum(d_front, d_back), pairs


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

    C = connected_curves(scene)
    if cfg.source == "gt":
        lanes = list(scene.lanes)
    else:
        lanes = list(perturb(scene, cfg.noise, cfg.noise_seed).lanes)
        if cfg.noise.point_sigma > 0:
            # junctions no longer coincide after jitter, so connection queries
            # are the ground-truth merges degraded with the same point noise
            C = jittered(C, cfg.noise.point_sigma, np.random.default_rng(cfg.noise_seed + 1))

    cut = [f"{budget} of {len(items)} {what}" for items, budget, what in (
        (lanes, cfg.n_lane_queries, "lanes"),
        (C, cfg.n_lane_queries, "connected lanes"),
        (scene.traffic, cfg.n_traffic_queries, "traffic elements")) if len(items) > budget]
    if cut and warn is not None:
        warn(f"query budget keeps {', '.join(cut)}")
    lanes = lanes[: cfg.n_lane_queries]
    C = C[: cfg.n_lane_queries]
    traffic = list(scene.traffic)[: cfg.n_traffic_queries]

    # traffic queries depend on no lane, so a scene without lanes keeps them
    qt_bar = np.zeros((0, cfg.dims.c))
    if traffic:
        qt = params.enc_traffic.encode(np.array([el.bbox for el in traffic]) / BOX_SCALE)
        qt_bar = self_attention(qt, params.attn)
    t_scores = sigmoid(mlp_forward(params.conf_traffic, qt_bar).reshape(-1))
    out_traffic = [TrafficElement(bbox=el.bbox, category=el.category, score=float(t_scores[k]))
                   for k, el in enumerate(traffic)]

    if not lanes:
        return Prediction(lanes=[], lane_scores=np.zeros(0), traffic=out_traffic,
                          topo=TopologyGraph(ll=np.zeros((0, 0)),
                                             lt=np.zeros((0, len(traffic)))))

    L = np.stack([lane.points for lane in lanes])
    q_hat, ll, _ = params.stack.forward(*queries(params, L, C), cfg.use_tam)
    np.fill_diagonal(ll, 0.0)

    # a full system would refine queries with BEV deformable attention and a
    # traffic-element GCN at this point; both stages are pass-throughs here
    lane_scores = sigmoid(mlp_forward(params.conf_lane, q_hat).reshape(-1))
    lt = predict_lt(q_hat, qt_bar, params.stack.heads)

    return Prediction(lanes=lanes, lane_scores=lane_scores, traffic=out_traffic,
                      topo=TopologyGraph(ll=ll, lt=lt))
