"""Training machinery: focal loss, Hungarian assignment, and a toy fit loop.

toy_fit supervises the lane-lane topology scores with a focal loss; with k
replicated query groups its loss is the exact sum of the per-group losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import (
    CrossAttentionParams,
    ModelDims,
    SigmoidMaskParams,
    masked_cross_attention_backward,
    masked_cross_attention_forward,
    sigmoid_mask_backward,
    sigmoid_mask_forward,
)
from .connect import build_connected_gt, half_distances
from .features import GeometryEncoder, lane_values
from .heads import TopologyHeadParams, match_connected, predict_ll_backward, predict_ll_cached
from .nn import mlp_grad_vars
from .scene import Scene

FOCAL_CLAMP = 1e-7


@dataclass(frozen=True)
class GroupConfig:
    """Query-group replication: k groups, optionally with per-group feature seeds."""

    k: int = 6
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"group count must be >= 1, got {self.k}")
        if self.seeds is not None and len(self.seeds) != self.k:
            raise ValueError(f"need {self.k} per-group seeds, got {len(self.seeds)}")


def focal_loss(pred, target, alpha: float = 0.25, gamma: float = 2.0,
               reduction: str = "mean"):
    """Binary focal loss. Predictions are clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(np.asarray(pred, dtype=np.float64), FOCAL_CLAMP, 1.0 - FOCAL_CLAMP)
    t = np.asarray(target, dtype=np.float64)
    p_t = np.where(t == 1.0, p, 1.0 - p)
    a_t = np.where(t == 1.0, alpha, 1.0 - alpha)
    loss = -a_t * (1.0 - p_t) ** gamma * np.log(p_t)
    if reduction == "mean":
        return float(loss.mean()) if loss.size else 0.0
    if reduction == "sum":
        return float(loss.sum())
    return loss


def focal_loss_grad(pred, target, alpha: float = 0.25, gamma: float = 2.0):
    """Elementwise d(focal)/d(pred). Zero where the clamp is active."""
    raw = np.asarray(pred, dtype=np.float64)
    p = np.clip(raw, FOCAL_CLAMP, 1.0 - FOCAL_CLAMP)
    t = np.asarray(target, dtype=np.float64)
    pos = t == 1.0
    one_m_p = 1.0 - p
    g_pos = alpha * (gamma * one_m_p ** (gamma - 1.0) * np.log(p) - one_m_p ** gamma / p)
    g_neg = (1.0 - alpha) * (p ** gamma / one_m_p - gamma * p ** (gamma - 1.0) * np.log(one_m_p))
    g = np.where(pos, g_pos, g_neg)
    inside = (raw > FOCAL_CLAMP) & (raw < 1.0 - FOCAL_CLAMP)
    return g * inside


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs, sorted by row.

    Rectangular matrices go to scipy's solver as they are; it assigns every
    row of the shorter side. scipy.optimize is imported here, on the first
    call, rather than with the module: no CLI command assigns, and the
    import alone costs about 0.2 s of process start-up.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2D, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return sorted((int(r), int(c)) for r, c in zip(rows, cols))


def sum_group_losses(losses) -> float:
    """Group strategy total: exact sum of per-group losses."""
    return math.fsum(float(v) for v in losses)


@dataclass
class FitResult:
    losses: list[float]
    mask_params: SigmoidMaskParams
    tam_params: CrossAttentionParams
    head_params: TopologyHeadParams
    final_scores: np.ndarray
    target: np.ndarray


def toy_fit(scene: Scene, steps: int = 500, lr: float = 0.05, seed: int = 0,
            group: GroupConfig | None = None,
            dims: ModelDims = ModelDims(c=16, n_heads=4)) -> FitResult:
    """Fit the mask, cross-attention, and topology-head parameters to one scene.

    Plain gradient descent against the ground-truth lane-lane adjacency with
    a focal loss over the off-diagonal score entries. Query features are
    fixed seeded geometry encodings; with k replicated groups the recorded
    loss is the group-strategy sum and gradients accumulate over groups.
    """
    group = group or GroupConfig(k=1)
    rng = np.random.default_rng(seed)
    connected = build_connected_gt(scene)
    d_front, d_back = half_distances(scene.lanes, connected)
    pairs = match_connected(d_front, d_back)
    d = np.minimum(d_front, d_back)
    n = len(scene.lanes)
    target = scene.topo.ll.copy()
    off_diag = ~np.eye(n, dtype=bool)
    n_terms = int(off_diag.sum())
    if n_terms == 0:
        raise ValueError("scene has no off-diagonal lane pairs to supervise")

    mask_params = SigmoidMaskParams.init(dims.c, rng)
    tam_params = CrossAttentionParams.init(dims, rng)
    head_params = TopologyHeadParams.init(dims.c, rng)

    lane_vals = lane_values(scene.lanes)
    conn_vals = lane_values([c.curve for c in connected])

    def group_features(g: int):
        s = group.seeds[g] if group.seeds is not None else seed
        enc_rng = np.random.default_rng(s)
        enc_lane = GeometryEncoder.init(lane_vals.shape[1], dims.c, enc_rng)
        enc_conn = GeometryEncoder.init(conn_vals.shape[1], dims.c, enc_rng)
        qc = enc_conn.encode(conn_vals) if connected else np.zeros((0, dims.c))
        return enc_lane.encode(lane_vals), qc

    feats = [group_features(g) for g in range(group.k)]

    losses: list[float] = []
    use_tam = len(connected) > 0
    target_off = target[off_diag]
    # the live parameter arrays, updated in place every step
    params = head_params.variables()
    if use_tam:
        params.update(tam_params.variables("tam"))
        params.update(mask_params.variables("mask"))

    def accumulate(acc, grads, prefix=""):
        # the first group's gradients are taken as they are, not added to 0.0
        for k, v in grads.items():
            k = prefix + k
            acc[k] = acc[k] + v if k in acc else v

    scores = np.zeros((n, n))
    for _ in range(steps):
        group_losses = []
        acc: dict[str, np.ndarray] = {}
        for q, qc in feats:
            if use_tam:
                s_mask, cache_s = sigmoid_mask_forward(mask_params, d)
                q_hat, cache_t = masked_cross_attention_forward(tam_params, q, qc, s_mask)
            else:
                q_hat = q
            scores, cache_h = predict_ll_cached(head_params, q_hat, qc, pairs)

            scores_off = scores[off_diag]
            group_losses.append(focal_loss(scores_off, target_off))

            g_scores = np.zeros_like(scores)
            g_scores[off_diag] = focal_loss_grad(scores_off, target_off) / n_terms
            gq_hat, _, head_grads = predict_ll_backward(
                head_params, cache_h, g_scores, len(connected))
            accumulate(acc, head_grads)
            if use_tam:
                _, _, gs, tam_grads = masked_cross_attention_backward(
                    tam_params, cache_t, gq_hat)
                _, mask_grads = sigmoid_mask_backward(mask_params, cache_s, gs)
                accumulate(acc, tam_grads, "tam.")
                accumulate(acc, mlp_grad_vars("mask", mask_grads))

        losses.append(sum_group_losses(group_losses))
        for name, grad in acc.items():
            params[name] -= lr * grad

    return FitResult(losses=losses, mask_params=mask_params, tam_params=tam_params,
                     head_params=head_params, final_scores=scores, target=target)
