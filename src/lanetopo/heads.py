"""Topology heads: lane-lane and lane-traffic connectivity scoring.

The lane-lane head has two branches. For a pair (i, j) claimed by a
connected-lane query (found by argmin over the geometric correlation of the
query's two halves), the branch MLPs see the sum of the connected query and
the lane query. Every other pair goes through the unmatched branch, which
sees the lane queries alone. Both branches feed one shared scoring MLP.
Matched, unmatched, and scoring MLPs are all distinct parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    MlpParams,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    mlp_grad_vars,
    sigmoid,
)


class MatchPair(NamedTuple):
    """Connected-lane query c resolved to predecessor i and successor j."""

    conn: int
    i: int
    j: int


def match_connected(d_front: np.ndarray, d_back: np.ndarray) -> list[MatchPair]:
    """Resolve each connected lane to its best (predecessor, successor) pair.

    d_front and d_back are the (n_lanes, n_connected) half distances of
    connect.half_distances: i* minimises column c of d_front, j* column c of
    d_back. np.argmin breaks ties toward the lower lane index.
    """
    n, m = np.shape(d_front)
    if m == 0:
        return []
    if n == 0:
        raise ValueError("cannot match connected lanes against an empty lane list")
    best_i, best_j = np.argmin(d_front, axis=0), np.argmin(d_back, axis=0)
    return [MatchPair(conn=c, i=int(i), j=int(j)) for c, (i, j) in enumerate(zip(best_i, best_j))]


@dataclass
class TopologyHeadParams:
    match_i: MlpParams
    match_j: MlpParams
    unmatch_i: MlpParams
    unmatch_j: MlpParams
    ll_score: MlpParams
    lt_lane: MlpParams
    lt_traffic: MlpParams
    lt_score: MlpParams

    @classmethod
    def init(cls, c: int, rng: np.random.Generator) -> "TopologyHeadParams":
        branch = (c, c, c)
        head = (2 * c, c, 1)
        return cls(
            match_i=MlpParams.init(branch, rng),
            match_j=MlpParams.init(branch, rng),
            unmatch_i=MlpParams.init(branch, rng),
            unmatch_j=MlpParams.init(branch, rng),
            ll_score=MlpParams.init(head, rng),
            lt_lane=MlpParams.init(branch, rng),
            lt_traffic=MlpParams.init(branch, rng),
            lt_score=MlpParams.init(head, rng),
        )

    def variables(self, prefix: str = "head") -> dict[str, np.ndarray]:
        out = {}
        for name in ("match_i", "match_j", "unmatch_i", "unmatch_j",
                     "ll_score", "lt_lane", "lt_traffic", "lt_score"):
            out.update(getattr(self, name).variables(f"{prefix}.{name}"))
        return out


def _pair_features(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All-pairs concat: (n, c) x (m, c) -> (n*m, 2c), row-major in (i, j)."""
    n, c = left.shape
    m = right.shape[0]
    feat = np.empty((n, m, 2 * c))
    feat[:, :, :c] = left[:, None, :]
    feat[:, :, c:] = right[None, :, :]
    return feat.reshape(n * m, 2 * c)


def predict_ll_cached(params: TopologyHeadParams, q_hat: np.ndarray,
                      qc_hat: np.ndarray, pairs: list[MatchPair]):
    """Lane-lane score matrix with the caches needed for backward.

    Diagonal entries are produced like any other pair; callers zero them
    when assembling a topology graph.
    """
    n = q_hat.shape[0]
    u1, cache_u1 = mlp_forward_cached(params.unmatch_i, q_hat)
    u2, cache_u2 = mlp_forward_cached(params.unmatch_j, q_hat)
    feat_u = _pair_features(u1, u2)
    logit_u, cache_head_u = mlp_forward_cached(params.ll_score, feat_u)
    scores = sigmoid(logit_u.reshape(n, n))

    matched = {}
    cache_m = None
    if pairs:
        xi = np.stack([qc_hat[p.conn] + q_hat[p.i] for p in pairs])
        xj = np.stack([qc_hat[p.conn] + q_hat[p.j] for p in pairs])
        m1, cache_m1 = mlp_forward_cached(params.match_i, xi)
        m2, cache_m2 = mlp_forward_cached(params.match_j, xj)
        feat_m = np.concatenate([m1, m2], axis=1)
        logit_m, cache_head_m = mlp_forward_cached(params.ll_score, feat_m)
        s_m = sigmoid(logit_m.reshape(-1))
        # duplicates of one (i, j) keep the maximum-scoring candidate
        winner = np.zeros(len(pairs), dtype=bool)
        for k, p in enumerate(pairs):
            key = (p.i, p.j)
            if key not in matched or s_m[k] > s_m[matched[key]]:
                matched[key] = k
        for k in matched.values():
            winner[k] = True
        for (i, j), k in matched.items():
            scores[i, j] = s_m[k]
        cache_m = (cache_m1, cache_m2, cache_head_m, s_m, winner)

    cache = (n, scores, cache_u1, cache_u2, cache_head_u, pairs, matched, cache_m)
    return scores, cache


def predict_ll(q_hat: np.ndarray, qc_hat: np.ndarray, pairs: list[MatchPair],
               params: TopologyHeadParams) -> np.ndarray:
    scores, _ = predict_ll_cached(params, q_hat, qc_hat, pairs)
    return scores


def predict_ll_backward(params: TopologyHeadParams, cache, g_scores: np.ndarray,
                        n_conn: int):
    """Gradients wrt q_hat, qc_hat and the head parameters.

    Matched entries route through the matched branch of their winning
    candidate only; everything else routes through the unmatched branch.
    """
    n, scores, cache_u1, cache_u2, cache_head_u, pairs, matched, cache_m = cache
    c = params.match_i.weights[0].shape[0]

    g_logit = g_scores * scores * (1.0 - scores)
    g_logit_u = g_logit.copy()
    for (i, j) in matched:
        g_logit_u[i, j] = 0.0

    gfeat_u, grads_head_u = mlp_backward(params.ll_score, cache_head_u,
                                         g_logit_u.reshape(n * n, 1))
    gfeat_u = gfeat_u.reshape(n, n, 2 * c)
    gu1 = gfeat_u[:, :, :c].sum(axis=1)
    gu2 = gfeat_u[:, :, c:].sum(axis=0)
    gq_u1, grads_u1 = mlp_backward(params.unmatch_i, cache_u1, gu1)
    gq_u2, grads_u2 = mlp_backward(params.unmatch_j, cache_u2, gu2)

    gq = gq_u1 + gq_u2
    gqc = np.zeros((n_conn, c))

    grads = {
        **mlp_grad_vars("head.unmatch_i", grads_u1),
        **mlp_grad_vars("head.unmatch_j", grads_u2),
        **mlp_grad_vars("head.ll_score", grads_head_u),
    }

    if pairs:
        cache_m1, cache_m2, cache_head_m, s_m, winner = cache_m
        g_logit_m = np.zeros_like(s_m)
        for (i, j), k in matched.items():
            g_logit_m[k] = g_scores[i, j] * s_m[k] * (1.0 - s_m[k])
        gfeat_m, grads_head_m = mlp_backward(params.ll_score, cache_head_m,
                                             g_logit_m.reshape(-1, 1))
        gm1 = gfeat_m[:, :c]
        gm2 = gfeat_m[:, c:]
        gxi, grads_m1 = mlp_backward(params.match_i, cache_m1, gm1)
        gxj, grads_m2 = mlp_backward(params.match_j, cache_m2, gm2)
        for k, p in enumerate(pairs):
            gq[p.i] += gxi[k]
            gq[p.j] += gxj[k]
            gqc[p.conn] += gxi[k] + gxj[k]
        grads.update(mlp_grad_vars("head.match_i", grads_m1))
        grads.update(mlp_grad_vars("head.match_j", grads_m2))
        for key, g in mlp_grad_vars("head.ll_score", grads_head_m).items():
            grads[key] = grads[key] + g

    return gq, gqc, grads


def predict_lt(q_hat: np.ndarray, qt: np.ndarray, params: TopologyHeadParams) -> np.ndarray:
    """Lane-traffic score matrix, shape (n_lanes, n_traffic)."""
    n = q_hat.shape[0]
    t = qt.shape[0]
    if t == 0:
        return np.zeros((n, 0))
    lf = mlp_forward(params.lt_lane, q_hat)
    tf = mlp_forward(params.lt_traffic, qt)
    logit = mlp_forward(params.lt_score, _pair_features(lf, tf))
    return sigmoid(logit.reshape(n, t))
