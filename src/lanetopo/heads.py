"""Topology heads: lane-lane and lane-traffic connectivity scoring.

The lane-lane head has two branches. For a pair (i, j) claimed by a
connected-lane query (found by argmin over the geometric correlation of the
query's two halves), the branch MLPs see the sum of the connected query and
the lane query. Every other pair goes through the unmatched branch, which
sees the lane queries alone. Both branches feed one shared scoring MLP.
Matched, unmatched, and scoring MLPs are all distinct parameter sets.

The scoring MLPs of both heads read the concatenation [a_i, b_j] of two
branch outputs. Their first layer is computed in factored form,
a @ W[:c] + (b @ W[c:] + bias), broadcast over the pairs; the hidden layer
and the layers after it run in row blocks of about PAIR_BLOCK pairs. No
(pairs, 2c) feature tensor and no full (pairs, c) hidden layer is ever
built, forward or backward: the backward rebuilds each block's hidden
layer from the two (n, c) first-layer terms. The matched branch, one row
per connected lane, goes through the same MLP on concatenated rows.

The forward heads also take a leading batch axis of scenes of one shape:
every product is a batched matmul, each scene's pairs form their own
blocks and the matched pairs' keys are offset by scene, so each scene's
scores are bit for bit its own 2-D call's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    MlpParams,
    add_mlp_grads,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    sigmoid,
)


def match_connected(d_front: np.ndarray, d_back: np.ndarray) -> np.ndarray:
    """Resolve each connected lane to its best (predecessor, successor) pair.

    d_front and d_back are the (n_lanes, n_connected) half distances of
    connect.half_distances, or a batch of them (B, n_lanes, n_connected).
    Row c of the (n_connected, 2) result, or of each scene's, is connected
    lane c's (i*, j*): i* minimises column c of d_front, j* column c of
    d_back. np.argmin breaks ties toward the lower lane index.
    """
    *lead, n, m = np.shape(d_front)
    if n == 0:
        # numpy's argmin raises on an empty axis even when m is 0 too
        if m:
            raise ValueError("cannot match connected lanes against an empty lane list")
        return np.zeros((*lead, 0, 2), dtype=np.intp)
    return np.stack([np.argmin(d_front, axis=-2), np.argmin(d_back, axis=-2)], axis=-1)


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


# Lane pairs per row block of a pair head's hidden layer: the (pairs, c)
# temporaries stay at 512 KB at c = 32 whatever the lane count. Measured with
# c = 32 (169 x 169 / 823 x 823 pairs, 2 vCPU, numpy 2.4.6), the ll head
# takes 3.4 / 57 ms at 1024 and 2048 pairs, 3.8 / 59 ms at 4096, 4.1 / 67 ms
# at 8192, and 5.8 / 170 ms in one block; the concatenated head took 10 / 470 ms.
PAIR_BLOCK = 2048


def _first_layer(head: MlpParams, a: np.ndarray, b: np.ndarray):
    """The first layer of head on [a_i, b_j], as its a term and its b term.

    The pre-activation of pair (i, j) is za[i] + zb[j], so the concatenated
    (n * m, 2c) pair features are never built.
    """
    c = a.shape[-1]
    w = head.weights[0]
    return a @ w[:c], b @ w[c:] + head.biases[0]


def _rows_per_block(m: int) -> int:
    return max(1, PAIR_BLOCK // max(1, m))


def _preacts(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """The (n * m, c) first-layer pre-activations of every pair of a row of
    za (n, c) with one of zb (m, c), row-major in (i, j); a batch of scenes
    gives (B, n * m, c), each scene's pairs its own."""
    *lead, n, c = za.shape
    return (za[..., :, None, :] + zb[..., None, :, :]).reshape(*lead, -1, c)


def pair_preacts(za: np.ndarray, zb: np.ndarray):
    """(rows, z) for each row block of the pair grid, z the pre-activations
    of its pairs as _preacts gives them, rows a slice of za's rows."""
    step = _rows_per_block(zb.shape[-2])
    for s in range(0, za.shape[-2], step):
        rows = slice(s, s + step)
        yield rows, _preacts(za[..., rows, :], zb)


def _rest(head: MlpParams) -> MlpParams:
    return MlpParams(weights=head.weights[1:], biases=head.biases[1:])


def _pair_logits(head: MlpParams, za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """(n, m) outputs of a (2c, c, 1) head on every pair, or (B, n, m) for a
    batch, one row block at a time, each block's ReLU in place; a grid of
    one block is the block's own output. Each scene of a batch gets the
    blocks of its own call."""
    rest = _rest(head)
    *lead, n, _ = za.shape
    m = zb.shape[-2]
    if n <= _rows_per_block(m):
        z = _preacts(za, zb)
        return mlp_forward(rest, np.maximum(z, 0.0, out=z)).reshape(*lead, n, m)
    out = np.empty((*lead, n, m))
    for rows, z in pair_preacts(za, zb):
        out[..., rows, :] = mlp_forward(rest, np.maximum(z, 0.0, out=z)).reshape(*lead, -1, m)
    return out


def _pair_backward(head: MlpParams, a, b, za, zb, g: np.ndarray):
    """Gradients of the (n, m) pair logits wrt a, b and the head parameters.

    Each block's hidden layer is rebuilt from za and zb. The first-layer
    weight gradient is [a.T @ sum_j gz, b.T @ sum_i gz].
    """
    rest = _rest(head)
    gza = np.empty_like(za)
    gzb = np.zeros_like(zb)
    rest_grads = None
    for rows, z in pair_preacts(za, zb):
        # the ReLU in place: z > 0 exactly where max(z, 0) > 0
        _, cache = mlp_forward_cached(rest, np.maximum(z, 0.0, out=z))
        gz, grads = mlp_backward(rest, cache, g[rows].reshape(-1, 1))
        gz *= z > 0.0
        gz = gz.reshape(-1, len(zb), gz.shape[1])
        gza[rows] = gz.sum(axis=1)
        gzb += gz.sum(axis=0)
        rest_grads = add_mlp_grads(rest_grads, grads)
    c = a.shape[1]
    w = head.weights[0]
    grads = MlpParams(weights=[np.concatenate([a.T @ gza, b.T @ gzb]), *rest_grads.weights],
                      biases=[gzb.sum(axis=0), *rest_grads.biases])
    return gza @ w[:c].T, gzb @ w[c:].T, grads


def _max_per_pair(key: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Index of the highest s within each run of equal keys, sorted by key.

    lexsort is stable, so among exactly tied scores the lowest index wins.
    """
    order = np.lexsort((-s, key))
    ranked = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return order[first]


class MatchedCache(NamedTuple):
    """The matched branch of predict_ll_cached: row k of pairs is connected
    lane k's (i, j); win lists the rows that own their (i, j) entry."""

    pairs: np.ndarray
    win: np.ndarray
    cache_m1: tuple
    cache_m2: tuple
    cache_head: tuple


class LlCache(NamedTuple):
    """What predict_ll_backward reads: the branch outputs u1 and u2 and their
    first-layer terms za and zb, never the pair features."""

    scores: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    za: np.ndarray
    zb: np.ndarray
    cache_u1: tuple
    cache_u2: tuple
    matched: MatchedCache | None


def _rows_of(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """x[idx] of x (n, c) and idx (m,), or scene by scene of a batch."""
    return x[idx] if x.ndim == 2 else x[np.arange(len(x))[:, None], idx]


def predict_ll_cached(params: TopologyHeadParams, q_hat: np.ndarray,
                      qc_hat: np.ndarray, pairs: np.ndarray):
    """Lane-lane score matrix with the caches needed for backward.

    pairs is match_connected's (m, 2) array: row k scores lane pair
    pairs[k] through the matched branch with connected query qc_hat[k].
    Diagonal entries are produced like any other pair; callers zero them
    when assembling a topology graph. Duplicates of one (i, j) keep the
    maximum-scoring row, the lowest row index on an exact tie. A batch,
    (B, n, c), (B, m, c) and (B, m, 2), gives (B, n, n) scores, each
    scene's its own call's; predict_ll_backward takes the 2-D cache only.
    """
    n = q_hat.shape[-2]
    u1, cache_u1 = mlp_forward_cached(params.unmatch_i, q_hat)
    u2, cache_u2 = mlp_forward_cached(params.unmatch_j, q_hat)
    za, zb = _first_layer(params.ll_score, u1, u2)
    scores = sigmoid(_pair_logits(params.ll_score, za, zb))

    matched = None
    if np.size(pairs):
        pi, pj = pairs[..., 0], pairs[..., 1]
        m1, cache_m1 = mlp_forward_cached(params.match_i, qc_hat + _rows_of(q_hat, pi))
        m2, cache_m2 = mlp_forward_cached(params.match_j, qc_hat + _rows_of(q_hat, pj))
        logit_m, cache_head = mlp_forward_cached(params.ll_score,
                                                 np.concatenate([m1, m2], axis=-1))
        s_m = sigmoid(logit_m.reshape(-1))
        # the flat index of (i, j) in scores, so no pair key crosses scenes
        key = pi * n + pj
        if key.ndim > 1:
            key = (key + n * n * np.arange(len(key))[:, None]).reshape(-1)
        win = _max_per_pair(key, s_m)
        scores.reshape(-1)[key[win]] = s_m[win]
        matched = MatchedCache(pairs, win, cache_m1, cache_m2, cache_head)

    return scores, LlCache(scores, u1, u2, za, zb, cache_u1, cache_u2, matched)


def predict_ll_backward(params: TopologyHeadParams, cache: LlCache, g_scores: np.ndarray):
    """Gradients wrt q_hat, qc_hat and the head parameters.

    Matched entries route through the matched branch of their winning
    row only; everything else routes through the unmatched branch.
    The parameter gradient is a TopologyHeadParams whose lane-traffic parts
    are None, as are its matched-branch parts when no pair was matched.
    """
    scores, mc = cache.scores, cache.matched
    c = params.match_i.weights[0].shape[0]

    g_logit = g_scores * scores * (1.0 - scores)
    if mc is not None:
        wi, wj = mc.pairs[mc.win].T
        g_logit_m = np.zeros(len(mc.pairs))
        g_logit_m[mc.win] = g_logit[wi, wj]
        g_logit[wi, wj] = 0.0

    gu1, gu2, grads_head = _pair_backward(params.ll_score, cache.u1, cache.u2,
                                          cache.za, cache.zb, g_logit)
    gq_u1, grads_u1 = mlp_backward(params.unmatch_i, cache.cache_u1, gu1)
    gq_u2, grads_u2 = mlp_backward(params.unmatch_j, cache.cache_u2, gu2)

    gq = gq_u1 + gq_u2
    gqc = np.zeros((0, c))
    grads_m1 = grads_m2 = None

    if mc is not None:
        gfeat_m, grads_head_m = mlp_backward(params.ll_score, mc.cache_head,
                                             g_logit_m[:, None])
        gxi, grads_m1 = mlp_backward(params.match_i, mc.cache_m1, gfeat_m[:, :c])
        gxj, grads_m2 = mlp_backward(params.match_j, mc.cache_m2, gfeat_m[:, c:])
        # row k adds gxi[k] to lane i, then gxj[k] to lane j, in order of k
        np.add.at(gq, mc.pairs.ravel(), np.concatenate([gxi, gxj], axis=1).reshape(-1, c))
        gqc = gxi + gxj
        grads_head = add_mlp_grads(grads_head, grads_head_m)

    grads = TopologyHeadParams(match_i=grads_m1, match_j=grads_m2, unmatch_i=grads_u1,
                               unmatch_j=grads_u2, ll_score=grads_head,
                               lt_lane=None, lt_traffic=None, lt_score=None)
    return gq, gqc, grads


def predict_lt(q_hat: np.ndarray, qt: np.ndarray, params: TopologyHeadParams) -> np.ndarray:
    """Lane-traffic score matrix, shape (n_lanes, n_traffic), or
    (B, n_lanes, n_traffic) for a batch of scenes."""
    t = qt.shape[-2]
    if t == 0:
        return np.zeros((*q_hat.shape[:-1], 0))
    lf = mlp_forward(params.lt_lane, q_hat)
    tf = mlp_forward(params.lt_traffic, qt)
    za, zb = _first_layer(params.lt_score, lf, tf)
    return sigmoid(_pair_logits(params.lt_score, za, zb))
