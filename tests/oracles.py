"""Slow reference implementations the tests compare the library against.

Everything here trades speed for obviousness: the Frechet distance is
the literal recursive definition or a per-pair loop, distances are
double loops, a lane-segment distance is one Chamfer loop plus one
Frechet loop, greedy matching visits one prediction and one ground truth
at a time, curves are resampled one coordinate at a time with np.interp
against their cumulative chord lengths, lane-lane adjacency is inferred
one lane pair at a time, connected lanes are merged at
their junction point and validated one edge at a time and split one
curve at a time, half distances are one scalar call per lane and half,
the topology heads run on concatenated (pairs, 2c) pair features and
resolve and scatter matched rows one at a time, topology blending
visits one entry at a time, box IoU is one scalar call per box pair and
DET_t one AP per category, lanes are jittered and widened one at a time
into validated polylines, vertex APs rank a Python list of flags per
vertex, assignment is full enumeration, JSON is written by rounding
every float on its own before json.dumps, and lanes are read one
validated polyline at a time. Replaced kernels are kept as they were:
the mean L1 matrix with each pair's points on a contiguous last axis, the
float-array writer that prints every plain value with "%.9g", the softmax
that builds a new array per step, the per-scene lane matrices that
metrics built before it scored a group of scenes at once (endpoint_bound,
frechet_matrix, lane_boundaries and segment_matrix, each called on one
scene's lane lists, grouped by stacks_by_count), and the topology stack's
primitives before they worked in place: the list-building MLP forward and
its reshaping backward, the np.mean/np.var layer norm, the copying softmax
backward and cross-attention, the mask that concatenated its blocks and
rebuilt every block's hidden layer in its backward, and the pair-head
blocks. run_pipeline_per_scene is the pipeline as it ran before its
forward took a batch axis: one scene, every stage's 2-D call, its lanes
read off perturb's whole degraded prediction. perturb_graded is perturb
as it was while it also graded lane scores and topology with score noise
and flips, which predict never read: the factory of graded-score
predictions for the metric tests, and perturb's oracle without them. None
of this is imported by the package itself.
"""

import itertools
import json
from dataclasses import replace
from functools import lru_cache

import numpy as np

from lanetopo.attention import CrossAttentionParams, SigmoidMaskParams, self_attention
from lanetopo.connect import ConnectedLane, connected_curves
from lanetopo.features import BOX_SCALE
from lanetopo.geometry import _point_gaps, chamfer_pairs, frechet_pairs, widen
from lanetopo.heads import TopologyHeadParams, predict_lt
from lanetopo.metrics import rank_by_score
from lanetopo.nn import (
    LN_EPS,
    MASK_EPS,
    MlpParams,
    add_mlp_grads,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    sigmoid,
)
from lanetopo.pipeline import queries
from lanetopo.scene import (
    FLAWS,
    JUNCTION_TOL,
    Polyline3D,
    Prediction,
    TopologyGraph,
    TrafficElement,
)
from lanetopo.serialize import round9
from lanetopo.synth import degrade_lanes, jittered, perturb


def frechet_recursive(a, b) -> float:
    """Discrete Frechet distance by the textbook coupling recursion."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    @lru_cache(maxsize=None)
    def couple(i, j):
        d = float(np.linalg.norm(a[i] - b[j]))
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(couple(0, j - 1), d)
        if j == 0:
            return max(couple(i - 1, 0), d)
        return max(min(couple(i - 1, j), couple(i - 1, j - 1), couple(i, j - 1)), d)

    return couple(len(a) - 1, len(b) - 1)


def frechet_loops(a, b) -> float:
    """Discrete Frechet distance by the iterative coupling DP, one cell at a time."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    n, m = d.shape
    ca = np.empty((n, m))
    ca[0, 0] = d[0, 0]
    for i in range(1, n):
        ca[i, 0] = max(ca[i - 1, 0], d[i, 0])
    for j in range(1, m):
        ca[0, j] = max(ca[0, j - 1], d[0, j])
    for i in range(1, n):
        row = ca[i]
        prev = ca[i - 1]
        for j in range(1, m):
            reach = prev[j]
            if prev[j - 1] < reach:
                reach = prev[j - 1]
            if row[j - 1] < reach:
                reach = row[j - 1]
            row[j] = reach if reach > d[i, j] else d[i, j]
    return float(ca[-1, -1])


def greedy_match_loops(dist, scores, threshold, better_below=True):
    """Greedy matching as a double loop over ranked predictions and ground truths.

    Returns (tp_flags in ranked order, pred_to_gt, ranked order), like
    lanetopo.greedy_match.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n_pred, n_gt = dist.shape
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    taken = np.zeros(n_gt, dtype=bool)
    pred_to_gt = np.full(n_pred, -1)
    flags = []
    for p in order:
        best = -1
        best_d = None
        for g in range(n_gt):
            if taken[g]:
                continue
            d = dist[p, g]
            ok = (d < threshold) if better_below else (d >= threshold)
            if not ok:
                continue
            if best < 0 or (d < best_d if better_below else d > best_d):
                best, best_d = g, d
        if best >= 0:
            taken[best] = True
            pred_to_gt[p] = best
            flags.append(True)
        else:
            flags.append(False)
    return flags, pred_to_gt, order


def chamfer_loops(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def mean_nearest(xs, ys):
        total = 0.0
        for x in xs:
            total += min(float(np.linalg.norm(x - y)) for y in ys)
        return total / len(xs)

    return 0.5 * (mean_nearest(a, b) + mean_nearest(b, a))


def lane_segment_distance(bounds_a, center_a, bounds_b, center_b) -> float:
    """Lane-segment distance of two segments, each given as its boundary
    points (left then right) and its centerline: the mean of the boundary
    Chamfer distance and the centerline Frechet distance."""
    return 0.5 * (chamfer_loops(bounds_a, bounds_b) + frechet_loops(center_a, center_b))


def avg_l1_loops(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for pa, pb in zip(a, b):
        total += sum(abs(float(pa[k] - pb[k])) for k in range(pa.shape[0]))
    return total / len(a)


def avg_l1_scalar(a, b) -> float:
    """Mean L1 distance of one pair in numpy: the per-pair formula the batched
    kernel must reproduce bit for bit."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.shape != pb.shape:
        raise ValueError(f"point counts differ: {pa.shape} vs {pb.shape}")
    return float(np.mean(np.sum(np.abs(pa - pb), axis=1)))


def avg_l1_matrix_lastaxis(L, H) -> np.ndarray:
    """(n, m) mean L1 distances with each pair's N points on a contiguous
    last axis: |dx| + |dy| + |dz| per point, then np.mean over the points,
    the arithmetic geometry.avg_l1_matrix must match bit for bit."""
    L = np.asarray(L, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    Lx, Ly, Lz = L.transpose(2, 0, 1)
    Hx, Hy, Hz = H.transpose(2, 0, 1)
    d = np.abs(Lx[:, None] - Hx)
    d += np.abs(Ly[:, None] - Hy)
    d += np.abs(Lz[:, None] - Hz)
    return d.mean(axis=2)


def cumulative_lengths(pts):
    """Cumulative chord lengths of a point array, starting at 0."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample_loops(pts, n):
    """Resample one point array to n points uniform in arc length: np.interp
    of each coordinate against the chord lengths, endpoints pinned."""
    if n < 2:
        raise ValueError(f"resample target must be >= 2 points, got {n}")
    pts = np.asarray(pts, dtype=np.float64)
    cum = cumulative_lengths(pts)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("cannot resample a zero-length polyline")
    targets = total * np.arange(n) / (n - 1)
    out = np.empty((n, 3))
    for k in range(3):
        out[:, k] = np.interp(targets, cum, pts[:, k])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def split_halves_loops(curve, n=None):
    """Front and back halves of one curve, split at floor(N_P / 2) and each
    resampled to n points by resample_loops."""
    curve = np.asarray(curve, dtype=np.float64)
    mid = curve.shape[0] // 2
    n = curve.shape[0] if n is None else n
    return resample_loops(curve[: mid + 1], n), resample_loops(curve[mid:], n)


def junction_point(a, b):
    """Shared junction of predecessor polyline a and successor b: a's
    terminal point when it lies within JUNCTION_TOL of b's initial point,
    else None."""
    gap = float(np.linalg.norm(a.points[-1] - b.points[0]))
    return a.points[-1].copy() if gap <= JUNCTION_TOL else None


def merge_at_junction(a, b):
    """a's points then b's without its first: the junction counted once,
    at a's terminal point, 2*N_P - 1 points for two N_P-point lanes."""
    return np.concatenate([a.points, b.points[1:]], axis=0)


def infer_ll_loops(lanes):
    """Adjacency from geometry, one lane pair at a time: edge (i, j), i != j,
    iff np.linalg.norm of lane i's terminal minus lane j's initial point is
    at most JUNCTION_TOL."""
    n = len(lanes)
    ll = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gap = np.linalg.norm(lanes[i].points[-1] - lanes[j].points[0])
            if gap <= JUNCTION_TOL:
                ll[i, j] = 1.0
    return ll


def build_connected_gt_loops(scene):
    """Connected lanes one ll edge at a time, in row-major order: check the
    junction, merge, check that the merge's arc length is finite, resample
    with resample_loops and validate the curve as a Polyline3D, raising at
    the first edge that fails."""
    out = []
    for i, j in zip(*np.nonzero(scene.topo.ll)):
        i, j = int(i), int(j)
        a, b = scene.lanes[i], scene.lanes[j]
        if junction_point(a, b) is None:
            gap = float(np.linalg.norm(a.points[-1] - b.points[0]))
            raise ValueError(
                f"lanes ({i}, {j}) are marked connected but their junction is "
                f"{gap:.4f} m apart (tolerance {JUNCTION_TOL})"
            )
        merged = merge_at_junction(a, b)
        with np.errstate(over="ignore"):
            if not np.isfinite(cumulative_lengths(merged)[-1]):
                raise ValueError(f"lanes ({i}, {j}) are marked connected but their merged "
                                 f"curve's arc length is not finite")
        curve = Polyline3D(resample_loops(merged, scene.n_points))
        out.append(ConnectedLane(source=(i, j), curve=curve))
    return out


def half_distances_loops(lanes, connected):
    """(d_front, d_back) by one scalar mean-L1 call per lane and half."""
    n, m = len(lanes), len(connected)
    d_front, d_back = np.zeros((n, m)), np.zeros((n, m))
    for c, conn in enumerate(connected):
        h1, h2 = split_halves_loops(conn.curve.points)
        for i, lane in enumerate(lanes):
            d_front[i, c] = avg_l1_scalar(lane.points, h1)
            d_back[i, c] = avg_l1_scalar(lane.points, h2)
    return d_front, d_back


def correlation_distances_loops(lanes, connected):
    """Mask input D, one pair at a time: the nearer half's mean L1 distance."""
    d = np.zeros((len(lanes), len(connected)))
    halves = [split_halves_loops(c.curve.points) for c in connected]
    for i, lane in enumerate(lanes):
        for c, (h1, h2) in enumerate(halves):
            d[i, c] = min(avg_l1_scalar(lane.points, h1), avg_l1_scalar(lane.points, h2))
    return d


def pair_features(left, right):
    """All-pairs concatenation: (n, c) x (m, c) -> (n*m, 2c), row-major in (i, j)."""
    n, c = left.shape
    m = right.shape[0]
    feat = np.empty((n, m, 2 * c))
    feat[:, :, :c] = left[:, None, :]
    feat[:, :, c:] = right[None, :, :]
    return feat.reshape(n * m, 2 * c)


def predict_ll_concat(params, q_hat, qc_hat, pairs):
    """The lane-lane head on the concatenated (n*n, 2c) pair features, one
    matched row k (lanes pairs[k], connected query qc_hat[k]) at a time:
    (scores, cache)."""
    n = q_hat.shape[0]
    u1, cache_u1 = mlp_forward_cached(params.unmatch_i, q_hat)
    u2, cache_u2 = mlp_forward_cached(params.unmatch_j, q_hat)
    logit_u, cache_head_u = mlp_forward_cached(params.ll_score, pair_features(u1, u2))
    scores = sigmoid(logit_u.reshape(n, n))

    matched = {}
    cache_m = None
    if len(pairs):
        xi = np.stack([qc_hat[k] + q_hat[i] for k, (i, j) in enumerate(pairs)])
        xj = np.stack([qc_hat[k] + q_hat[j] for k, (i, j) in enumerate(pairs)])
        m1, cache_m1 = mlp_forward_cached(params.match_i, xi)
        m2, cache_m2 = mlp_forward_cached(params.match_j, xj)
        logit_m, cache_head_m = mlp_forward_cached(params.ll_score,
                                                   np.concatenate([m1, m2], axis=1))
        s_m = sigmoid(logit_m.reshape(-1))
        # duplicates of one (i, j) keep the maximum, the first on a tie
        for k, (i, j) in enumerate(pairs):
            key = (int(i), int(j))
            if key not in matched or s_m[k] > s_m[matched[key]]:
                matched[key] = k
        for (i, j), k in matched.items():
            scores[i, j] = s_m[k]
        cache_m = (cache_m1, cache_m2, cache_head_m, s_m)

    return scores, (n, scores, cache_u1, cache_u2, cache_head_u, pairs, matched, cache_m)


def predict_ll_concat_backward(params, cache, g_scores):
    """Gradients of predict_ll_concat wrt q_hat, qc_hat and the head
    parameters, scattered one matched row at a time."""
    n, scores, cache_u1, cache_u2, cache_head_u, pairs, matched, cache_m = cache
    c = params.match_i.weights[0].shape[0]

    g_logit = g_scores * scores * (1.0 - scores)
    g_logit_u = g_logit.copy()
    for (i, j) in matched:
        g_logit_u[i, j] = 0.0

    gfeat_u, grads_head_u = mlp_backward(params.ll_score, cache_head_u,
                                         g_logit_u.reshape(n * n, 1))
    gfeat_u = gfeat_u.reshape(n, n, 2 * c)
    gq_u1, grads_u1 = mlp_backward(params.unmatch_i, cache_u1, gfeat_u[:, :, :c].sum(axis=1))
    gq_u2, grads_u2 = mlp_backward(params.unmatch_j, cache_u2, gfeat_u[:, :, c:].sum(axis=0))

    gq = gq_u1 + gq_u2
    gqc = np.zeros((len(pairs), c))
    grads = TopologyHeadParams(match_i=None, match_j=None, unmatch_i=grads_u1,
                               unmatch_j=grads_u2, ll_score=grads_head_u,
                               lt_lane=None, lt_traffic=None, lt_score=None)
    if len(pairs):
        cache_m1, cache_m2, cache_head_m, s_m = cache_m
        g_logit_m = np.zeros_like(s_m)
        for (i, j), k in matched.items():
            g_logit_m[k] = g_scores[i, j] * s_m[k] * (1.0 - s_m[k])
        gfeat_m, grads_head_m = mlp_backward(params.ll_score, cache_head_m,
                                             g_logit_m.reshape(-1, 1))
        gxi, grads_m1 = mlp_backward(params.match_i, cache_m1, gfeat_m[:, :c])
        gxj, grads_m2 = mlp_backward(params.match_j, cache_m2, gfeat_m[:, c:])
        for k, (i, j) in enumerate(pairs):
            gq[i] += gxi[k]
            gq[j] += gxj[k]
            gqc[k] += gxi[k] + gxj[k]
        grads.match_i, grads.match_j = grads_m1, grads_m2
        grads.ll_score = add_mlp_grads(grads.ll_score, grads_head_m)
    return gq, gqc, grads


def predict_lt_concat(q_hat, qt, params):
    """The lane-traffic head on the concatenated (n*t, 2c) pair features."""
    n, t = q_hat.shape[0], qt.shape[0]
    if t == 0:
        return np.zeros((n, 0))
    lf = mlp_forward(params.lt_lane, q_hat)
    tf = mlp_forward(params.lt_traffic, qt)
    return sigmoid(mlp_forward(params.lt_score, pair_features(lf, tf)).reshape(n, t))


def match_connected_loops(lanes, connected):
    """(m, 2) rows (i, j), one per connected lane: argmin over the lanes of
    each half's distance vector, built one lane at a time."""
    if connected and not lanes:
        raise ValueError("cannot match connected lanes against an empty lane list")
    out = []
    for conn in connected:
        h1, h2 = split_halves_loops(conn.curve.points)
        d1 = np.array([avg_l1_scalar(lane.points, h1) for lane in lanes])
        d2 = np.array([avg_l1_scalar(lane.points, h2) for lane in lanes])
        out.append((int(np.argmin(d1)), int(np.argmin(d2))))
    return np.array(out, dtype=np.intp).reshape(-1, 2)


def blend_topology_loops(topo, kept, n_out, lam):
    """Pre-flip (ll, lt) of a degraded prediction, one entry at a time."""
    def blended(gt_val):
        return (1.0 - lam) * gt_val + 0.5 * lam

    kept = list(kept)
    n_traffic = topo.lt.shape[1]
    ll = np.zeros((n_out, n_out))
    for a, ia in enumerate(kept):
        for b, ib in enumerate(kept):
            ll[a, b] = blended(topo.ll[ia, ib])
    for a in range(n_out):
        for b in range(n_out):
            if a >= len(kept) or b >= len(kept):
                ll[a, b] = blended(0.0)
    lt = np.zeros((n_out, n_traffic))
    for a, ia in enumerate(kept):
        for t in range(n_traffic):
            lt[a, t] = blended(topo.lt[ia, t])
    for a in range(len(kept), n_out):
        for t in range(n_traffic):
            lt[a, t] = blended(0.0)
    return ll, lt


def perturb_graded(scene, noise, seed=0, score_noise=0.0, topo_flip_rate=0.0):
    """A degraded prediction with graded scores and topology: perturb as it
    was before predict stopped reading anything but its lanes, and the
    oracle of perturb at zero score_noise and topo_flip_rate.

    The lanes are degrade_lanes's, the first draws of the stream; lane
    scores are 1 less 0.3 |N(0, score_noise)|, clipped to [0.05, 1], and
    U(0.1, 0.5) for spurious lanes; topology scores are the binary ground
    truth blended toward 0.5 by score_noise (blend_topology_loops), then
    flipped entrywise with probability topo_flip_rate; traffic scores 1.
    """
    rng = np.random.default_rng(seed)
    lanes, kept = degrade_lanes(scene.lane_stack(), noise, rng)

    n_out = len(lanes)
    scores = np.ones(n_out)
    if score_noise > 0:
        jitter = np.abs(rng.normal(0.0, score_noise, size=n_out))
        scores = np.clip(1.0 - 0.3 * jitter, 0.05, 1.0)
    for k in range(len(kept), n_out):
        scores[k] = rng.uniform(0.1, 0.5)  # spurious lanes rank low

    ll, lt = blend_topology_loops(scene.topo, kept, n_out, score_noise)
    if topo_flip_rate > 0:
        flip = rng.random(ll.shape) < topo_flip_rate
        ll = np.where(flip, 1.0 - ll, ll)
    np.fill_diagonal(ll, 0.0)
    if topo_flip_rate > 0 and lt.size:
        flip = rng.random(lt.shape) < topo_flip_rate
        lt = np.where(flip, 1.0 - lt, lt)

    traffic = [replace(el, score=1.0) for el in scene.traffic]
    return Prediction(lanes=lanes, lane_scores=scores, traffic=traffic,
                      topo=TopologyGraph(ll=ll, lt=lt))


def perturb_lanes_loops(scene, noise, seed=0):
    """perturb's kept lanes, jittered one lane at a time with one normal draw
    each and validated as a Polyline3D (whose ValueError it raises)."""
    rng = np.random.default_rng(seed)
    n = len(scene.lanes)
    keep = rng.random(n) >= noise.drop_rate if noise.drop_rate > 0 else np.ones(n, bool)
    out = []
    for i in np.flatnonzero(keep):
        pts = scene.lanes[i].points
        jitter = rng.normal(0.0, noise.point_sigma, size=pts.shape) \
            if noise.point_sigma > 0 else 0.0
        out.append(Polyline3D(pts + jitter).points)
    return out


def widen_loops(lanes, width):
    """(left, right) boundary points per lane, one lane at a time, each
    boundary validated by Polyline3D (whose ValueError it raises)."""
    out = []
    for lane in lanes:
        pts = np.asarray(getattr(lane, "points", lane), dtype=np.float64)
        tan = np.gradient(pts, axis=0)
        normal = np.stack([-tan[:, 1], tan[:, 0], np.zeros(len(pts))], axis=1)
        norms = np.linalg.norm(normal, axis=1, keepdims=True)
        fallback = np.tile([0.0, 1.0, 0.0], (len(pts), 1))
        normal = np.where(norms > 1e-12, normal / np.maximum(norms, 1e-12), fallback)
        half = 0.5 * width
        out.append((Polyline3D(pts + half * normal).points,
                    Polyline3D(pts - half * normal).points))
    return out


def stacks_by_count(polys: list):
    """(indices, stacked (len, n, 3) array) for each point count n among the
    polylines or point arrays polys, in increasing n."""
    pts = [np.asarray(getattr(p, "points", p), dtype=np.float64) for p in polys]
    counts = np.array([len(p) for p in pts], dtype=int)
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        yield idx, np.stack([pts[i] for i in idx])


def endpoint_bound(a: list, b: list) -> np.ndarray:
    """(len(a), len(b)) lower bounds on discrete_frechet(a[i], b[j]): the
    larger of the first points' and the last points' gaps, from one
    _point_gaps call each (the per-scene kernel the grouped one replaced)."""
    def ends(polys):  # (2, 1, len(polys), 3): first points, then last points
        return np.array([(P[0], P[-1]) for P in
                         (np.asarray(getattr(p, "points", p), dtype=np.float64) for p in polys)],
                        dtype=np.float64).reshape(-1, 1, 2, 3).transpose(2, 1, 0, 3)

    (first_a, last_a), (first_b, last_b) = ends(a), ends(b)
    return np.maximum(_point_gaps(first_a, first_b)[0], _point_gaps(last_a, last_b)[0])


def pair_matrix(kernel, a: list, b: list, keep: np.ndarray) -> np.ndarray:
    """kernel(a[i], b[j]) where keep[i, j], inf elsewhere, one call per pair
    of point counts of one scene's lists."""
    out = np.full(keep.shape, np.inf)
    b_stacks = list(stacks_by_count(b))
    for ia, A in stacks_by_count(a):
        for ib, B in b_stacks:
            p, g = np.divmod(np.flatnonzero(keep[np.ix_(ia, ib)]), ib.size)
            if p.size:
                out[ia[p], ib[g]] = kernel(A[p], B[g])
    return out


def frechet_matrix(a: list, b: list, cut: float) -> np.ndarray:
    """(len(a), len(b)) discrete Frechet distances, exact below cut, inf
    where the endpoint bound reaches it."""
    return pair_matrix(frechet_pairs, a, b, endpoint_bound(a, b) < cut)


def segment_matrix(a, b, centerline: np.ndarray, cut: float) -> np.ndarray:
    """(len(a), len(b)) lane-segment distances, exact below cut: the mean of
    the boundary Chamfer distance of the boundary points a[i] and b[j]
    (left then right, (2n, 3)) and the centerline Frechet matrix, the
    Chamfer term only where the centerline term is under 2 * cut."""
    return 0.5 * (pair_matrix(chamfer_pairs, a, b, centerline < 2.0 * cut) + centerline)


def lane_boundaries(lanes: list, width: float) -> list:
    """Each lane's left then right boundary points, (2n, 3), from one widen
    call per point count; the first lane with a flawed boundary raises its
    Polyline3D message, left boundary before right."""
    out = [None] * len(lanes)
    for idx, P in stacks_by_count(lanes):
        left, right, flaws = widen(P, width)
        if flaws.any():
            raise ValueError(FLAWS[np.argwhere(flaws)[0, 1] % 2])
        for k, bounds in zip(idx, np.concatenate([left, right], axis=1)):
            out[k] = bounds
    return out


def lane_matrices_per_scene(pred, scene, cut, width, segment_cut):
    """(lane matrix, segment matrix or None) of one scene, as evaluate built
    them before the grouped kernel stage: the segment cut doubled into the
    lane cut, boundaries widened one list at a time."""
    if width is None:
        return frechet_matrix(pred.lanes, scene.lanes, cut), None
    lanes = frechet_matrix(pred.lanes, scene.lanes, max(cut, 2.0 * segment_cut))
    return lanes, segment_matrix(lane_boundaries(pred.lanes, width),
                                 lane_boundaries(scene.lanes, width), lanes, segment_cut)


def average_precision_loops(tp_flags, n_gt):
    """AP of a ranked true/false-positive list, one rank at a time: the
    precision at each rank, interpolated from the right by a running
    maximum, then the interpolated precisions at the true positives summed
    in rank order by numpy's sum (the library's summation)."""
    if n_gt == 0:
        return 1.0 if len(tp_flags) == 0 else 0.0
    precision, tp = [], 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += bool(flag)
        precision.append(tp / k)
    best, at_tp = 0.0, []
    for p, flag in zip(reversed(precision), reversed(list(tp_flags))):
        best = max(best, p)
        if flag:
            at_tp.append(best)
    return float(np.sum(at_tp[::-1]) / n_gt)


def box_area(box) -> float:
    return float((box[2] - box[0]) * (box[3] - box[1]))


def box_iou(a, b) -> float:
    """Intersection over union of two (x_min, y_min, x_max, y_max) boxes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = box_area(a) + box_area(b) - inter
    return float(inter / union) if union > 0.0 else 0.0


def det_t_loops(pred, scene, iou_threshold):
    """DET_t one category at a time: box_iou per pair (-1 across
    categories), greedy_match_loops, then the mean over the ground-truth
    categories of average_precision_loops of each category's ranked flags;
    with no ground truth, 1.0 for no prediction and 0.0 otherwise."""
    cats = sorted({el.category for el in scene.traffic})
    if not cats:
        return 1.0 if not pred.traffic else 0.0
    iou = np.array([[box_iou(pe.bbox, ge.bbox) if pe.category == ge.category else -1.0
                     for ge in scene.traffic] for pe in pred.traffic])
    flags, _, order = greedy_match_loops(iou.reshape(len(pred.traffic), len(scene.traffic)),
                                         [el.score for el in pred.traffic],
                                         iou_threshold, better_below=False)
    aps = []
    for cat in cats:
        ranked = [f for f, p in zip(flags, order) if pred.traffic[p].category == cat]
        aps.append(average_precision_loops(
            ranked, sum(el.category == cat for el in scene.traffic)))
    return float(np.mean(aps))


def vertex_ap_loops(gt_row, score_row, col_to_gt):
    """AP of one vertex's ranked predicted edges, flags built one edge at a time.

    score_row is None for an unmatched vertex; col_to_gt maps prediction
    columns to ground-truth columns, -1 for unmatched.
    """
    n_gt_edges = int(gt_row.sum())
    if score_row is None:
        return 0.0
    cols = np.nonzero(score_row > 0.0)[0]
    if cols.size == 0:
        return 1.0 if n_gt_edges == 0 else 0.0
    order = cols[rank_by_score(score_row[cols])]
    flags = [w >= 0 and gt_row[w] == 1.0 for w in col_to_gt[order]]
    return average_precision_loops(flags, n_gt_edges)


def topology_score_loops(gt_adj, score_mat, row_to_gt, col_to_gt):
    """Mean vertex_ap_loops over the ground-truth vertices with outgoing edges;
    a GT without edges scores 1.0 unless some score is positive."""
    gt_to_row = {int(g): r for r, g in enumerate(row_to_gt) if g >= 0}
    aps = [vertex_ap_loops(gt_adj[v], score_mat[gt_to_row[v]] if v in gt_to_row else None,
                           col_to_gt)
           for v in range(gt_adj.shape[0]) if gt_adj[v].sum() > 0]
    if not aps:
        return 0.0 if score_mat.size and score_mat.max() > 0.0 else 1.0
    return float(np.mean(aps))


def walk(obj):
    """obj as plain JSON data: every float rounded by round9, numpy values
    and tuples made Python ones, dict keys str()-ed."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return round9(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return walk(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [walk(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): walk(v) for k, v in obj.items()}
    return obj


def dumps_walk(obj) -> str:
    """The JSON text lanetopo.serialize.dumps must write, one float at a time."""
    return json.dumps(walk(obj), separators=(",", ":")) + "\n"


def float_array_9g(a: np.ndarray) -> str:
    """JSON text of a float array as serialize._float_array wrote it before
    short values got their own cells: every plain value (normal, finite,
    further than a relative 1e-8 from an integer) in one "%.9g" pass, an
    integral value under 1e9 as "%.1f", and every other value as json.dumps
    writes round9 of it."""
    x = a.astype(np.float64, copy=False).reshape(-1, a.shape[-1])
    with np.errstate(invalid="ignore"):
        mag = np.abs(x)
        off = np.abs(x - np.rint(x))
        whole = (off == 0.0) & (mag < 1e9)
        plain = (off > mag * 1e-8) & (mag >= np.finfo(np.float64).tiny)
    specs = np.where(plain, "%.9g", np.where(whole, "%.1f", "%s")).tolist()
    values = x.tolist()
    rows = []
    for spec_row, value_row, plain_row, whole_row in zip(specs, values, plain, whole):
        args = [v if p or w else json.dumps(round9(v)) for v, p, w
                in zip(value_row, plain_row, whole_row)]
        rows.append("[" + ",".join(spec % v for spec, v in zip(spec_row, args)) + "]")
    for n in reversed(a.shape[:-1]):
        rows = ["[" + ",".join(rows[k:k + n]) + "]" for k in range(0, len(rows), n)]
    return rows[0]


def softmax_rows_copies(z: np.ndarray) -> np.ndarray:
    """Row softmax with a new array per step: the shift, its exp and the
    quotient, as nn.softmax_rows computed it before it worked in place."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_forward_lists(params, x):
    """mlp_forward_cached as it was, and, through its output alone,
    mlp_forward: each layer's product, bias sum and ReLU a new array, every
    layer input and pre-activation kept in lists."""
    h = x
    inputs, preacts = [], []
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if l != last else z
    return h, (inputs, preacts)


def mlp_backward_reshaped(params, cache, gy):
    """mlp_backward as it was: every layer's input and gradient reshaped to
    rows, 2-D or not, and the ReLU mask applied to a new array."""
    inputs, preacts = cache
    last = params.n_layers - 1
    g = gy
    gws, gbs = [None] * (last + 1), [None] * (last + 1)
    for l in range(last, -1, -1):
        if l != last:
            g = g * (preacts[l] > 0.0)
        h = inputs[l]
        gws[l] = h.reshape(-1, h.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        gbs[l] = g.reshape(-1, g.shape[-1]).sum(axis=0)
        g = g @ params.weights[l].T
    return g, MlpParams(weights=gws, biases=gbs)


def layer_norm_mean_var(x, gain, bias):
    """Layer norm forward by np.mean and np.var, x - mean taken in each."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv)


def layer_norm_backward_means(cache, gain, gy):
    """Layer norm backward with np.mean for its two row means."""
    xhat, inv = cache
    c = xhat.shape[-1]
    gxhat = gy * gain
    gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return gx, (gy * xhat).reshape(-1, c).sum(axis=0), gy.reshape(-1, c).sum(axis=0)


def softmax_backward_copies(s, gs):
    return s * (gs - (gs * s).sum(axis=-1, keepdims=True))


def masked_cross_attention_copies(params, q, qc, s):
    """masked_cross_attention_forward as it was, a new array per step, on
    the mean/var layer norm: (y, cache), the cache as the library's."""
    c = q.shape[1]
    xq = q @ params.wq + params.bq
    xk = qc @ params.wk + params.bk
    xv = qc @ params.wv + params.bv
    z = xq @ xk.T / np.sqrt(c)
    if s is not None:
        z = z + np.log(s)
    a = softmax_rows_copies(z)
    y, ln_cache = layer_norm_mean_var(a @ xv + q, params.ln_gain, params.ln_bias)
    return y, (q, qc, s, xq, xk, xv, a, ln_cache)


def masked_cross_attention_copies_backward(params, cache, gy):
    """masked_cross_attention_backward as it was: (gq, gqc, gs, grads)."""
    q, qc, s, xq, xk, xv, a, ln_cache = cache
    c = q.shape[1]
    gr, g_gain, g_bias = layer_norm_backward_means(ln_cache, params.ln_gain, gy)
    gq = gr.copy()
    gxv = a.T @ gr
    gz = softmax_backward_copies(a, gr @ xv.T)
    gs = gz / s if s is not None else None
    gxq = gz @ xk / np.sqrt(c)
    gxk = gz.T @ xq / np.sqrt(c)
    gq += gxq @ params.wq.T
    gqc = gxk @ params.wk.T + gxv @ params.wv.T
    grads = CrossAttentionParams(
        wq=q.T @ gxq, bq=gxq.sum(axis=0), wk=qc.T @ gxk, bk=gxk.sum(axis=0),
        wv=qc.T @ gxv, bv=gxv.sum(axis=0), ln_gain=g_gain, ln_bias=g_bias)
    return gq, gqc, gs, grads


def sigmoid_mask_rebuilt(params, d, block):
    """sigmoid_mask_forward as it was, on blocks of block entries: the
    blocks' logits concatenated, the cache D and the sigmoid only."""
    flat = d.reshape(-1, 1)
    logits = np.concatenate([mlp_forward_lists(params.mlp, flat[s:s + block])[0]
                             for s in range(0, max(1, len(flat)), block)])
    sg = sigmoid(logits)
    return np.clip(sg, MASK_EPS, 1.0).reshape(d.shape), (d, sg)


def sigmoid_mask_rebuilt_backward(params, cache, gs, block):
    """sigmoid_mask_backward as it was: every block's hidden layer rebuilt
    from D, one block or many."""
    d, sg = cache
    g_logits = gs.reshape(-1, 1) * sg * (1.0 - sg) * (sg >= MASK_EPS)
    flat = d.reshape(-1, 1)
    gd = np.empty(flat.shape)
    mlp_grads = None
    for s in range(0, max(1, len(flat)), block):
        rows = slice(s, s + block)
        _, mlp_cache = mlp_forward_lists(params.mlp, flat[rows])
        gd[rows], grads = mlp_backward_reshaped(params.mlp, mlp_cache, g_logits[rows])
        mlp_grads = add_mlp_grads(mlp_grads, grads)
    return gd.reshape(d.shape), SigmoidMaskParams(mlp=mlp_grads)


def pair_logits_blocks(head, za, zb, rows_per_block):
    """The (n, m) pair logits of a (2c, c, 1) head as heads computed them
    before a grid of one block skipped the loop: rows_per_block rows of
    pairs at a time, each block's ReLU a new array."""
    rest = MlpParams(weights=head.weights[1:], biases=head.biases[1:])
    n, m = len(za), len(zb)
    out = np.empty((n, m))
    for s in range(0, n, rows_per_block):
        z = (za[s:s + rows_per_block, None, :] + zb[None, :, :]).reshape(-1, za.shape[1])
        out[s:s + rows_per_block] = mlp_forward_lists(rest, np.maximum(z, 0.0))[0].reshape(-1, m)
    return out


def pair_backward_blocks(head, a, b, za, zb, g, rows_per_block):
    """heads._pair_backward as it was: each block's ReLU and masked
    gradient new arrays."""
    rest = MlpParams(weights=head.weights[1:], biases=head.biases[1:])
    gza = np.empty_like(za)
    gzb = np.zeros_like(zb)
    rest_grads = None
    for s in range(0, len(za), rows_per_block):
        rows = slice(s, s + rows_per_block)
        z = (za[rows, None, :] + zb[None, :, :]).reshape(-1, za.shape[1])
        _, cache = mlp_forward_lists(rest, np.maximum(z, 0.0))
        gz, grads = mlp_backward_reshaped(rest, cache, g[rows].reshape(-1, 1))
        gz = (gz * (z > 0.0)).reshape(-1, len(zb), gz.shape[1])
        gza[rows] = gz.sum(axis=1)
        gzb += gz.sum(axis=0)
        rest_grads = add_mlp_grads(rest_grads, grads)
    c = a.shape[1]
    w = head.weights[0]
    grads = MlpParams(weights=[np.concatenate([a.T @ gza, b.T @ gzb]), *rest_grads.weights],
                      biases=[gzb.sum(axis=0), *rest_grads.biases])
    return gza @ w[:c].T, gzb @ w[c:].T, grads


def parse_lanes_loops(items):
    """The first error of reading items one validated Polyline3D at a time,
    as 'lane k: message', or None when every lane reads."""
    for k, pts in enumerate(items):
        try:
            Polyline3D(np.asarray(pts, dtype=float))
        except (TypeError, ValueError) as err:
            return f"lane {k}: {err}"
    return None


def brute_force_assignment(cost):
    """Exhaustive minimum-cost assignment. Returns (pairs, total).

    Pairs come back sorted by row and the total is summed in that order, the
    order hungarian returns its pairs in, so totals are comparable bit for bit.
    Only sensible for sides up to about 7.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n == 0 or m == 0:
        return [], 0.0
    best_pairs, best_total = None, None
    if n <= m:
        candidates = (list(enumerate(cols)) for cols in itertools.permutations(range(m), n))
    else:
        candidates = ([(r, c) for c, r in enumerate(rows)]
                      for rows in itertools.permutations(range(n), m))
    for pairs in candidates:
        pairs = sorted(pairs)
        total = sum(float(cost[r, c]) for r, c in pairs)
        if best_total is None or total < best_total:
            best_pairs, best_total = pairs, total
    return best_pairs, best_total


def random_polyline(rng, n, scale=10.0):
    """Random polyline with no consecutive duplicates (scale >> tolerance)."""
    return rng.uniform(-scale, scale, size=(n, 3))


def run_pipeline_per_scene(scene, cfg, params):
    """One scene's Prediction from its own 2-D forward, scored with params."""
    C = connected_curves(scene)
    if cfg.source == "gt":
        L = scene.lane_stack()
    else:
        L = perturb(scene, cfg.noise, cfg.noise_seed).lanes.stack(scene.n_points)
        if cfg.noise.point_sigma > 0:
            C = jittered(C, cfg.noise.point_sigma, np.random.default_rng(cfg.noise_seed + 1))
    L = L[: cfg.n_lane_queries]
    C = C[: cfg.n_lane_queries]
    traffic = list(scene.traffic)[: cfg.n_traffic_queries]

    qt_bar = np.zeros((0, cfg.dims.c))
    if traffic:
        qt = params.enc_traffic.encode(np.array([el.bbox for el in traffic]) / BOX_SCALE)
        qt_bar = self_attention(qt, params.attn)
    t_scores = sigmoid(mlp_forward(params.conf_traffic, qt_bar).reshape(-1))
    out_traffic = [TrafficElement(bbox=el.bbox, category=el.category, score=float(t_scores[k]))
                   for k, el in enumerate(traffic)]

    if not len(L):
        return Prediction(lanes=[], lane_scores=np.zeros(0), traffic=out_traffic,
                          topo=TopologyGraph(ll=np.zeros((0, 0)),
                                             lt=np.zeros((0, len(traffic)))))

    q_hat, ll, _ = params.stack.forward(*queries(params, L, C), cfg.use_tam)
    np.fill_diagonal(ll, 0.0)
    lane_scores = sigmoid(mlp_forward(params.conf_lane, q_hat).reshape(-1))
    lt = predict_lt(q_hat, qt_bar, params.stack.heads)
    return Prediction(lanes=L, lane_scores=lane_scores, traffic=out_traffic,
                      topo=TopologyGraph(ll=ll, lt=lt))
