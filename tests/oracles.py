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
resolve and scatter matched candidates one at a time, topology blending
visits one entry at a time, lanes are jittered and widened one at a time
into validated polylines, vertex APs rank a Python list of flags per
vertex, assignment is full enumeration, JSON is written by rounding
every float on its own before json.dumps, and lanes are read one
validated polyline at a time. None of this is imported by the package
itself.
"""

import itertools
import json
from functools import lru_cache

import numpy as np

from lanetopo.connect import ConnectedLane
from lanetopo.heads import TopologyHeadParams
from lanetopo.metrics import rank_by_score
from lanetopo.nn import add_mlp_grads, mlp_backward, mlp_forward, mlp_forward_cached, sigmoid
from lanetopo.scene import JUNCTION_TOL, Polyline3D
from lanetopo.serialize import round9


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
    gap = float(np.linalg.norm(a.terminal - b.initial))
    return a.terminal.copy() if gap <= JUNCTION_TOL else None


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
            gap = np.linalg.norm(lanes[i].terminal - lanes[j].initial)
            if gap <= JUNCTION_TOL:
                ll[i, j] = 1.0
    return ll


def build_connected_gt_loops(scene):
    """Connected lanes one ll edge at a time, in row-major order: check the
    junction, merge, resample with resample_loops and validate the curve as
    a Polyline3D, raising at the first edge that fails."""
    out = []
    for i, j in zip(*np.nonzero(scene.topo.ll)):
        i, j = int(i), int(j)
        a, b = scene.lanes[i], scene.lanes[j]
        if junction_point(a, b) is None:
            gap = float(np.linalg.norm(a.terminal - b.initial))
            raise ValueError(
                f"lanes ({i}, {j}) are marked connected but their junction is "
                f"{gap:.4f} m apart (tolerance {JUNCTION_TOL})"
            )
        curve = Polyline3D(resample_loops(merge_at_junction(a, b), scene.n_points))
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
    matched candidate at a time: (scores, cache)."""
    n = q_hat.shape[0]
    u1, cache_u1 = mlp_forward_cached(params.unmatch_i, q_hat)
    u2, cache_u2 = mlp_forward_cached(params.unmatch_j, q_hat)
    logit_u, cache_head_u = mlp_forward_cached(params.ll_score, pair_features(u1, u2))
    scores = sigmoid(logit_u.reshape(n, n))

    matched = {}
    cache_m = None
    if pairs:
        xi = np.stack([qc_hat[p.conn] + q_hat[p.i] for p in pairs])
        xj = np.stack([qc_hat[p.conn] + q_hat[p.j] for p in pairs])
        m1, cache_m1 = mlp_forward_cached(params.match_i, xi)
        m2, cache_m2 = mlp_forward_cached(params.match_j, xj)
        logit_m, cache_head_m = mlp_forward_cached(params.ll_score,
                                                   np.concatenate([m1, m2], axis=1))
        s_m = sigmoid(logit_m.reshape(-1))
        # duplicates of one (i, j) keep the maximum, the first on a tie
        for k, p in enumerate(pairs):
            key = (p.i, p.j)
            if key not in matched or s_m[k] > s_m[matched[key]]:
                matched[key] = k
        for (i, j), k in matched.items():
            scores[i, j] = s_m[k]
        cache_m = (cache_m1, cache_m2, cache_head_m, s_m)

    return scores, (n, scores, cache_u1, cache_u2, cache_head_u, pairs, matched, cache_m)


def predict_ll_concat_backward(params, cache, g_scores, n_conn):
    """Gradients of predict_ll_concat wrt q_hat, qc_hat and the head
    parameters, scattered one matched candidate at a time."""
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
    gqc = np.zeros((n_conn, c))
    grads = TopologyHeadParams(match_i=None, match_j=None, unmatch_i=grads_u1,
                               unmatch_j=grads_u2, ll_score=grads_head_u,
                               lt_lane=None, lt_traffic=None, lt_score=None)
    if pairs:
        cache_m1, cache_m2, cache_head_m, s_m = cache_m
        g_logit_m = np.zeros_like(s_m)
        for (i, j), k in matched.items():
            g_logit_m[k] = g_scores[i, j] * s_m[k] * (1.0 - s_m[k])
        gfeat_m, grads_head_m = mlp_backward(params.ll_score, cache_head_m,
                                             g_logit_m.reshape(-1, 1))
        gxi, grads_m1 = mlp_backward(params.match_i, cache_m1, gfeat_m[:, :c])
        gxj, grads_m2 = mlp_backward(params.match_j, cache_m2, gfeat_m[:, c:])
        for k, p in enumerate(pairs):
            gq[p.i] += gxi[k]
            gq[p.j] += gxj[k]
            gqc[p.conn] += gxi[k] + gxj[k]
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
    """(conn, i, j) per connected lane: argmin over the lanes of each half's
    distance vector, built one lane at a time."""
    if connected and not lanes:
        raise ValueError("cannot match connected lanes against an empty lane list")
    out = []
    for c, conn in enumerate(connected):
        h1, h2 = split_halves_loops(conn.curve.points)
        d1 = np.array([avg_l1_scalar(lane.points, h1) for lane in lanes])
        d2 = np.array([avg_l1_scalar(lane.points, h2) for lane in lanes])
        out.append((c, int(np.argmin(d1)), int(np.argmin(d2))))
    return out


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
