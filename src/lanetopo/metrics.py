"""Detection and topology metrics.

Conventions used throughout:

* Instance matching is greedy in descending prediction score (ties broken
  by input index), each ground truth consumable once. A lane prediction
  qualifies for a ground-truth lane below a Frechet distance threshold, a
  traffic prediction at or above an IoU threshold and in the same category.
  Qualifying pairs are sorted once by (rank, distance, ground-truth index)
  and walked: a prediction takes its first pair with a free ground truth,
  the closest free one and the lowest index on a tie, as a loop would.
* Average precision interpolates precision at every achieved recall step
  (area under the precision/recall curve).
* Topology scores are ranked per ground-truth vertex. An entry with score
  exactly 0 is not a predicted edge; edges whose far endpoint is an
  unmatched prediction count as false positives.
* Vacuously perfect cases score 1.0: a metric with nothing to detect and
  nothing predicted is clean, not broken.

Two stages. `evaluate_group` scores a group of (prediction, scene) pairs;
`evaluate` is a group of one. The kernel stage (_lane_matrices) runs each
lane-distance kernel once per point count on the concatenated pairs or
lanes of every scene in the group: the endpoint bounds of every lane pair,
the Frechet DP over the pairs the bounds keep, the widening of every lane
into its lane segment, and the boundary Chamfer over the pairs whose
centerline distance is under twice the segment cut. A kernel's cost is
mostly per call, not per pair, so a group of 64 small scenes costs about
what one scene does. Each kernel is per-pair or per-lane arithmetic, so
each scene's matrices are bitwise the ones a group of one gives.

Shared match context. For a group of scenes, the kernel stage builds
every lane and lane-segment distance once, and each scene reads its own
blocks as (n_pred, n_gt) matrices; the lane Frechet matrix is also the
centerline term of the lane-segment distance. Per scene, the per-scene
stage builds each greedy matching, the traffic IoU matrix (one
box_iou_matrix pass) and the ranking of the predicted ll rows once; DET_l,
DET_t, TOP_ll, TOP_lt and the lane-segment block all read them. One routine
per family: _lane_family on the lane or the segment matrix, _traffic_family,
and _mean_ap, one _precision_sums call for every AP of a family.

Endpoint-bound pruning. A lane pair matches only below a threshold, so a
pair whose distance is at least the largest threshold in use (the cut) can
stay inf without changing any match. Every coupling pairs the first points
and the last points of the two polylines, so the Frechet distance is at
least the larger of those two gaps; they come from the DP's own arithmetic,
and the DP only takes max and min, so the bound holds bitwise and pairs at
or above the cut skip the DP. A lane-segment distance is the mean of a
Chamfer term (>= 0) and the centerline distance, so its centerline cut is
twice its largest threshold. Cuts come from the thresholds passed in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    box_iou_matrix,
    chamfer_pairs,
    check_width,
    endpoint_bounds,
    frechet_pairs,
    widen,
)
from .scene import (
    FLAWS,
    Lanes,
    Prediction,
    Scene,
    checked,
    prediction_shape_errors,
    topology_shape_errors,
)

DET_L_THRESHOLDS = (1.0, 2.0, 3.0)
DET_T_IOU = 0.75
TOP_FRECHET = 1.5
TOP_IOU = 0.75
LS_THRESHOLDS = (1.0, 2.0, 3.0)
LS_TOP_THRESHOLD = 1.5
# the largest lane-segment threshold: segment distances are exact below it
SEGMENT_CUT = max(*LS_THRESHOLDS, LS_TOP_THRESHOLD)


class ScoringError(ValueError):
    """A pair of a scored group that cannot be scored: item is its index in
    the group, side 0 its prediction and 1 its scene; the message names the
    problem, not the pair."""

    def __init__(self, item: int, side: int, message: str):
        super().__init__(message)
        self.item, self.side = item, side


@dataclass(frozen=True)
class LaneSegmentReport:
    """The lane-segment block of evaluate, scored on the segment matrix as
    DET_l and TOP_ll are on the lane matrix. Every segment it builds is a
    "lane", so ap_ped, the pedestrian-crossing AP of the report formats, is
    always None; ap_ls is None, and map 1.0, with no lane either side."""

    map: float
    ap_ls: float | None
    ap_ped: float | None
    top_lsls: float


@dataclass(frozen=True)
class MetricReport:
    det_l: float
    det_t: float
    top_ll: float
    top_lt: float
    ols: float
    lane_segments: LaneSegmentReport | None = None


# the thresholds evaluate accepts, as the CLI checks them too
check_distance = functools.partial(checked, "distance threshold", lo=0.0, above=True)
check_iou = functools.partial(checked, "IoU threshold", lo=0.0, hi=1.0, above=True)


def valid_distances(values) -> tuple[float, ...]:
    """values as floats, each through check_distance; ValueError for none."""
    values = tuple(check_distance(float(v)) for v in values)
    if not values:
        raise ValueError("need at least one distance threshold")
    return values


def average_precision(tp_flags, n_gt: int) -> float:
    """AP of a ranked true/false-positive list against n_gt ground truths."""
    if n_gt == 0:
        return 1.0 if len(tp_flags) == 0 else 0.0
    if len(tp_flags) == 0:
        return 0.0
    return float(_precision_sums(np.asarray(tp_flags, dtype=bool)[None])[0] / n_gt)


def _precision_sums(flags: np.ndarray) -> np.ndarray:
    """Per row of ranked true-positive flags (V, K), the sum of the
    interpolated precision at each true positive: AP times the row's
    ground-truth count. Rows are summed in groups of equal true-positive
    count, so each sum runs over its own values in rank order."""
    precision = np.cumsum(flags, axis=1) / np.arange(1, flags.shape[1] + 1)
    # precision interpolated from the right: best precision at recall >= r
    p_interp = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    n_tp = flags.sum(axis=1)
    sums = np.zeros(len(flags))
    for t in set(n_tp.tolist()) - {0}:
        rows = n_tp == t
        sums[rows] = p_interp[rows][flags[rows]].reshape(-1, t).sum(axis=1)
    return sums


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Indices in descending score order along the last axis; ties keep input order."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def greedy_match(dist: np.ndarray, scores: np.ndarray, threshold: float,
                 better_below: bool = True):
    """Greedy one-to-one matching of predictions (rows) to ground truth (cols).

    Predictions are visited in descending score; each takes the best still
    unmatched ground truth that clears the threshold (distance strictly
    below it, or similarity at or above it), the lowest index on a tie: the
    entries that clear (NaN never does) are sorted by (rank, distance or
    negated similarity, column), and a rank takes its first free column.
    Returns (tp_flags in ranked order, pred_to_gt map, ranked order).
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or np.shape(scores) != dist.shape[:1]:
        raise ValueError(f"dist shape {dist.shape} does not fit scores shape {np.shape(scores)}")
    order = rank_by_score(scores)
    ranked = dist[order]
    # flat indices: np.nonzero of a 2-D mask costs several times as much
    flat = np.flatnonzero(ranked < threshold if better_below else ranked >= threshold)
    rank, col = np.divmod(flat, dist.shape[1])
    key = ranked.ravel()[flat]
    walk = np.lexsort((col, key if better_below else -key, rank))
    free = [True] * dist.shape[1]
    to_gt = [-1] * order.size  # per rank
    for r, g in zip(rank[walk].tolist(), col[walk].tolist()):
        if to_gt[r] < 0 and free[g]:
            free[g], to_gt[r] = False, g
    to_gt = np.array(to_gt, dtype=int)
    return to_gt >= 0, to_gt[np.argsort(order)], order


def _group_lanes(docs) -> tuple[np.ndarray, Lanes]:
    """(offsets (S + 1,) where each document's lanes start, every lane of the
    documents docs in order as one Lanes)."""
    parts = [doc.lanes for doc in docs]
    return np.cumsum([0, *map(len, parts)]), Lanes(
        np.concatenate([np.zeros((0, 3)), *(p.points for p in parts)]),
        np.cumsum(np.concatenate([[0], *(p.counts for p in parts)])))


def _pair_kernel(kernel, a: Lanes, b: Lanes, pa: np.ndarray, pb: np.ndarray,
                 keep: np.ndarray) -> np.ndarray:
    """kernel(lane pa[k] of a, lane pb[k] of b) for the pairs k where keep,
    inf elsewhere: one call per pair of point counts, and no search for the
    counts when each side's lanes share one."""
    out = np.full(pa.shape, np.inf)
    keep = np.flatnonzero(keep)
    sa, sb = a.stack(), b.stack()
    if sa is not None and sb is not None:
        if keep.size:
            out[keep] = kernel(sa[pa[keep]], sb[pb[keep]])
        return out
    ca, cb = a.counts[pa[keep]], b.counts[pb[keep]]
    for n in np.unique(ca).tolist():
        for m in np.unique(cb).tolist():
            sel = keep[(ca == n) & (cb == m)]
            if sel.size:
                out[sel] = kernel(a.gather(pa[sel], n), b.gather(pb[sel], m))
    return out


def _boundaries(lanes: Lanes, offsets: np.ndarray, width: float, which: int):
    """(each lane's left then right boundary points as a Lanes; the first lane,
    its document's at offsets, whose boundary Polyline3D would reject, as a
    ScoringError with which as its side, or None). Lanes that share one point
    count are widened in one call with no scatter."""
    stack = lanes.stack() if len(lanes) else None  # np.gradient refuses 0 points
    if stack is not None:
        left, right, flaws = widen(stack, width)
        bounds = Lanes(np.concatenate([left, right], axis=1).reshape(-1, 3), 2 * lanes.offsets)
    else:
        bounds = Lanes(np.empty((2 * len(lanes.points), 3)), 2 * lanes.offsets)
        flaws = np.zeros((len(lanes), 4), dtype=bool)
        for n in np.unique(lanes.counts).tolist():
            idx = np.flatnonzero(lanes.counts == n)
            left, right, flaws[idx] = widen(lanes.gather(idx, n), width)
            bounds.points[bounds.offsets[idx, None] + np.arange(2 * n)] = \
                np.concatenate([left, right], axis=1)
    bad = np.flatnonzero(flaws.any(axis=1))
    if not bad.size:
        return bounds, None
    item = int(np.searchsorted(offsets, bad[0], side="right")) - 1
    flaw = int(np.argmax(flaws[bad[0]]))
    return bounds, ScoringError(item, which, f"lane {bad[0] - offsets[item]}: "
                                f"{('left', 'right')[flaw // 2]} boundary at lane width "
                                f"{width:g}: {FLAWS[flaw % 2]}")


def _lane_matrices(pairs: list, cut: float, width: float | None) -> list:
    """The kernel stage: per (prediction, scene) pair, its lane Frechet matrix
    (exact below cut) and, with a lane width, its lane-segment matrix (exact
    below SEGMENT_CUT; see the module docstring), else None.

    Each kernel runs once per point count on every pair or lane of the
    group; each pair's or lane's arithmetic is that of a group of one, so
    every matrix is bitwise the same whatever else the group holds. A lane
    whose boundary cannot be built raises ScoringError, the first in group
    order, before any distance is taken. A distance that overflows is inf.
    """
    (ao, a), (bo, b) = _group_lanes([p for p, _ in pairs]), _group_lanes([s for _, s in pairs])
    if width is not None:
        a_bounds, a_err = _boundaries(a, ao, width, 0)
        b_bounds, b_err = _boundaries(b, bo, width, 1)
        errors = [err for err in (a_err, b_err) if err is not None]
        if errors:
            raise min(errors, key=lambda err: err.item)
        cut = max(cut, 2.0 * SEGMENT_CUT)
    # every (prediction lane, scene lane) pair of every scene, scene by scene, row-major
    na, nb = np.diff(ao), np.diff(bo)
    starts = np.cumsum([0, *(na * nb)])
    item = np.repeat(np.arange(len(pairs)), na * nb)
    i, j = np.divmod(np.arange(starts[-1]) - starts[item], nb[item])
    pa, pb = ao[item] + i, bo[item] + j
    with np.errstate(over="ignore"):
        bound = endpoint_bounds(a.ends, b.ends, pa, pb)
        lanes = _pair_kernel(frechet_pairs, a, b, pa, pb, bound < cut)
        segments = None if width is None else 0.5 * (_pair_kernel(
            chamfer_pairs, a_bounds, b_bounds, pa, pb, lanes < 2.0 * SEGMENT_CUT) + lanes)
    blocks = zip(starts[:-1].tolist(), starts[1:].tolist(), na.tolist(), nb.tolist())
    return [(lanes[s:e].reshape(n, m), None if segments is None else segments[s:e].reshape(n, m))
            for s, e, n, m in blocks]


def _mean_ap(rows, n_gts) -> float:
    """Mean AP of ranked flag rows, row k against n_gts[k] ground truths: the
    rows with a ground truth and a prediction in one _precision_sums call,
    padded with false positives, which lower no interpolated precision at a
    true positive (see _vertex_aps); average_precision scores the others."""
    aps = np.array([np.nan if n and len(row) else average_precision(row, n)
                    for row, n in zip(rows, n_gts)])
    live = np.flatnonzero(np.isnan(aps))
    if live.size:
        flags = np.zeros((live.size, max(len(rows[k]) for k in live)), dtype=bool)
        for flag, k in zip(flags, live.tolist()):
            flag[:len(rows[k])] = rows[k]
        aps[live] = _precision_sums(flags) / np.asarray(n_gts)[live]
    return float(np.mean(aps))


def _lane_family(dist: np.ndarray, scores, n_gt: int, thresholds, top: float) -> tuple:
    """(mean AP over thresholds, pred-to-GT map at top) of the greedy
    matchings on the lane or lane-segment matrix dist, one per threshold."""
    match = {thr: greedy_match(dist, scores, thr) for thr in {*thresholds, top}}
    return _mean_ap([match[thr][0] for thr in thresholds], [n_gt] * len(thresholds)), match[top][1]


def _traffic_family(pred: Prediction, scene: Scene, iou: float, top: float) -> tuple:
    """(DET_t, pred-to-GT map at top) of the greedy matchings by box IoU, -1
    across categories. DET_t is the mean AP at iou over the ground-truth
    categories, with none the AP of every prediction against none."""
    pred_cats, gt_cats = pred.traffic.categories, scene.traffic.categories
    ious = np.where(pred_cats[:, None] == gt_cats,
                    box_iou_matrix(pred.traffic.boxes, scene.traffic.boxes), -1.0)
    scores = np.zeros(len(pred.traffic)) if pred.traffic.scores is None else pred.traffic.scores
    match = {thr: greedy_match(ious, scores, thr, better_below=False) for thr in {iou, top}}
    flags, _, order = match[iou]
    cats, n_gts = np.unique(gt_cats, return_counts=True)
    rows = [flags[pred_cats[order] == cat] for cat in cats] if cats.size else [flags]
    return _mean_ap(rows, n_gts if cats.size else [0]), match[top][1]


def det_l(pred: Prediction, scene: Scene,
          thresholds=DET_L_THRESHOLDS) -> float:
    """Lane detection score: AP over Frechet thresholds, averaged; shapes checked as in evaluate."""
    shape_errors = prediction_shape_errors(pred)
    if shape_errors:
        raise ValueError(shape_errors[0])
    thresholds = valid_distances(thresholds)
    [(dist, _)] = _lane_matrices([(pred, scene)], max(thresholds), None)
    # the map is not read: a top among the thresholds takes no matching of its own
    return _lane_family(dist, pred.lane_scores, len(scene.lanes), thresholds, thresholds[0])[0]


def _vertex_aps(gt_rows: np.ndarray, score_rows: np.ndarray, order: np.ndarray,
                col_to_gt: np.ndarray) -> np.ndarray:
    """AP of each matched vertex's outgoing predicted edges against its GT edges.

    gt_rows (V, G) are the vertices' binary GT rows, each with an edge;
    score_rows (V, C) their matched predictions' score rows, where an entry
    that is not positive is no edge, and order their rank_by_score rows.
    col_to_gt maps prediction columns to GT columns (-1 for unmatched
    endpoints, which makes their edges false positives). Each AP is
    average_precision of the row's ranked edge flags, bit for bit: the
    edges rank first, and a rank past a row's last true positive has a
    lower precision than that true positive, so the ranks that are no
    edge change no interpolated precision.
    """
    edge = np.take_along_axis(score_rows, order, axis=1) > 0.0  # the ranked edges come first
    w = col_to_gt[order]
    flags = edge & (w >= 0) & (np.take_along_axis(gt_rows, w, axis=1) == 1.0)
    return _precision_sums(flags) / gt_rows.sum(axis=1).astype(int)


def _topology_score(gt_adj: np.ndarray, score_mat: np.ndarray,
                    row_to_gt: np.ndarray, col_to_gt: np.ndarray, ranks=None) -> float:
    """Mean vertex AP over the ground-truth vertices with outgoing edges; an
    unmatched vertex scores 0.

    row_to_gt maps the rows of score_mat (predictions) to ground-truth
    rows, col_to_gt its columns to ground-truth columns; -1 is unmatched.
    ranks is rank_by_score(score_mat), taken here when not given.
    """
    gt_to_row = np.full(gt_adj.shape[0], -1)
    rows = np.flatnonzero(row_to_gt >= 0)
    gt_to_row[row_to_gt[rows]] = rows
    vertices = np.flatnonzero(gt_adj.sum(axis=1) > 0)
    if not vertices.size:
        any_edge = score_mat.size and float(np.max(score_mat)) > 0.0
        return 0.0 if any_edge else 1.0
    aps = np.zeros(vertices.size)
    matched = np.flatnonzero(gt_to_row[vertices] >= 0)
    rows = gt_to_row[vertices[matched]]
    ranks = rank_by_score(score_mat) if ranks is None else ranks
    aps[matched] = _vertex_aps(gt_adj[vertices[matched]], score_mat[rows], ranks[rows], col_to_gt)
    return float(np.mean(aps))


def ols(det_l_score: float, det_t_score: float, top_ll_score: float,
        top_lt_score: float) -> float:
    """Overall score: mean of the detection scores and the square roots of
    the topology scores."""
    return 0.25 * (det_l_score + det_t_score
                   + np.sqrt(top_ll_score) + np.sqrt(top_lt_score))


def _scene_report(pred: Prediction, scene: Scene, lane_dist: np.ndarray,
                  segment_dist: np.ndarray | None, det_l_thresholds, det_t_iou: float,
                  top_frechet: float, top_iou: float) -> MetricReport:
    """The per-scene stage: every matching and score of one scene from its
    kernel-stage matrices, the thresholds already checked. TOP_lsls is TOP_ll,
    not computed again, when the segment matching is TOP_ll's."""
    scores, n_gt = pred.lane_scores, len(scene.lanes)
    d_l, lane_to_gt = _lane_family(lane_dist, scores, n_gt, det_l_thresholds, top_frechet)
    d_t, traffic_to_gt = _traffic_family(pred, scene, det_t_iou, top_iou)
    ll_ranks = rank_by_score(pred.topo.ll)  # TOP_ll and TOP_lsls rank the same rows
    t_ll = _topology_score(scene.topo.ll, pred.topo.ll, lane_to_gt, lane_to_gt, ll_ranks)
    t_lt = _topology_score(scene.topo.lt, pred.topo.lt, lane_to_gt, traffic_to_gt)
    block = None
    if segment_dist is not None:
        ap, seg_to_gt = _lane_family(segment_dist, scores, n_gt, LS_THRESHOLDS, LS_TOP_THRESHOLD)
        top_lsls = t_ll if np.array_equal(seg_to_gt, lane_to_gt) else _topology_score(
            scene.topo.ll, pred.topo.ll, seg_to_gt, seg_to_gt, ll_ranks)
        block = LaneSegmentReport(map=ap, ap_ls=ap if len(pred.lanes) or n_gt else None,
                                  ap_ped=None, top_lsls=top_lsls)
    return MetricReport(det_l=d_l, det_t=d_t, top_ll=t_ll, top_lt=t_lt,
                        ols=float(ols(d_l, d_t, t_ll, t_lt)),
                        lane_segments=block)


def evaluate_group(pairs, det_l_thresholds=DET_L_THRESHOLDS,
                   det_t_iou: float = DET_T_IOU,
                   top_frechet: float = TOP_FRECHET,
                   top_iou: float = TOP_IOU,
                   lane_width: float | None = None) -> list[MetricReport]:
    """Full metric reports of a group of (prediction, scene) pairs, in order,
    each the report evaluate gives for its pair alone.

    What evaluate refuses raises here as a ScoringError naming the first
    pair and side that cannot be scored: a shape that does not fit (see
    evaluate), then, once the thresholds and lane width are checked
    (ValueError), a lane whose boundary at lane_width is not a polyline.
    """
    pairs = list(pairs)
    for item, (pred, scene) in enumerate(pairs):
        for side, errors in enumerate((prediction_shape_errors(pred),
                                       topology_shape_errors(scene))):
            if errors:
                raise ScoringError(item, side, errors[0])
    det_l_thresholds = valid_distances(det_l_thresholds)
    top_frechet = check_distance(float(top_frechet))
    det_t_iou, top_iou = check_iou(float(det_t_iou)), check_iou(float(top_iou))
    if lane_width is not None:
        lane_width = check_width(lane_width)
    matrices = _lane_matrices(pairs, max(*det_l_thresholds, top_frechet), lane_width)
    return [_scene_report(pred, scene, lane_dist, segment_dist, det_l_thresholds,
                          det_t_iou, top_frechet, top_iou)
            for (pred, scene), (lane_dist, segment_dist) in zip(pairs, matrices)]


def evaluate(pred: Prediction, scene: Scene,
             det_l_thresholds=DET_L_THRESHOLDS,
             det_t_iou: float = DET_T_IOU,
             top_frechet: float = TOP_FRECHET,
             top_iou: float = TOP_IOU,
             lane_width: float | None = None) -> MetricReport:
    """Full metric report for one scene: evaluate_group on a group of one.

    lane_width, when given, fills the optional lane-segment block: the
    lanes of pred and scene are widened into "lane" segments of that width
    (see widen and _scene_report). A lane_scores, topo.ll or topo.lt
    whose shape does not fit pred's lanes and traffic raises ValueError
    with validate_prediction's message, and a topo.ll or topo.lt that does
    not fit scene's with validate_scene's, as do a lane width that is not
    finite and positive, thresholds that cannot be scored (non-finite or
    non-positive distances, IoU outside (0, 1]) and a lane whose boundary
    is not a polyline (non-finite, or with consecutive duplicate points),
    named by its index in its own lanes.
    """
    return evaluate_group([(pred, scene)], det_l_thresholds, det_t_iou, top_frechet,
                          top_iou, lane_width)[0]
