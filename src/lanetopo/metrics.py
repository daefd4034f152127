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

Shared match context. `evaluate` builds the lane Frechet matrix, the
traffic IoU matrix, each greedy matching and the ranking of the predicted
ll rows once per scene; DET_l, DET_t, TOP_ll, TOP_lt and the lane-segment
block all read them. `evaluate` widens the segments from the same lanes,
in one array pass per point count, so the lane matrix is also their
centerline term.

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

from .geometry import box_iou, check_width, frechet_matrix, lane_boundaries, segment_matrix
from .scene import Prediction, Scene, checked, prediction_shape_errors, topology_shape_errors

DET_L_THRESHOLDS = (1.0, 2.0, 3.0)
DET_T_IOU = 0.75
TOP_FRECHET = 1.5
TOP_IOU = 0.75
LS_THRESHOLDS = (1.0, 2.0, 3.0)
LS_TOP_THRESHOLD = 1.5


@dataclass(frozen=True)
class LaneSegmentReport:
    """The lane-segment block of evaluate. Every segment it builds is a
    "lane", so ap_ped, the pedestrian-crossing AP of the report formats, is
    always None."""

    map: float
    ap_lane: float | None
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
    flags = np.asarray(tp_flags, dtype=bool)
    tp_cum = np.cumsum(flags)
    precision = tp_cum / np.arange(1, flags.size + 1)
    # precision interpolated from the right: best precision at recall >= r
    p_interp = np.maximum.accumulate(precision[::-1])[::-1]
    return float(p_interp[flags].sum() / n_gt)


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


def _lane_matches(pred: Prediction, scene: Scene, thresholds, cut: float):
    """(Frechet matrix exact below cut, {threshold: greedy matching}), one
    matching per distinct threshold."""
    dist = frechet_matrix(pred.lanes, scene.lanes, cut)
    return dist, {thr: greedy_match(dist, pred.lane_scores, thr) for thr in set(thresholds)}


def _traffic_matches(pred: Prediction, scene: Scene, thresholds) -> dict:
    """{threshold: greedy matching} by box IoU; boxes of different categories
    get IoU -1 and never match."""
    pt, gt = pred.traffic, scene.traffic
    iou = np.array([[box_iou(pe.bbox, ge.bbox) if pe.category == ge.category else -1.0
                     for ge in gt] for pe in pt]).reshape(len(pt), len(gt))
    scores = [0.0 if el.score is None else el.score for el in pt]
    return {thr: greedy_match(iou, scores, thr, better_below=False) for thr in set(thresholds)}


def _mean_ap(matches, thresholds, n_gt: int) -> float:
    """Mean over thresholds of the AP of each matching's ranked flags."""
    return float(np.mean([average_precision(matches(thr)[0], n_gt) for thr in thresholds]))


def _det_l(pred: Prediction, scene: Scene, lanes: dict, thresholds) -> float:
    n_pred, n_gt = len(pred.lanes), len(scene.lanes)
    if n_gt == 0:
        return 1.0 if n_pred == 0 else 0.0
    return _mean_ap(lanes.get, thresholds, n_gt) if n_pred else 0.0


def _det_t(pred: Prediction, scene: Scene, match) -> float:
    cats = sorted({el.category for el in scene.traffic})
    if not cats:
        return 1.0 if not pred.traffic else 0.0
    flags, _, order = match
    ranked = np.array([pred.traffic[p].category for p in order], dtype=object)
    return float(np.mean([average_precision(
        flags[ranked == cat], sum(el.category == cat for el in scene.traffic))
        for cat in cats]))


def det_l(pred: Prediction, scene: Scene,
          thresholds=DET_L_THRESHOLDS) -> float:
    """Lane detection score: AP over Frechet thresholds, averaged; shapes checked as in evaluate."""
    shape_errors = prediction_shape_errors(pred)
    if shape_errors:
        raise ValueError(shape_errors[0])
    thresholds = valid_distances(thresholds)
    _, lanes = _lane_matches(pred, scene, thresholds, max(thresholds))
    return _det_l(pred, scene, lanes, thresholds)


def _vertex_aps(gt_rows: np.ndarray, score_rows: np.ndarray, order: np.ndarray,
                col_to_gt: np.ndarray) -> np.ndarray:
    """AP of each matched vertex's outgoing predicted edges against its GT edges.

    gt_rows (V, G) are the vertices' binary GT rows, each with an edge;
    score_rows (V, C) their matched predictions' score rows, where an entry
    that is not positive is no edge, and order their rank_by_score rows.
    col_to_gt maps prediction columns to GT columns (-1 for unmatched
    endpoints, which makes their edges false positives). Each AP is
    average_precision of the row's ranked flags, bit for bit: ranks past the
    row's last edge get precision 0, which no interpolated precision falls
    below, and rows are summed in groups of equal true-positive count, so
    each sum runs over its own values in rank order.
    """
    edge = np.take_along_axis(score_rows, order, axis=1) > 0.0  # the ranked edges come first
    w = col_to_gt[order]
    flags = edge & (w >= 0) & (np.take_along_axis(gt_rows, w, axis=1) == 1.0)
    precision = np.where(edge, np.cumsum(flags, axis=1) / np.arange(1, flags.shape[1] + 1), 0.0)
    p_interp = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    n_tp = flags.sum(axis=1)
    aps = np.zeros(len(flags))
    for t in np.unique(n_tp[n_tp > 0]):
        rows = np.flatnonzero(n_tp == t)
        aps[rows] = p_interp[rows][flags[rows]].reshape(-1, t).sum(axis=1)
    return aps / gt_rows.sum(axis=1).astype(int)


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


def _lane_segment_report(pred: Prediction, scene: Scene, p_bounds, g_bounds,
                         centerline: np.ndarray, ll_ranks: np.ndarray) -> LaneSegmentReport:
    """The lane-segment block: the lanes of pred and scene as segments with
    boundary points p_bounds and g_bounds (see segment_matrix), ranked by
    pred.lane_scores, their centerline distances read from the lane matrix
    and their topology pred.topo.ll (rows ranked as ll_ranks) against
    scene.topo.ll. AP is None, and mAP 1.0, when there is no lane either side."""
    dist = segment_matrix(p_bounds, g_bounds, centerline, max(*LS_THRESHOLDS, LS_TOP_THRESHOLD))
    scores = pred.lane_scores
    ap = _mean_ap(lambda thr: greedy_match(dist, scores, thr), LS_THRESHOLDS, len(g_bounds)) \
        if len(p_bounds) or len(g_bounds) else None
    _, pred_to_gt, _ = greedy_match(dist, scores, LS_TOP_THRESHOLD)
    return LaneSegmentReport(
        map=1.0 if ap is None else ap, ap_lane=ap, ap_ped=None,
        top_lsls=_topology_score(scene.topo.ll, pred.topo.ll, pred_to_gt, pred_to_gt, ll_ranks))


def evaluate(pred: Prediction, scene: Scene,
             det_l_thresholds=DET_L_THRESHOLDS,
             det_t_iou: float = DET_T_IOU,
             top_frechet: float = TOP_FRECHET,
             top_iou: float = TOP_IOU,
             lane_width: float | None = None) -> MetricReport:
    """Full metric report for one scene.

    lane_width, when given, fills the optional lane-segment block: the
    lanes of pred and scene are widened into "lane" segments of that width
    (see widen and _lane_segment_report). A lane_scores, topo.ll or topo.lt
    whose shape does not fit pred's lanes and traffic raises ValueError
    with validate_prediction's message, and a topo.ll or topo.lt that does
    not fit scene's with validate_scene's, as do a lane width that is not
    finite and positive and thresholds that cannot be scored (non-finite
    or non-positive distances, IoU outside (0, 1]).
    """
    shape_errors = prediction_shape_errors(pred) + topology_shape_errors(scene)
    if shape_errors:
        raise ValueError(shape_errors[0])
    det_l_thresholds = valid_distances(det_l_thresholds)
    top_frechet = check_distance(float(top_frechet))
    det_t_iou, top_iou = check_iou(float(det_t_iou)), check_iou(float(top_iou))
    lane_cut = max(*det_l_thresholds, top_frechet)
    if lane_width is not None:
        lane_width = check_width(lane_width)
        p_bounds = lane_boundaries(pred.lanes, lane_width)
        g_bounds = lane_boundaries(scene.lanes, lane_width)
        lane_cut = max(lane_cut, 2.0 * max(*LS_THRESHOLDS, LS_TOP_THRESHOLD))

    lane_dist, lanes = _lane_matches(pred, scene, (*det_l_thresholds, top_frechet), lane_cut)
    traffic = _traffic_matches(pred, scene, (det_t_iou, top_iou))
    d_l = _det_l(pred, scene, lanes, det_l_thresholds)
    d_t = _det_t(pred, scene, traffic[det_t_iou])
    lane_to_gt = lanes[top_frechet][1]
    ll_ranks = rank_by_score(pred.topo.ll)  # TOP_ll and TOP_lsls rank the same rows
    t_ll = _topology_score(scene.topo.ll, pred.topo.ll, lane_to_gt, lane_to_gt, ll_ranks)
    t_lt = _topology_score(scene.topo.lt, pred.topo.lt, lane_to_gt, traffic[top_iou][1])
    block = None if lane_width is None else _lane_segment_report(
        pred, scene, p_bounds, g_bounds, lane_dist, ll_ranks)
    return MetricReport(det_l=d_l, det_t=d_t, top_ll=t_ll, top_lt=t_lt,
                        ols=float(ols(d_l, d_t, t_ll, t_lt)),
                        lane_segments=block)
