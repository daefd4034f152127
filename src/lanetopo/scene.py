"""Scene data model: lane polylines, traffic elements, topology graphs.

A Scene is the ground-truth container used everywhere else: 3D lane
centerlines sampled at a fixed point count, in one Lanes array, front-view
traffic element boxes and categories, in one Traffic array, and two
adjacency structures (lane-lane and lane-traffic). A Prediction mirrors the
Scene but carries confidence scores, per lane and per traffic element,
and topology scores instead of binary adjacency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

# Endpoints closer than this (metres) are treated as one junction point.
JUNCTION_TOL = 0.01

DEFAULT_N_POINTS = 11
MAX_POINTS = 500  # per lane: a lane encoder is 49 MB here at ModelDims' largest c

# Polyline3D's messages for coordinates it rejects; batched kernels that
# build or read polylines as arrays raise the same text.
FLAWS = ("polyline has non-finite coordinates", "polyline has consecutive duplicate points")


def checked(name: str, value, lo=-math.inf, hi=math.inf, above=False):
    """value if it is finite, >= lo (> lo when above) and <= hi, else a
    ValueError naming name and the values it accepts: the one range check of
    config fields (bounded), library arguments and numeric CLI flags."""
    if -math.inf < value < math.inf and (lo < value if above else lo <= value) and value <= hi:
        return value
    accepted = (f" and in {'(' if above else '['}{lo:g}, {hi:g}]" if hi < math.inf
                else " and positive" if (lo, above) == (0, True)
                else f" and {'>' if above else '>='} {lo:g}" if lo > -math.inf else "")
    raise ValueError(f"{name} must be finite{accepted}, got {value}")


def bounded(default, about: str = "", **bounds):
    """A dataclass field that check_fields passes through its field_check."""
    return field(default=default, metadata={"bounds": bounds, "about": about})


def field_check(f):
    """value -> checked(name, value, **bounds) for a field f declared with
    bounded: name is the field's, then its about in parentheses."""
    name = f"{f.name} ({f.metadata['about']})" if f.metadata["about"] else f.name
    return functools.partial(checked, name, **f.metadata["bounds"])


def check_fields(obj) -> None:
    """field_check on every bounded field of the dataclass obj."""
    for f in fields(obj):
        if "bounds" in f.metadata:
            field_check(f)(getattr(obj, f.name))


def polyline_flaws(P: np.ndarray, offsets=None) -> np.ndarray:
    """(k, 2) flags per polyline, one column per FLAWS message: the value
    rules Polyline3D checks once the shape is right, in its order. P is a
    (k, n, 3) stack, or with offsets the points of a Lanes."""
    if offsets is None:
        P, offsets = P.reshape(-1, 3), np.arange(len(P) + 1) * P.shape[1]
    # per point: not finite; equal to the point before it in its lane
    flags = np.zeros((len(P), 2), dtype=bool)
    flags[:, 0] = ~np.isfinite(P).all(axis=1)
    flags[1:, 1] = (P[1:] == P[:-1]).all(axis=1)
    flags[offsets[:-1], 1] = False
    return np.logical_or.reduceat(flags, offsets[:-1], axis=0)


def checked_polylines(P: np.ndarray) -> np.ndarray:
    """The stack P (k, n, 3) if Polyline3D accepts every row, else a
    ValueError with its message for the first row it rejects."""
    bad = np.argwhere(polyline_flaws(P))
    if bad.size:
        raise ValueError(FLAWS[bad[0, 1]])
    return P


@dataclass(frozen=True)
class Polyline3D:
    """Ordered 3D point sequence, shape (n, 3) with n >= 2."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"polyline must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("polyline needs at least 2 points")
        checked_polylines(pts[None])
        object.__setattr__(self, "points", pts)

    @classmethod
    def unchecked(cls, points: np.ndarray) -> Polyline3D:
        """A polyline over a float64 (n, 3) array that already passed
        __post_init__'s checks, for instance one lane of a Lanes."""
        line = object.__new__(cls)
        object.__setattr__(line, "points", points)
        return line


@dataclass(frozen=True, eq=False)
class Lanes:
    """Polylines in CSR layout, as scipy.sparse keeps rows: lane i is
    points[offsets[i]:offsets[i + 1]] of the (P, 3) float64 points.
    Indexing and iteration give Polyline3D views."""

    points: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, lanes) -> Lanes:
        """lanes if it is a Lanes, the rows of a checked (k, n, 3) stack with
        points a view of it, or the lanes of a sequence of Polyline3D."""
        if isinstance(lanes, Lanes):
            return lanes
        if isinstance(lanes, np.ndarray):
            return cls(lanes.reshape(-1, 3), np.arange(len(lanes) + 1) * lanes.shape[1])
        pts = [lane.points for lane in lanes]
        return cls(np.concatenate([np.zeros((0, 3)), *pts]), np.cumsum([0, *map(len, pts)]))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> Polyline3D:
        i = range(len(self))[i]  # a list's negative indices and IndexError
        return Polyline3D.unchecked(self.points[self.offsets[i]:self.offsets[i + 1]])

    @functools.cached_property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """Each lane's first and last points, (k, 2, 3)."""
        return self.points[np.stack([self.offsets[:-1], self.offsets[1:] - 1], axis=1)]

    def stack(self, n: int | None = None) -> np.ndarray | None:
        """The lanes as a (k, n, 3) view of points if every lane has n points,
        n by default the first lane's count (0 for no lanes), else None."""
        k = len(self)
        n = self.offsets[min(k, 1)] if n is None else n
        return self.points.reshape(k, n, 3) \
            if np.array_equal(self.offsets, np.arange(k + 1) * n) else None

    def gather(self, idx: np.ndarray, n: int) -> np.ndarray:
        """The lanes idx, each of n points, as one (len(idx), n, 3) array."""
        return self.points[self.offsets[idx, None] + np.arange(n)]


def traffic_flaw(boxes: np.ndarray, scores: np.ndarray | None) -> tuple[int, str] | None:
    """(k, message) for the first element of the (T, 4) boxes and (T,)
    scores (None: unscored) that TrafficElement rejects, with its message,
    found in one array pass; None when it accepts every element."""
    flags = np.zeros((len(boxes), 3), dtype=bool)
    flags[:, 0] = ~np.isfinite(boxes).all(axis=1)
    flags[:, 1] = (boxes[:, 0] >= boxes[:, 2]) | (boxes[:, 1] >= boxes[:, 3])
    if scores is not None:  # NaN fails both comparisons
        flags[:, 2] = ~((scores >= 0.0) & (scores <= 1.0))
    bad = np.argwhere(flags)
    if not bad.size:
        return None
    k, rule = bad[0].tolist()
    box = tuple(boxes[k].tolist())
    return k, (f"bbox must be 4 finite numbers, got {box!r}" if rule == 0 else
               f"degenerate bbox {box}: need x_min < x_max and y_min < y_max" if rule == 1
               else f"score {scores[k].item()!r} outside [0, 1]")


@dataclass(frozen=True)
class TrafficElement:
    """Front-view axis-aligned box with a category label.

    bbox is (x_min, y_min, x_max, y_max) in pixels. Ground-truth elements
    carry score=None; predicted elements carry a confidence in [0, 1].
    """

    bbox: tuple[float, float, float, float]
    category: str
    score: float | None = None

    def __post_init__(self):
        box = tuple(float(v) for v in self.bbox)
        if len(box) != 4:
            raise ValueError(f"bbox must be 4 finite numbers, got {self.bbox!r}")
        score = None if self.score is None else float(self.score)
        Traffic([box], [self.category], None if score is None else [score])  # its checks, on one
        object.__setattr__(self, "bbox", box)
        object.__setattr__(self, "score", score)


@dataclass(frozen=True, eq=False)
class Traffic:
    """Traffic elements as arrays: element k is the box boxes[k] of the (T, 4)
    float64 boxes (x_min, y_min, x_max, y_max) in pixels, the category
    string categories[k] and, in a prediction, the confidence scores[k]
    (ground truth: scores None). TrafficElement's rules are checked once,
    over the arrays. Indexing and iteration give TrafficElement views."""

    boxes: np.ndarray
    categories: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        categories = np.asarray(self.categories, dtype=object).reshape(-1)
        scores = None if self.scores is None else np.asarray(self.scores, np.float64).reshape(-1)
        if len(categories) != len(boxes) or scores is not None and len(scores) != len(boxes):
            raise ValueError("traffic needs one category, and one score or none, per box")
        flaw = traffic_flaw(boxes, scores)
        if flaw:
            raise ValueError(flaw[1])
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "scores", scores)

    @classmethod
    def of(cls, traffic) -> Traffic:
        """traffic if it is a Traffic, else the elements of a sequence of
        TrafficElement, which all carry a score or none does."""
        if isinstance(traffic, Traffic):
            return traffic
        traffic = list(traffic)
        scores = [el.score for el in traffic]
        if None in scores and any(s is not None for s in scores):
            raise ValueError(f"traffic element {scores.index(None)} has no score; others have")
        return cls(np.array([el.bbox for el in traffic]), [el.category for el in traffic],
                   scores if scores and None not in scores else None)

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i):
        """Element i as a TrafficElement, or the elements of a slice as a Traffic."""
        if isinstance(i, slice):
            return Traffic(self.boxes[i], self.categories[i],
                           None if self.scores is None else self.scores[i])
        i = range(len(self))[i]  # a list's negative indices and IndexError
        return TrafficElement(tuple(self.boxes[i].tolist()), self.categories[i],
                              None if self.scores is None else self.scores[i].item())


@dataclass(frozen=True)
class TopologyGraph:
    """Adjacency containers: ll is (n_lanes, n_lanes), lt is (n_lanes, n_traffic).

    Ground truth holds {0, 1} entries, predictions hold scores in [0, 1].
    Value rules are checked by validate_scene / validate_prediction rather
    than here, so that malformed inputs stay representable for reporting.
    """

    ll: np.ndarray
    lt: np.ndarray

    def __post_init__(self):
        ll = np.asarray(self.ll, dtype=np.float64)
        lt = np.asarray(self.lt, dtype=np.float64)
        if ll.ndim != 2:
            raise ValueError(f"ll must be 2D, got shape {ll.shape}")
        if lt.ndim != 2:
            raise ValueError(f"lt must be 2D, got shape {lt.shape}")
        object.__setattr__(self, "ll", ll)
        object.__setattr__(self, "lt", lt)


@dataclass(frozen=True)
class Scene:
    """Ground-truth scene: lanes (given as anything Lanes.of takes), traffic
    elements (anything Traffic.of takes), binary topology."""

    lanes: Lanes
    traffic: Traffic
    topo: TopologyGraph
    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        object.__setattr__(self, "lanes", Lanes.of(self.lanes))
        object.__setattr__(self, "traffic", Traffic.of(self.traffic))

    def lane_stack(self) -> np.ndarray:
        """The lanes as one (k, n_points, 3) view; the first lane whose point
        count is not n_points, else an n_points outside [2, MAX_POINTS],
        raises validate_scene's message for it."""
        errors = point_count_errors(self)
        if errors:
            raise ValueError(errors[0])
        return self.lanes.stack(self.n_points)


@dataclass(frozen=True)
class Prediction:
    """Predicted scene: lanes with confidences, scored traffic (anything
    Traffic.of takes), scored topology."""

    lanes: Lanes
    lane_scores: np.ndarray
    traffic: Traffic
    topo: TopologyGraph

    def __post_init__(self):
        object.__setattr__(self, "lanes", Lanes.of(self.lanes))
        object.__setattr__(self, "traffic", Traffic.of(self.traffic))
        scores = np.asarray(self.lane_scores, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "lane_scores", scores)


def endpoint_gaps(lanes, rows, cols) -> np.ndarray:
    """Gaps from the last points of lanes[rows] to the first points of
    lanes[cols] (index arrays that broadcast), lanes anything Lanes.of
    takes, in one array pass: the distances every junction verdict
    compares with JUNCTION_TOL."""
    ends = Lanes.of(lanes).ends
    d = ends[rows, 1] - ends[cols, 0]
    return np.sqrt((d * d).sum(axis=-1))


def junction_gaps(lanes, rows, cols) -> list[tuple[int, float]]:
    """(e, gap) for each edge e, from lanes[rows[e]] to lanes[cols[e]], whose
    junction is open, in edge order: its endpoint gap (endpoint_gaps) is
    more than JUNCTION_TOL."""
    gaps = endpoint_gaps(lanes, rows, cols)
    return [(int(e), float(gaps[e])) for e in np.flatnonzero(gaps > JUNCTION_TOL)]


def point_count_errors(scene: Scene) -> list[str]:
    """One message per lane whose point count is not the scene's n_points,
    then checked's message if n_points is outside [2, MAX_POINTS]."""
    counts = scene.lanes.counts
    out = [f"lane {i}: point count {counts[i]} != scene n_points {scene.n_points}"
           for i in np.flatnonzero(counts != scene.n_points)]
    try:
        checked("n_points", scene.n_points, lo=2, hi=MAX_POINTS)
    except ValueError as err:
        out.append(str(err))
    return out


def topology_shape_errors(graph: Scene | Prediction) -> list[str]:
    """One message per topology ll or lt of a scene or prediction whose
    shape does not fit its lanes and traffic elements."""
    out = []
    n, t = len(graph.lanes), len(graph.traffic)
    ll, lt = graph.topo.ll, graph.topo.lt
    if ll.shape != (n, n):
        out.append(f"topology ll: shape {ll.shape} != ({n}, {n})")
    if lt.shape != (n, t):
        out.append(f"topology lt: shape {lt.shape} != ({n}, {t})")
    return out


def validate_scene(scene: Scene) -> list[str]:
    """Check scene-level invariants; return one message per violation.

    An empty list means the scene is well formed. Messages name the entity
    and the rule so CLI users can act on them.
    """
    n_lanes = len(scene.lanes)
    out = point_count_errors(scene) + topology_shape_errors(scene)

    ll, lt = scene.topo.ll, scene.topo.lt
    for name, mat in (("ll", ll), ("lt", lt)):
        bad = (mat != 0.0) & (mat != 1.0)
        for i, j in zip(*np.nonzero(bad)):
            out.append(f"topology {name}[{i}][{j}] = {mat[i, j]!r} is not binary")

    if ll.shape == (n_lanes, n_lanes):
        for i in np.flatnonzero(np.diagonal(ll) != 0.0):
            out.append(f"topology ll: self-connection at lane {i}")
        rows, cols = np.nonzero(ll)
        off = rows != cols
        rows, cols = rows[off], cols[off]
        for e, gap in junction_gaps(scene.lanes, rows, cols):
            out.append(
                f"topology ll[{rows[e]}][{cols[e]}]=1 but endpoints are {gap:.4f} m apart "
                f"(tolerance {JUNCTION_TOL})"
            )
    return out


def prediction_shape_errors(pred: Prediction) -> list[str]:
    """One message per lane_scores, topology ll or topology lt whose shape
    does not fit the prediction's lanes and traffic elements."""
    out: list[str] = []
    n_lanes = len(pred.lanes)
    if pred.lane_scores.shape != (n_lanes,):
        out.append(
            f"lane_scores: length {pred.lane_scores.shape[0]} != lane count {n_lanes}"
        )
    return out + topology_shape_errors(pred)


def validate_prediction(pred: Prediction, n_points: int | None = None) -> list[str]:
    """Check prediction-level invariants; return one message per violation:
    point counts, then shapes (prediction_shape_errors), then values."""
    out: list[str] = []
    n_lanes = len(pred.lanes)

    if n_points is not None:
        counts = pred.lanes.counts
        out += [f"lane {i}: point count {counts[i]} != expected n_points {n_points}"
                for i in np.flatnonzero(counts != n_points)]
    out += prediction_shape_errors(pred)

    if pred.lane_scores.shape == (n_lanes,):
        scores = pred.lane_scores
        # NaN fails both comparisons, so non-finite scores are caught too
        for i in np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0))):
            out.append(f"lane {i}: score {scores[i]!r} outside [0, 1]")

    if pred.traffic.scores is None:
        out += [f"traffic {j}: predicted element is missing a score"
                for j in range(len(pred.traffic))]

    ll, lt = pred.topo.ll, pred.topo.lt
    if ll.shape == (n_lanes, n_lanes):
        for i in np.flatnonzero(np.diagonal(ll) != 0.0):
            out.append(f"topology ll: self-connection score at lane {i}")

    for name, mat in (("ll", ll), ("lt", lt)):
        if not np.all(np.isfinite(mat)):
            out.append(f"topology {name}: non-finite entries")
        elif mat.size and (mat.min() < 0.0 or mat.max() > 1.0):
            out.append(f"topology {name}: scores outside [0, 1]")
    return out
