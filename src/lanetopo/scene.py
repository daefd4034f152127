"""Scene data model: lane polylines, traffic elements, topology graphs.

A Scene is the ground-truth container used everywhere else: an ordered list
of 3D lane centerlines sampled at a fixed point count, front-view traffic
element boxes, and two adjacency structures (lane-lane and lane-traffic).
A Prediction mirrors the Scene but carries confidence scores instead of
binary adjacency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

# Endpoints closer than this (metres) are treated as one junction point.
JUNCTION_TOL = 0.01

DEFAULT_N_POINTS = 11

# Polyline3D's messages for coordinates it rejects; batched kernels that
# build or read polylines as arrays raise the same text.
NON_FINITE = "polyline has non-finite coordinates"
DUPLICATE_POINTS = "polyline has consecutive duplicate points"
FLAWS = (NON_FINITE, DUPLICATE_POINTS)


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


def polyline_flaws(P: np.ndarray) -> np.ndarray:
    """(k, 2) flags per polyline of P (k, n, 3), one column per FLAWS message:
    the value rules Polyline3D checks once the shape is right, in its order."""
    return np.stack([~np.isfinite(P).all(axis=(1, 2)),
                     (P[:, 1:] == P[:, :-1]).all(axis=2).any(axis=1)], axis=1)


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
        if not np.all(np.isfinite(pts)):
            raise ValueError(NON_FINITE)
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise ValueError(DUPLICATE_POINTS)
        object.__setattr__(self, "points", pts)

    @classmethod
    def unchecked(cls, points: np.ndarray) -> Polyline3D:
        """A polyline over a float64 (n, 3) array that already passed
        __post_init__'s checks, for instance as one row of a stack checked
        with polyline_flaws."""
        line = object.__new__(cls)
        object.__setattr__(line, "points", points)
        return line

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def initial(self) -> np.ndarray:
        return self.points[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.points[-1]


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
        if len(box) != 4 or not all(np.isfinite(box)):
            raise ValueError(f"bbox must be 4 finite numbers, got {self.bbox!r}")
        x0, y0, x1, y1 = box
        if x0 >= x1 or y0 >= y1:
            raise ValueError(f"degenerate bbox {box}: need x_min < x_max and y_min < y_max")
        if self.score is not None:
            s = float(self.score)
            if not (0.0 <= s <= 1.0) or not np.isfinite(s):
                raise ValueError(f"score {self.score!r} outside [0, 1]")
            object.__setattr__(self, "score", s)
        object.__setattr__(self, "bbox", box)


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
    """Ground-truth scene: lanes, traffic elements, binary topology."""

    lanes: list[Polyline3D]
    traffic: list[TrafficElement]
    topo: TopologyGraph
    n_points: int = DEFAULT_N_POINTS

    def lane_stack(self) -> np.ndarray:
        """The lanes as one (k, n_points, 3) array, (0, n_points, 3) for
        none; the first lane whose point count is not n_points raises
        validate_scene's message for it."""
        errors = point_count_errors(self)
        if errors:
            raise ValueError(errors[0])
        if not self.lanes:
            return np.zeros((0, self.n_points, 3))
        return np.stack([lane.points for lane in self.lanes])


@dataclass(frozen=True)
class Prediction:
    """Predicted scene: lanes with confidences, scored traffic, scored topology."""

    lanes: list[Polyline3D]
    lane_scores: np.ndarray
    traffic: list[TrafficElement]
    topo: TopologyGraph

    def __post_init__(self):
        scores = np.asarray(self.lane_scores, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "lane_scores", scores)


def endpoint_gaps(lanes: list[Polyline3D], rows, cols) -> np.ndarray:
    """Gaps from the terminal points of lanes[rows] to the initial points of
    lanes[cols] (index arrays that broadcast), in one array pass: the
    distances every junction verdict compares with JUNCTION_TOL."""
    ends = np.array([lane.terminal for lane in lanes]).reshape(-1, 3)
    starts = np.array([lane.initial for lane in lanes]).reshape(-1, 3)
    d = ends[rows] - starts[cols]
    return np.sqrt((d * d).sum(axis=-1))


def junction_gaps(lanes: list[Polyline3D], rows, cols) -> list[tuple[int, float]]:
    """(e, gap) for each edge e, from lanes[rows[e]] to lanes[cols[e]], whose
    junction is open, in edge order: its endpoint gap (endpoint_gaps) is
    more than JUNCTION_TOL."""
    gaps = endpoint_gaps(lanes, rows, cols)
    return [(int(e), float(gaps[e])) for e in np.flatnonzero(gaps > JUNCTION_TOL)]


def point_count_errors(scene: Scene) -> list[str]:
    """One message per lane whose point count is not the scene's n_points."""
    return [f"lane {i}: point count {lane.n_points} != scene n_points {scene.n_points}"
            for i, lane in enumerate(scene.lanes) if lane.n_points != scene.n_points]


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
        for i, lane in enumerate(pred.lanes):
            if lane.n_points != n_points:
                out.append(
                    f"lane {i}: point count {lane.n_points} != expected n_points {n_points}"
                )
    out += prediction_shape_errors(pred)

    if pred.lane_scores.shape == (n_lanes,):
        scores = pred.lane_scores
        # NaN fails both comparisons, so non-finite scores are caught too
        for i in np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0))):
            out.append(f"lane {i}: score {scores[i]!r} outside [0, 1]")

    for j, el in enumerate(pred.traffic):
        if el.score is None:
            out.append(f"traffic {j}: predicted element is missing a score")

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
