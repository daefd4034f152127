"""Synthetic lane-graph scenes and a controllable degradation model.

Scenes are built from straight segments, circular arcs, and smoothstep
lateral blends. Corridors run along +x; splits and merges attach only to
the outer corridors and diverge outward by exactly the lane spacing, which
keeps every pair of lanes that share no junction at least one lane spacing
apart (the separation guarantee the correlation margin rests on).
Lane-lane topology is derived from shared junction points, never stored
independently of the geometry. The degradation model degrades what predict
reads: which lanes are kept, their points and the spurious lanes added.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scene import (
    DEFAULT_N_POINTS,
    JUNCTION_TOL,
    MAX_POINTS,
    Prediction,
    Scene,
    TopologyGraph,
    Traffic,
    bounded,
    check_fields,
    checked,
    checked_polylines,
    endpoint_gaps,
)

TRAFFIC_CATEGORIES = ("traffic_light", "stop_sign", "speed_limit", "yield_sign")
CANVAS = (1920.0, 1080.0)

# Lanes per row chunk of infer_ll's screen: (chunk, n, 3) is 5 MB at n = 823.
INFER_CHUNK = 256


@dataclass(frozen=True)
class SynthParams:
    n_corridors: int = bounded(2, lo=1)
    n_segments: int = bounded(2, lo=1)
    segment_length: float = bounded(20.0, lo=0.0, above=True)
    lane_spacing: float = bounded(4.0, lo=3.0)  # metres: keeps lanes separable
    split_prob: float = bounded(0.3, lo=0.0, hi=1.0)
    merge_prob: float = bounded(0.2, lo=0.0, hi=1.0)
    n_points: int = bounded(DEFAULT_N_POINTS, lo=3, hi=MAX_POINTS)
    n_traffic: int = bounded(3, lo=0)
    grade: float = bounded(0.0)
    seed: int = bounded(0, lo=0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class NoiseParams:
    point_sigma: float = bounded(0.0, lo=0.0)
    drop_rate: float = bounded(0.0, lo=0.0, hi=1.0)
    spurious_rate: float = bounded(0.0, lo=0.0, hi=10.0)

    __post_init__ = check_fields


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def _lateral_blend(x0: float, x1: float, y0: float, y1: float,
                   grade: float, n: int) -> np.ndarray:
    """n points from (x0, y0) to (x1, y1), blended from y0 to y1 by a
    smoothstep: a straight lane at y0 when y1 is y0."""
    x = np.linspace(x0, x1, n)
    t = np.linspace(0.0, 1.0, n)
    pts = np.empty((n, 3))
    pts[:, 0] = x
    pts[:, 1] = y0 + (y1 - y0) * _smoothstep(t)
    pts[:, 2] = grade * x
    return pts


def infer_ll(lanes) -> np.ndarray:
    """Adjacency from geometry: edge (i, j), i != j, iff lane i ends where
    lane j starts, its endpoint gap (endpoint_gaps) at most JUNCTION_TOL;
    all pairs INFER_CHUNK rows at a time."""
    n = len(lanes)
    ll = np.zeros((n, n))
    idx = np.arange(n)
    for i0 in range(0, n, INFER_CHUNK):
        rows = idx[i0:i0 + INFER_CHUNK, None]
        ll[i0:i0 + INFER_CHUNK] = endpoint_gaps(lanes, rows, idx) <= JUNCTION_TOL
    np.fill_diagonal(ll, 0.0)
    return ll


def _draw_traffic(rng: np.random.Generator, n_traffic: int, n_lanes: int):
    """(traffic, lt): n_traffic boxes and categories, each drawn in turn as
    corner, size and category, then the 1-2 lanes each element relates to."""
    boxes = np.empty((n_traffic, 4))
    categories = []
    for k in range(n_traffic):
        x0 = rng.uniform(0.0, CANVAS[0] - 170.0)
        y0 = rng.uniform(0.0, CANVAS[1] - 170.0)
        w = rng.uniform(40.0, 150.0)
        h = rng.uniform(40.0, 150.0)
        boxes[k] = x0, y0, x0 + w, y0 + h
        categories.append(str(rng.choice(TRAFFIC_CATEGORIES)))
    lt = np.zeros((n_lanes, n_traffic))
    for t in range(n_traffic):
        k = int(1 + rng.integers(0, 2))
        for lane in rng.choice(n_lanes, size=min(k, n_lanes), replace=False):
            lt[int(lane), t] = 1.0
    return Traffic(boxes, categories), lt


def generate_scene(params: SynthParams = SynthParams()) -> Scene:
    """Parallel corridors of chained segments with outward splits and merges."""
    rng = np.random.default_rng(params.seed)
    p = params
    lanes: list[np.ndarray] = []

    xs = [s * p.segment_length for s in range(p.n_segments + 1)]
    for c in range(p.n_corridors):
        y = c * p.lane_spacing
        for s in range(p.n_segments):
            lanes.append(_lateral_blend(xs[s], xs[s + 1], y, y, p.grade, p.n_points))

    # splits leave the bottom corridor downward, merges join the top corridor
    # from above; interior corridors stay clean so unrelated lanes never
    # come closer than the spacing
    split_y = -p.lane_spacing
    merge_y = (p.n_corridors - 1) * p.lane_spacing + p.lane_spacing
    for s in range(1, p.n_segments):
        if rng.random() < p.split_prob:
            lanes.append(_lateral_blend(xs[s], xs[s] + p.segment_length,
                                        0.0, split_y, p.grade, p.n_points))
        if rng.random() < p.merge_prob:
            y_top = (p.n_corridors - 1) * p.lane_spacing
            lanes.append(_lateral_blend(xs[s] - p.segment_length, xs[s],
                                        merge_y, y_top, p.grade, p.n_points))

    return _scene(lanes, rng, p.n_traffic, p.n_points)


def _scene(lanes: list, rng: np.random.Generator, n_traffic: int, n_points: int) -> Scene:
    """The scene of the lane point arrays lanes, each checked as Polyline3D
    checks it, their derived topology and n_traffic traffic elements."""
    lanes = checked_polylines(np.stack(lanes))
    traffic, lt = _draw_traffic(rng, n_traffic, len(lanes))
    return Scene(lanes=lanes, traffic=traffic,
                 topo=TopologyGraph(ll=infer_ll(lanes), lt=lt), n_points=n_points)


# generate_roundabout's radius and arm count, as the CLI checks them too
check_radius = functools.partial(checked, "radius", lo=0.0, above=True)
check_arms = functools.partial(checked, "n_arms", lo=2)


def generate_roundabout(radius: float = 20.0, n_arms: int = 4,
                        n_points: int = DEFAULT_N_POINTS, seed: int = 0) -> Scene:
    """Ring of circular arcs with one entry and one exit lane per arm.

    Junction k sits at angle 2*pi*k/n_arms. Arc k runs from junction k to
    junction k+1; the entry of arm k ends at junction k and the exit leaves
    it, so every junction has two incoming and two outgoing lanes and the
    derived topology has 4*n_arms edges.
    """
    check_radius(radius)
    check_arms(n_arms)
    checked("n_points", n_points, lo=3, hi=MAX_POINTS)
    rng = np.random.default_rng(seed)
    thetas = [2.0 * np.pi * k / n_arms for k in range(n_arms)]
    ring = lambda th: np.array([radius * np.cos(th), radius * np.sin(th), 0.0])
    outer_r = 1.8 * radius
    outer = lambda th: np.array([outer_r * np.cos(th), outer_r * np.sin(th), 0.0])
    delta = 0.35 * (2.0 * np.pi / n_arms)

    def arc(th0: float, th1: float) -> np.ndarray:
        th = np.linspace(th0, th1, n_points)
        return np.stack([radius * np.cos(th), radius * np.sin(th),
                         np.zeros(n_points)], axis=1)

    def chord(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n_points)[:, None]
        pts = a[None, :] + t * (b - a)[None, :]
        pts[0], pts[-1] = a, b  # pin endpoints for exact junction coincidence
        return pts

    lanes: list[np.ndarray] = []
    for k in range(n_arms):
        th0, th1 = thetas[k], thetas[k] + 2.0 * np.pi / n_arms
        lanes.append(arc(th0, th1))
    for k in range(n_arms):
        lanes.append(chord(outer(thetas[k] - delta), ring(thetas[k])))  # entry
    for k in range(n_arms):
        lanes.append(chord(ring(thetas[k]), outer(thetas[k] + delta)))  # exit

    return _scene(lanes, rng, n_arms, n_points)


def jittered(P: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """The stack P (k, n, 3) plus N(0, sigma) noise, checked row by row.

    The noise is one draw of size P.shape, the stream of one draw per row;
    at sigma 0 none is drawn and -0.0 becomes 0.0. The first row Polyline3D
    would reject raises its message."""
    return checked_polylines(P + (rng.normal(0.0, sigma, size=P.shape) if sigma > 0 else 0.0))


def degrade_lanes(L: np.ndarray, noise: NoiseParams,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(lanes, kept): the degraded lane stack of the ground-truth stack L
    (n, N_P, 3) and the indices of the lanes it keeps, drawn from rng in
    this order: which lanes are kept, their jitter (jittered), then the
    spurious far-away lanes, which follow the kept ones."""
    n = len(L)
    keep = rng.random(n) >= noise.drop_rate if noise.drop_rate > 0 else np.ones(n, bool)
    kept = np.flatnonzero(keep)
    lanes = jittered(L[kept], noise.point_sigma, rng)

    n_spurious = int(rng.poisson(noise.spurious_rate * n)) if noise.spurious_rate > 0 else 0
    if n_spurious:
        y_far = float(L[..., 1].max()) + 25.0
        x_lo = float(L[..., 0].min())
        # mean chord length, each a dot product as np.linalg.norm takes one vector's
        d = L[:, -1] - L[:, 0]
        length = max(5.0, float(np.mean(np.sqrt(np.matmul(d[:, None], d[:, :, None]).ravel()))))
        spurious = []
        for k in range(n_spurious):
            x0 = x_lo + rng.uniform(0.0, length)
            y = y_far + 10.0 * k + rng.uniform(0.0, 2.0)
            spurious.append(_lateral_blend(x0, x0 + length, y, y, 0.0, L.shape[1]))
        lanes = np.concatenate([lanes, checked_polylines(np.stack(spurious))])
    return lanes, kept


def perturb(scene: Scene, noise: NoiseParams, seed: int = 0) -> Prediction:
    """Degraded copy of a scene posing as a prediction: what the pipeline's
    perturbed source reads, with the ground truth's scores and topology.

    The lanes are degrade_lanes's (the first draws of the stream); a kept
    lane scores 1.0 and a spurious one U(0.1, 0.5), drawn next. Topology is
    the binary ground truth of the kept lanes, and 0 for spurious ones;
    every traffic element is kept with score 1.0. With all-zero noise the
    prediction reproduces the ground truth and every metric is 1. The
    scene's lanes must share one point count (Scene.lane_stack).
    """
    rng = np.random.default_rng(seed)
    lanes, kept = degrade_lanes(scene.lane_stack(), noise, rng)
    n_out, k = len(lanes), len(kept)
    scores = np.ones(n_out)
    scores[k:] = rng.uniform(0.1, 0.5, size=n_out - k)  # spurious lanes rank low
    ll = np.zeros((n_out, n_out))
    ll[:k, :k] = scene.topo.ll[np.ix_(kept, kept)]
    np.fill_diagonal(ll, 0.0)
    lt = np.zeros((n_out, scene.topo.lt.shape[1]))
    lt[:k] = scene.topo.lt[kept]
    traffic = scene.traffic
    return Prediction(lanes=lanes, lane_scores=scores,
                      traffic=Traffic(traffic.boxes, traffic.categories, np.ones(len(traffic))),
                      topo=TopologyGraph(ll=ll, lt=lt))
