"""Shared builders for small hand-made scenes."""

from dataclasses import replace

import numpy as np
import pytest

import lanetopo as lt


def straight_lane(x0, x1, y, n=11, z=0.0):
    t = np.linspace(0.0, 1.0, n)
    pts = np.stack([x0 + (x1 - x0) * t,
                    np.full(n, float(y)),
                    np.full(n, float(z))], axis=1)
    return lt.Polyline3D(pts)


def point_stack(items, n_points=11):
    """Polylines, or connected lanes by their curves, as the (k, n, 3) stack
    half_distances takes; (0, n_points, 3) when there are none."""
    if not items:
        return np.zeros((0, n_points, 3))
    return np.stack([getattr(item, "curve", item).points for item in items])


def chain_scene(n_points=11, with_traffic=True):
    """Two colinear lanes along +x joined at (10, 0, 0)."""
    a = straight_lane(0.0, 10.0, 0.0, n_points)
    b = straight_lane(10.0, 20.0, 0.0, n_points)
    ll = np.array([[0.0, 1.0], [0.0, 0.0]])
    if with_traffic:
        traffic = [lt.TrafficElement(bbox=(100.0, 200.0, 140.0, 260.0),
                                     category="traffic_light")]
        lt_mat = np.array([[1.0], [1.0]])
    else:
        traffic = []
        lt_mat = np.zeros((2, 0))
    return lt.Scene(lanes=[a, b], traffic=traffic,
                    topo=lt.TopologyGraph(ll=ll, lt=lt_mat), n_points=n_points)


def perfect_prediction(scene):
    """Prediction that reproduces the ground truth with full confidence."""
    return lt.Prediction(
        lanes=list(scene.lanes),
        lane_scores=np.ones(len(scene.lanes)),
        traffic=[replace(el, score=1.0) for el in scene.traffic],
        topo=lt.TopologyGraph(ll=scene.topo.ll.copy(), lt=scene.topo.lt.copy()),
    )


def same_bits(got, want) -> bool:
    """got holds want's arrays bit for bit, in the same shapes and dtypes,
    through tuples, lists and parameter trees; None matches only None."""
    if want is None:
        return got is None
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and got.dtype == want.dtype and got.tobytes() == want.tobytes())
    if isinstance(want, (tuple, list)):
        return (isinstance(got, (tuple, list)) and len(got) == len(want)
                and all(same_bits(g, w) for g, w in zip(got, want)))
    got, want = lt.nn.param_arrays(got), lt.nn.param_arrays(want)
    return list(got) == list(want) and all(same_bits(got[k], want[k]) for k in want)


def traffic_bits(traffic):
    """A Traffic's boxes, categories and scores, the arrays as bytes; an
    empty score array reads as no scores, as both hold none."""
    scores = np.zeros(0) if traffic.scores is None else traffic.scores
    return traffic.boxes.tobytes(), traffic.categories.tolist(), scores.tobytes()


@pytest.fixture
def chain():
    return chain_scene()


@pytest.fixture
def grid_scene():
    return lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=0))
