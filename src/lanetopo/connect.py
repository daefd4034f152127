"""Connected-lane construction.

A connected lane is the merge of a predecessor lane and a successor lane at
their shared junction: the two point lists are concatenated with the junction
counted once (2*N_P - 1 points) and then resampled back to N_P points. The
halves of the merged curve are what lane queries are correlated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import avg_l1_matrix, resample_array
from .scene import JUNCTION_TOL, Polyline3D, Scene, junction_point


@dataclass(frozen=True)
class ConnectedLane:
    """Merged predecessor/successor curve with its source lane indices."""

    source: tuple[int, int]
    curve: Polyline3D


def merge_at_junction(a: Polyline3D, b: Polyline3D) -> np.ndarray:
    """Concatenate a and b sharing the junction point once.

    The junction coordinate is a's terminal point; b's initial point is
    dropped. For two N_P-point lanes the result has 2*N_P - 1 points.
    """
    return np.concatenate([a.points, b.points[1:]], axis=0)


def build_connected_gt(scene: Scene) -> list[ConnectedLane]:
    """All ground-truth connected lanes, in row-major order of the ll matrix.

    Each pair marked in ll is merged at its junction and resampled to the
    scene's point count. A marked pair whose endpoints do not coincide
    within the junction tolerance is a contract violation and raises.
    """
    out: list[ConnectedLane] = []
    ll = scene.topo.ll
    for i, j in zip(*np.nonzero(ll)):
        i, j = int(i), int(j)
        a, b = scene.lanes[i], scene.lanes[j]
        if junction_point(a, b) is None:
            gap = float(np.linalg.norm(a.terminal - b.initial))
            raise ValueError(
                f"lanes ({i}, {j}) are marked connected but their junction is "
                f"{gap:.4f} m apart (tolerance {JUNCTION_TOL})"
            )
        merged = merge_at_junction(a, b)
        curve = Polyline3D(resample_array(merged, scene.n_points))
        out.append(ConnectedLane(source=(i, j), curve=curve))
    return out


def split_halves_array(curve: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Front and back halves of a connected-lane curve, each resampled to n
    points (default: the curve's own count).

    The split index is floor(N_P / 2); the midpoint is shared by both halves.
    """
    curve = np.asarray(curve, dtype=np.float64)
    n_pts = curve.shape[0]
    if n is None:
        n = n_pts
    mid = n_pts // 2
    h1 = resample_array(curve[: mid + 1], n)
    h2 = resample_array(curve[mid:], n)
    return h1, h2


def half_distances(lanes: list[Polyline3D],
                   connected: list[ConnectedLane]) -> tuple[np.ndarray, np.ndarray]:
    """Mean L1 distances of every lane to the two halves of every connected
    lane: (d_front, d_back), each of shape (n_lanes, n_connected).

    Each connected lane is split and its halves resampled once. A small
    d_front[i, c] marks lane i as a plausible predecessor of c, a small
    d_back[i, c] as a plausible successor; their elementwise minimum is the
    geometric correlation matrix D the cross-attention mask is built from.
    """
    n, m = len(lanes), len(connected)
    if n == 0 or m == 0:
        return np.zeros((n, m)), np.zeros((n, m))
    lane_pts = np.stack([lane.points for lane in lanes])
    fronts, backs = zip(*(split_halves_array(c.curve.points) for c in connected))
    return avg_l1_matrix(lane_pts, np.stack(fronts)), avg_l1_matrix(lane_pts, np.stack(backs))
