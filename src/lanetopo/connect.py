"""Connected-lane construction.

A connected lane is the merge of a predecessor lane and a successor lane at
their shared junction: the two point lists are concatenated with the junction
counted once (2*N_P - 1 points) and then resampled back to N_P points. The
halves of the merged curve are what lane queries are correlated against.

Every step runs on (k, n, 3) stacks. connected_curves merges all edges of
the scene's lane stack with one concatenate and one resample_rows call
(build_connected_gt wraps its rows with their source pairs); half_distances
splits a curve stack from any source at one index and resamples the halves
as two stacks. Each row is bitwise what the one-curve-at-a-time
construction gives (tests/oracles.py), and errors name the same first edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ZERO_LENGTH, avg_l1_matrix, resample_rows, resample_stack
from .scene import FLAWS, JUNCTION_TOL, Polyline3D, Scene, junction_gaps, polyline_flaws


@dataclass(frozen=True)
class ConnectedLane:
    """Merged predecessor/successor curve with its source lane indices."""

    source: tuple[int, int]
    curve: Polyline3D


def connected_curves(scene: Scene) -> np.ndarray:
    """All ground-truth connected curves as one (m, n_points, 3) stack, in
    row-major order of the ll matrix; (0, n_points, 3) without edges.

    The scene's lanes must have the scene's point count (Scene.lane_stack
    raises first, whatever the edges). Each pair marked in ll is merged at
    its junction, counted once, and all merges are resampled to the scene's
    point count in one resample_rows call. A marked pair whose endpoints
    do not coincide within the junction tolerance is a contract violation
    and raises; so does a merged curve whose arc length overflows (named by
    its edge, without a warning), that cannot be resampled or that
    Polyline3D would reject. The first such edge in row-major order
    raises, with the message a one-edge-at-a-time build would give.
    """
    L = scene.lane_stack()
    rows, cols = np.nonzero(scene.topo.ll)
    gaps = junction_gaps(scene.lanes, rows, cols)
    # edges past the first open junction are never merged
    k = gaps[0][0] if gaps else len(rows)
    curves = np.zeros((0, scene.n_points, 3))
    if k:
        merged = np.concatenate([L[rows[:k]], L[cols[:k], 1:]], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            curves, length = resample_rows(merged, scene.n_points)
        # per edge: a length not finite, zero length, the polyline flaws in order
        bad = np.argwhere(np.column_stack([~np.isfinite(length), length <= 0.0,
                                           polyline_flaws(curves)]))
        if bad.size:
            e, flaw = bad[0]
            raise ValueError((f"lanes ({rows[e]}, {cols[e]}) are marked connected but their "
                              f"merged curve's arc length is not finite",
                              ZERO_LENGTH, *FLAWS)[flaw])
    if gaps:
        raise ValueError(
            f"lanes ({rows[k]}, {cols[k]}) are marked connected but their junction is "
            f"{gaps[0][1]:.4f} m apart (tolerance {JUNCTION_TOL})"
        )
    return curves


def build_connected_gt(scene: Scene) -> list[ConnectedLane]:
    """The rows of connected_curves(scene) as connected lanes, each with the
    ll edge (i, j) it was merged from."""
    curves = connected_curves(scene)
    rows, cols = np.nonzero(scene.topo.ll)
    return [ConnectedLane(source=(int(i), int(j)), curve=Polyline3D.unchecked(c))
            for i, j, c in zip(rows, cols, curves)]


def _halves(C: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Front and back halves of every curve of C (..., k, N_P, 3), split at
    index floor(N_P / 2) and resampled to n points; the midpoint is in both.
    Each curve is resampled on its own, so a batch is resampled as one stack."""
    *lead, k, N, _ = C.shape
    C = C.reshape(-1, N, 3)
    mid = N // 2
    return (resample_stack(C[:, : mid + 1], n).reshape(*lead, k, n, 3),
            resample_stack(C[:, mid:], n).reshape(*lead, k, n, 3))


def half_distances(L: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean L1 distances of every lane of the stack L (n, N_P, 3) to the two
    halves of every curve of the stack C (m, N_P, 3): (d_front, d_back),
    each (n, m), or (B, n, m) for a batch of scenes, L (B, n, N_P, 3) and
    C (B, m, N_P, 3). C need not hold valid polylines, only resamplable
    halves.

    A small d_front[i, c] marks lane i as a plausible predecessor of c, a
    small d_back[i, c] as a plausible successor; their elementwise minimum
    is the geometric correlation matrix D the cross-attention mask is built
    from. Each half needs at least two points, so C needs at least three.
    """
    N = C.shape[-2]
    if N < 3:
        raise ValueError(f"cannot split {N}-point curves into halves: one half "
                         f"would be a zero-length polyline (at least 3 points are needed)")
    fronts, backs = _halves(C, N)
    return avg_l1_matrix(L, fronts), avg_l1_matrix(L, backs)
