"""Polyline and box geometry kernels.

Everything here is dense float64 numpy. Functions accept either a
Polyline3D or a raw (n, 3) array; internal callers mostly pass arrays.
"""

from __future__ import annotations

import numpy as np

from .scene import LaneSegment, Polyline3D


def _as_points(poly) -> np.ndarray:
    if isinstance(poly, Polyline3D):
        return poly.points
    return np.asarray(poly, dtype=np.float64)


def cumulative_lengths(pts: np.ndarray) -> np.ndarray:
    """Cumulative chord lengths, starting at 0."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def arc_length(poly) -> float:
    """Total chord length of the polyline."""
    return float(cumulative_lengths(_as_points(poly))[-1])


def resample_array(pts: np.ndarray, n: int) -> np.ndarray:
    """Resample a point array to n points uniform in arc length.

    The first and last points are preserved exactly; interior points are
    linear interpolations on the original chords.
    """
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
    # np.interp is exact at the table ends, but pin the endpoints anyway so
    # downstream junction checks can rely on bitwise equality.
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def avg_l1(a, b) -> float:
    """Mean L1 distance between index-aligned points of two equal-length polylines."""
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape != pb.shape:
        raise ValueError(f"point counts differ: {pa.shape} vs {pb.shape}")
    return float(np.mean(np.sum(np.abs(pa - pb), axis=1)))


def discrete_frechet(a, b) -> float:
    """Discrete Frechet distance with the Euclidean point metric.

    Standard coupling recurrence, filled iteratively:
        ca[i, j] = max(d(i, j), min(ca[i-1, j], ca[i-1, j-1], ca[i, j-1]))
    """
    pa, pb = _as_points(a), _as_points(b)
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


def chamfer(a, b) -> float:
    """Symmetric Chamfer distance: mean nearest-neighbour gap, averaged both ways."""
    pa, pb = _as_points(a), _as_points(b)
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean()))


def widen_to_segment(poly, width: float, category: str = "lane") -> LaneSegment:
    """Lane segment with boundaries offset width/2 to each side of the centerline.

    Offsets follow the horizontal normal of the tangent (central differences);
    near-vertical tangents fall back to the +y direction.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    pts = _as_points(poly)
    tan = np.gradient(pts, axis=0)
    normal = np.stack([-tan[:, 1], tan[:, 0], np.zeros(len(pts))], axis=1)
    norms = np.linalg.norm(normal, axis=1, keepdims=True)
    fallback = np.tile([0.0, 1.0, 0.0], (len(pts), 1))
    normal = np.where(norms > 1e-12, normal / np.maximum(norms, 1e-12), fallback)
    half = 0.5 * width
    return LaneSegment(
        centerline=Polyline3D(pts),
        left=Polyline3D(pts + half * normal),
        right=Polyline3D(pts - half * normal),
        category=category,
    )


def _box_area(box: np.ndarray) -> float:
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
    union = _box_area(a) + _box_area(b) - inter
    return float(inter / union) if union > 0.0 else 0.0
