"""Polyline and box geometry kernels.

Everything here is dense float64 numpy. Functions accept either a
Polyline3D or a raw (n, 3) array; internal callers mostly pass arrays.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .scene import checked, polyline_flaws


def _as_points(poly) -> np.ndarray:
    return np.asarray(getattr(poly, "points", poly), dtype=np.float64)


ZERO_LENGTH = "cannot resample a zero-length polyline"


def resample_rows(P, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(resample_stack(P, m), each row's arc length), raising for no row.

    The points of a row whose length is zero or not finite are not
    meaningful; callers that order several per-row errors read the lengths
    instead of catching one error. A stack of empty rows (n = 0) still
    raises.
    """
    if m < 2:
        raise ValueError(f"resample target must be >= 2 points, got {m}")
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 3 or P.shape[2] != 3:
        raise ValueError(f"expected a (k, n, 3) array, got {P.shape}")
    k, n = P.shape[:2]
    if n == 0 and k:
        raise ValueError(ZERO_LENGTH)
    seg = np.linalg.norm(np.diff(P, axis=1), axis=2)
    cum = np.concatenate([np.zeros((k, 1)), np.cumsum(seg, axis=1)], axis=1)
    total = cum[:, -1]
    x = total[:, None] * np.arange(m) / (m - 1)
    # np.interp's knot for x: the last one at or below it (cum never falls)
    j = (cum[:, None, :] <= x[:, :, None]).sum(axis=2) - 1
    jn = np.minimum(j + 1, n - 1)
    rows = np.arange(k)[:, None]
    c0, c1 = cum[rows, j], cum[rows, jn]
    y0, y1 = P[rows, j], P[rows, jn]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = (y1 - y0) / (c1 - c0)[..., None] * (x - c0)[..., None] + y0
    # a knot hit (even a -0.0 one) or the last knot takes the knot's value,
    # as in np.interp. Its retry for a nan interpolant never fires here: a
    # finite total bounds every |dy| / dx near 1, and an infinite one leaves
    # only nan targets, which stay nan, and last-knot hits.
    out = np.where(((x == c0) | (j == n - 1))[..., None], y0, out)
    # np.interp is exact at the table ends, but pin the endpoints anyway so
    # downstream junction checks can rely on bitwise equality.
    out[:, 0] = P[:, 0]
    out[:, -1] = P[:, -1]
    return out, total


def resample_stack(P, m: int) -> np.ndarray:
    """Resample each polyline of a (k, n, 3) stack to m points uniform in arc
    length, (k, m, 3).

    Row by row this is np.interp of each coordinate against the chord
    lengths, at targets total * arange(m) / (m - 1): the same norms and
    cumsum, the same knot search, and np.interp's own formula
    slope * (x - x_j) + y_j, so every row is bitwise the per-axis result.
    The first and last points are preserved exactly. A zero-length row
    raises.
    """
    out, length = resample_rows(P, m)
    if (length <= 0.0).any():
        raise ValueError(ZERO_LENGTH)
    return out


# Pairs per batched kernel call: at most PAIR_CHUNK, and at most GAP_CELLS point
# pairs, so a gap plane is at most 256 KB and stays in cache (67 pairs of 22 points).
PAIR_CHUNK = 256
GAP_CELLS = 32768

# Pairs per avg_l1_matrix chunk: its one temporary is a (3, N, pairs) block,
# 1.1 MB at N = 11. Measured at N = 11 (2 vCPU, numpy 2.4.6), a call on
# 158 x 161 / 823 x 823 pairs takes 1.6 / 46 ms at 4096 pairs and 1.7 /
# 54 ms at 2048 (best of 12 rounds), and 512 or 8192 pairs were slower still
# at 823 x 823; the kernel with each pair's points innermost took 2.8 / 55 ms.
L1_CHUNK = 4096

# numpy's pairwise summation: 8 accumulators up to this many values, halving above
_PW_BLOCK = 128


def _plane_sum(d: np.ndarray) -> np.ndarray:
    """Sum of the planes of d (N, ...) over its first axis, in the order
    numpy's pairwise summation adds N values of a contiguous axis: in turn
    below 8; in 8 accumulators, ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the remaining planes in turn, up to _PW_BLOCK; the two
    halves, split at a multiple of 8, above. d is overwritten; the sum is
    d[0]."""
    n = len(d)
    if n < 8:
        for p in d[1:]:
            d[0] += p
    elif n <= _PW_BLOCK:
        end = n - n % 8
        r = d[:8]
        for i in range(8, end, 8):
            r += d[i:i + 8]
        r[::2] += r[1::2]
        r[::4] += r[2::4]
        d[0] += d[4]
        for p in d[end:]:
            d[0] += p
    else:
        half = n // 2 - n // 2 % 8
        _plane_sum(d[:half])
        _plane_sum(d[half:])
        d[0] += d[half]
    return d[0]


def avg_l1_matrix(L, H) -> np.ndarray:
    """(n, m) mean L1 distances between index-aligned points of every lane in
    L (n, N, 3) and every polyline in H (m, N, 3); for a batch of scenes,
    L (B, n, N, 3) and H (B, m, N, 3), each scene's (n, m) as its own call.

    The coordinates' differences fill one (3, N, [B,] lanes, m) block, curves
    innermost; each point sums (|dx| + |dy|) + |dz|, as numpy sums one
    pair's three coordinates, and _plane_sum adds the N point planes as
    numpy sums one pair's N points before the mean divides by N, so every
    entry is bitwise the one-pair result. Lanes go in chunks of
    L1_CHUNK // (B * m) (at least one), so no block holds many more than
    L1_CHUNK pairs.
    """
    L = np.asarray(L, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if L.ndim not in (3, 4) or H.ndim != L.ndim or H.shape[:-3] != L.shape[:-3] \
            or L.shape[-1] != 3 or H.shape[-1] != 3:
        raise ValueError(f"expected (n, N, 3) and (m, N, 3) arrays, got {L.shape} and {H.shape}")
    *lead, n, N, _ = L.shape
    m = H.shape[-3]
    if N != H.shape[-2]:
        raise ValueError(f"point counts differ: {N} vs {H.shape[-2]}")
    if N == 0:
        raise ValueError("cannot average over polylines of zero points")
    # (3, N, [B,] lanes) planes: a block's differences are contiguous along the curves
    planes = (L.ndim - 1, L.ndim - 2, *range(L.ndim - 2))
    Lp = np.ascontiguousarray(L.transpose(planes))[..., None]
    Hp = np.ascontiguousarray(H.transpose(planes))[..., None, :]
    out = np.empty((*lead, n, m))
    rows = max(1, L1_CHUNK // max(1, m * math.prod(lead)))
    block = np.empty((3, N, *lead, min(rows, n), m))
    for s in range(0, n, rows):
        d = block[..., :min(rows, n - s), :]
        np.abs(np.subtract(Lp[..., s:s + rows, :], Hp, out=d), out=d)
        d[0] += d[1]
        d[0] += d[2]
        np.divide(_plane_sum(d[0]), N, out=out[..., s:s + rows, :])
    return out


def avg_l1(a, b) -> float:
    """Mean L1 distance between index-aligned points of two equal-length
    polylines (the one-pair call of avg_l1_matrix)."""
    return float(avg_l1_matrix(_as_points(a)[None], _as_points(b)[None])[0, 0])


def _point_gaps(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(k, n, m) Euclidean distances between the points of A (k, n, 3) and B (k, m, 3).

    Each coordinate's squared differences fill a contiguous (n, m, k) plane,
    pairs innermost; the planes are summed (dx^2 + dy^2) + dz^2, left to right
    as numpy sums fewer than 8 terms, so each gap is bitwise np.linalg.norm
    of the difference. The result is a (k, n, m) view of that memory.
    """
    gaps = None
    for a, b in zip(np.ascontiguousarray(A.transpose(2, 1, 0)),
                    np.ascontiguousarray(B.transpose(2, 1, 0))):
        d = a[:, None, :] - b[None, :, :]
        d *= d
        gaps = d if gaps is None else np.add(gaps, d, out=gaps)
    return np.sqrt(gaps, out=gaps).transpose(2, 0, 1)


def _chunked(kernel, A, B) -> np.ndarray:
    """kernel over the pairs (A[k], B[k]), chunked by PAIR_CHUNK and GAP_CELLS."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 3 or B.ndim != 3 or A.shape[0] != B.shape[0] \
            or A.shape[2] != 3 or B.shape[2] != 3:
        raise ValueError(f"expected (k, n, 3) and (k, m, 3) arrays, got {A.shape} and {B.shape}")
    out = np.empty(A.shape[0])
    rows = max(1, min(PAIR_CHUNK, GAP_CELLS // max(1, A.shape[1] * B.shape[1])))
    for s in range(0, A.shape[0], rows):
        out[s:s + rows] = kernel(A[s:s + rows], B[s:s + rows])
    return out


def _frechet_chunk(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (n, m, k), _point_gaps' own memory: each DP cell is a contiguous vector over the pairs
    d = np.ascontiguousarray(_point_gaps(A, B).transpose(1, 2, 0))
    n, m, _ = d.shape
    ca = np.empty_like(d)
    ca[:, 0] = np.maximum.accumulate(d[:, 0], axis=0)
    ca[0, :] = np.maximum.accumulate(d[0, :], axis=0)
    reach = np.empty(d.shape[2])
    for i in range(1, n):
        for j in range(1, m):
            np.minimum(ca[i - 1, j], ca[i - 1, j - 1], out=reach)
            np.minimum(reach, ca[i, j - 1], out=reach)
            np.maximum(reach, d[i, j], out=ca[i, j])
    return ca[-1, -1]


def frechet_pairs(A, B) -> np.ndarray:
    """Discrete Frechet distances of k polyline pairs, A (k, n, 3) against B (k, m, 3).

    Standard coupling recurrence with the Euclidean point metric, run on
    all pairs at once:
        ca[i, j] = max(d(i, j), min(ca[i-1, j], ca[i-1, j-1], ca[i, j-1]))
    Only max and min act on the point distances, so each result is exactly
    one of them, the same float a per-pair loop returns.
    """
    return _chunked(_frechet_chunk, A, B)


def discrete_frechet(a, b) -> float:
    """Discrete Frechet distance of one pair of polylines (see frechet_pairs)."""
    return float(frechet_pairs(_as_points(a)[None], _as_points(b)[None])[0])


def _chamfer_chunk(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = _point_gaps(A, B)
    # each pair's nearest gaps made contiguous, so each mean sums them as a one-pair call does
    near_a, near_b = (np.ascontiguousarray(d.min(axis=ax)) for ax in (2, 1))
    return 0.5 * (near_a.mean(axis=1) + near_b.mean(axis=1))


def chamfer_pairs(A, B) -> np.ndarray:
    """Symmetric Chamfer distances of k point-set pairs, A (k, n, 3) against B (k, m, 3):
    mean nearest-neighbour gap, averaged both ways."""
    return _chunked(_chamfer_chunk, A, B)


def chamfer(a, b) -> float:
    """Symmetric Chamfer distance of one pair of point sets (see chamfer_pairs)."""
    return float(chamfer_pairs(_as_points(a)[None], _as_points(b)[None])[0])


def endpoint_bounds(A, B, ia, ib) -> np.ndarray:
    """Lower bounds on the discrete Frechet distances of k polyline pairs,
    pair j running from the polyline whose first and last points are
    A[ia[j]] to the one whose are B[ib[j]]; A (n, 2, 3) and B (m, 2, 3).

    Every coupling starts at the first two points and ends at the last two,
    so the distance is at least the larger of those two gaps. Each gap is
    summed (dx^2 + dy^2) + dz^2 on coordinate planes as _point_gaps sums
    it, so it is the recurrence's own first or last cell, and the
    recurrence only takes max and min, so the bound never exceeds the
    distance, bitwise.
    """
    gaps = None
    for a, b in zip(np.ascontiguousarray(np.transpose(A, (2, 1, 0)), dtype=np.float64),
                    np.ascontiguousarray(np.transpose(B, (2, 1, 0)), dtype=np.float64)):
        d = np.take(a, ia, axis=1)
        d -= np.take(b, ib, axis=1)
        d *= d
        gaps = d if gaps is None else np.add(gaps, d, out=gaps)
    np.sqrt(gaps, out=gaps)
    return np.maximum(gaps[0], gaps[1])


# the lane width widen and evaluate accept, as the CLI checks it too
check_width = functools.partial(checked, "lane width", lo=0.0, above=True)


def widen(P, width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left and right boundaries of the lanes P (k, n, 3), offset width/2 to
    each side of each centerline, and their (k, 4) flaws: polyline_flaws of
    the left boundaries, then of the right ones.

    Offsets follow the horizontal normal of the tangent (central differences);
    near-vertical tangents fall back to the +y direction. Every step is
    elementwise or reduces one point's xyz, so each lane's boundaries are
    bitwise the ones it gets alone. A tangent or normal that overflows gives
    a non-finite boundary, which is flagged, not warned about.
    """
    width = check_width(width)
    P = np.asarray(P, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        tan = np.gradient(P, axis=1)
        normal = np.stack([-tan[..., 1], tan[..., 0], np.zeros(P.shape[:2])], axis=-1)
        norms = np.linalg.norm(normal, axis=-1, keepdims=True)
        normal = np.where(norms > 1e-12, normal / np.maximum(norms, 1e-12), [0.0, 1.0, 0.0])
        half = 0.5 * width
        left, right = P + half * normal, P - half * normal
    return left, right, np.concatenate([polyline_flaws(left), polyline_flaws(right)], axis=1)


def box_iou_matrix(a, b) -> np.ndarray:
    """(n, m) intersection over union of the (n, 4) boxes a and the (m, 4)
    boxes b, each (x_min, y_min, x_max, y_max), in one array pass: 0 where
    the boxes do not overlap or the union is not positive."""
    ax0, ay0, ax1, ay1 = np.asarray(a, dtype=np.float64).reshape(-1, 4).T[..., None]
    bx0, by0, bx1, by1 = np.asarray(b, dtype=np.float64).reshape(-1, 4).T[:, None]
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    keep = (iw > 0.0) & (ih > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(inter.shape), where=keep)
