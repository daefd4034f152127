"""Slow reference implementations the tests compare the library against.

Everything here trades speed for obviousness: the Frechet distance is the
literal recursive definition or a per-pair loop, distances are double
loops, greedy matching visits one prediction and one ground truth at a
time, and assignment is full enumeration. None of this is imported by the
package itself.
"""

import itertools
from functools import lru_cache

import numpy as np


def frechet_recursive(a, b) -> float:
    """Discrete Frechet distance by the textbook coupling recursion."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    @lru_cache(maxsize=None)
    def couple(i, j):
        d = float(np.linalg.norm(a[i] - b[j]))
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(couple(0, j - 1), d)
        if j == 0:
            return max(couple(i - 1, 0), d)
        return max(min(couple(i - 1, j), couple(i - 1, j - 1), couple(i, j - 1)), d)

    return couple(len(a) - 1, len(b) - 1)


def frechet_loops(a, b) -> float:
    """Discrete Frechet distance by the iterative coupling DP, one cell at a time."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
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


def greedy_match_loops(dist, scores, threshold, better_below=True):
    """Greedy matching as a double loop over ranked predictions and ground truths.

    Returns (tp_flags in ranked order, pred_to_gt, ranked order), like
    lanetopo.greedy_match.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n_pred, n_gt = dist.shape
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    taken = np.zeros(n_gt, dtype=bool)
    pred_to_gt = np.full(n_pred, -1)
    flags = []
    for p in order:
        best = -1
        best_d = None
        for g in range(n_gt):
            if taken[g]:
                continue
            d = dist[p, g]
            ok = (d < threshold) if better_below else (d >= threshold)
            if not ok:
                continue
            if best < 0 or (d < best_d if better_below else d > best_d):
                best, best_d = g, d
        if best >= 0:
            taken[best] = True
            pred_to_gt[p] = best
            flags.append(True)
        else:
            flags.append(False)
    return flags, pred_to_gt, order


def chamfer_loops(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def mean_nearest(xs, ys):
        total = 0.0
        for x in xs:
            total += min(float(np.linalg.norm(x - y)) for y in ys)
        return total / len(xs)

    return 0.5 * (mean_nearest(a, b) + mean_nearest(b, a))


def avg_l1_loops(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for pa, pb in zip(a, b):
        total += sum(abs(float(pa[k] - pb[k])) for k in range(pa.shape[0]))
    return total / len(a)


def brute_force_assignment(cost):
    """Exhaustive minimum-cost assignment. Returns (pairs, total).

    Pairs come back sorted by row and the total is summed in that order, the
    order hungarian returns its pairs in, so totals are comparable bit for bit.
    Only sensible for sides up to about 7.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n == 0 or m == 0:
        return [], 0.0
    best_pairs, best_total = None, None
    if n <= m:
        candidates = (list(enumerate(cols)) for cols in itertools.permutations(range(m), n))
    else:
        candidates = ([(r, c) for c, r in enumerate(rows)]
                      for rows in itertools.permutations(range(n), m))
    for pairs in candidates:
        pairs = sorted(pairs)
        total = sum(float(cost[r, c]) for r, c in pairs)
        if best_total is None or total < best_total:
            best_pairs, best_total = pairs, total
    return best_pairs, best_total


def random_polyline(rng, n, scale=10.0):
    """Random polyline with no consecutive duplicates (scale >> tolerance)."""
    return rng.uniform(-scale, scale, size=(n, 3))
