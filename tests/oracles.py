"""Slow reference implementations the tests compare the library against.

Everything here trades speed for obviousness: the Frechet distance is the
literal recursive definition, distances are double loops, and assignment is
full enumeration. None of this is imported by the package itself.
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
