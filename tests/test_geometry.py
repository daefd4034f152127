"""Polyline geometry: resampling, distances, boxes, and widening."""

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.geometry import (
    L1_CHUNK,
    PAIR_CHUNK,
    _plane_sum,
    _point_gaps,
    avg_l1_matrix,
    box_iou_matrix,
    chamfer_pairs,
    endpoint_bounds,
    frechet_pairs,
    resample_stack,
    widen,
)
from conftest import straight_lane
from oracles import (
    avg_l1_loops,
    avg_l1_matrix_lastaxis,
    avg_l1_scalar,
    box_iou,
    chamfer_loops,
    cumulative_lengths,
    endpoint_bound,
    frechet_loops,
    frechet_matrix,
    frechet_recursive,
    lane_boundaries,
    lane_segment_distance,
    random_polyline,
    resample_loops,
    segment_matrix,
    widen_loops,
)


def resample_one(pts, n):
    """resample_stack on the one-row stack of pts."""
    return resample_stack(np.asarray(pts, dtype=np.float64)[None], n)[0]


def arc_length(pts):
    return cumulative_lengths(pts)[-1]


class TestResample:
    def test_straight_line_three_points(self):
        out = resample_one([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]], 3)
        expected = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert np.array_equal(out, expected)

    def test_l_shape_five_points(self):
        # two 4 m legs, arc positions {0, 2, 4, 6, 8}; the corner sits at 4
        pts = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [4.0, 4.0, 0.0]])
        out = resample_one(pts, 5)
        expected = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [4.0, 0.0, 0.0],
                             [4.0, 2.0, 0.0], [4.0, 4.0, 0.0]])
        assert np.allclose(out, expected, atol=1e-12)

    def test_identity_on_uniform_polyline(self):
        # binary-exact spacing, so interpolation targets hit the vertices
        poly = straight_lane(0.0, 20.0, 3.0, n=5)
        out = resample_one(poly.points, 5)
        assert np.array_equal(out, poly.points)

    def test_identity_on_irrational_spacing(self):
        t = np.linspace(0.0, 1.0, 7)
        pts = np.stack([t * np.pi, t * np.e, np.zeros(7)], axis=1)
        out = resample_one(pts, 7)
        assert np.allclose(out, pts, atol=1e-9)

    def test_endpoints_are_preserved_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = random_polyline(rng, 6)
            out = resample_one(pts, 9)
            assert np.array_equal(out[0], pts[0])
            assert np.array_equal(out[-1], pts[-1])

    def test_output_count(self):
        poly = straight_lane(0.0, 10.0, 0.0, n=4)
        for n in (2, 3, 11, 40):
            assert resample_one(poly.points, n).shape == (n, 3)
        assert resample_stack(np.zeros((0, 9, 3)), 4).shape == (0, 4, 3)

    def test_fewer_than_two_points_raises(self):
        poly = straight_lane(0.0, 10.0, 0.0, n=4)
        with pytest.raises(ValueError):
            resample_one(poly.points, 1)

    def test_arc_length_preserved_when_vertices_hit_the_grid(self):
        # output points sit on the input curve, so length is preserved only
        # when every interior vertex lands on a target arc position; the
        # L shape with n = 5 and any straight line qualify
        L = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [4.0, 4.0, 0.0]])
        out = resample_one(L, 5)
        assert abs(arc_length(out) - arc_length(L)) <= 1e-9 * arc_length(L)

        line = straight_lane(0.0, 37.0, 2.0, n=3).points
        for n in (2, 5, 16):
            out = resample_one(line, n)
            assert abs(arc_length(out) - arc_length(line)) <= 1e-9 * arc_length(line)

    def test_corner_cutting_never_lengthens(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = random_polyline(rng, 5)
            out = resample_one(pts, 7)
            assert arc_length(out) <= arc_length(pts) + 1e-12


def same_floats(a, b):
    """Equal values, nan where nan, and the same sign on every zero."""
    keep = ~np.isnan(a)
    return np.array_equal(a, b, equal_nan=True) and \
        np.array_equal(np.signbit(a[keep]), np.signbit(b[keep]))


def assert_rows_are_the_oracle(P, m):
    got = resample_stack(P, m)
    assert got.shape == (len(P), m, 3)
    for row, pts in zip(got, P):
        assert same_floats(row, resample_loops(pts, m))


class TestResampleStack:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_bitwise_equal_to_the_per_axis_oracle(self, scale):
        rng = np.random.default_rng(int(scale * 1000) + 7)
        for n in range(2, 26):
            for m in range(2, 26):
                walk = np.cumsum(rng.normal(0.0, scale, size=(4, n, 3)), axis=1)
                jumps = rng.uniform(-scale, scale, size=(3, n, 3))
                assert_rows_are_the_oracle(np.concatenate([walk, jumps]), m)

    def test_targets_on_the_knots(self):
        # chords of 0.25 along x: every knot and target is binary-exact, so
        # where m - 1 divides n - 1 each target lands on a knot, where -0.0
        # stays -0.0; the slanted row's chords are sqrt(0.3125), whose sums
        # round
        for n in range(2, 26):
            t = np.arange(n, dtype=np.float64) * 0.25
            P = np.stack([np.stack([t, np.full(n, -0.0), np.full(n, -3.0)], axis=1),
                          np.stack([t, 2.0 * t, np.zeros(n)], axis=1)])
            for m in range(2, 26):
                assert_rows_are_the_oracle(P, m)
        hits = resample_stack(P[:, :9], 5)[0]
        assert np.array_equal(hits, P[0, :9:2])

    def test_near_zero_segment(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 11, 25):
            P = rng.normal(0.0, 5.0, size=(6, n, 3))
            for k, tiny in enumerate((1e-9, 1e-12, 1e-15, 1e-300, 5e-324, 1e-13)):
                P[k, 1] = P[k, 0] + tiny
            for m in (2, 3, 11, 25):
                assert_rows_are_the_oracle(P, m)

    def test_extreme_and_non_finite_coordinates(self):
        # chords that underflow to zero or overflow to inf, and inf or nan
        # coordinates: nan targets, infinite totals and zero lengths must
        # come out as np.interp gives them, row by row
        rng = np.random.default_rng(8)
        exps = [-320, -200, -160, 0, 150, 300, 307, 308]
        with np.errstate(all="ignore"):
            for trial in range(600):
                n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
                P = rng.normal(size=(n, 3)) * 10.0 ** rng.choice(exps, size=(n, 3))
                if trial % 3 == 0:
                    P[rng.integers(n), rng.integers(3)] = rng.choice([np.inf, -np.inf, np.nan])
                if trial % 4 == 0:
                    P[:, 2] = 0.0
                try:
                    ref = resample_loops(P, m)
                except ValueError as err:
                    with pytest.raises(ValueError, match=str(err)):
                        resample_stack(P[None], m)
                    continue
                assert same_floats(resample_stack(P[None], m)[0], ref)

    def test_errors_match_the_oracle(self):
        rng = np.random.default_rng(5)
        P = rng.normal(size=(3, 5, 3))
        for m in (1, 0, -3):
            with pytest.raises(ValueError, match=f"got {m}"):
                resample_loops(P[0], m)
            with pytest.raises(ValueError, match=f"got {m}"):
                resample_stack(P, m)
        # one zero-length row fails the whole stack, as its own call would
        P[1] = P[1, 0]
        with pytest.raises(ValueError, match="zero-length"):
            resample_loops(P[1], 4)
        with pytest.raises(ValueError, match="zero-length"):
            resample_stack(P, 4)
        with pytest.raises(ValueError, match="zero-length"):
            resample_stack(P[1:2, :1], 4)


class TestAvgL1:
    def test_identical_is_zero(self):
        pts = random_polyline(np.random.default_rng(0), 5)
        assert lt.avg_l1(pts, pts) == 0.0

    def test_unit_shift_in_two_axes(self):
        a = random_polyline(np.random.default_rng(1), 4)
        b = a + np.array([1.0, 1.0, 0.0])
        assert lt.avg_l1(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_polyline(rng, 6)
            b = random_polyline(rng, 6)
            assert lt.avg_l1(a, b) == pytest.approx(avg_l1_loops(a, b), abs=1e-12)

    def test_unequal_counts_raise(self):
        with pytest.raises(ValueError):
            lt.avg_l1(np.zeros((3, 3)), np.zeros((4, 3)))


class TestAvgL1Matrix:
    @pytest.mark.parametrize("n_pts", [2, 3, 8, 11, 20])
    @pytest.mark.parametrize("n, m", [(1, 1), (7, 100), (5, PAIR_CHUNK + 44),
                                      (PAIR_CHUNK + 44, 1), (23, 17),
                                      (7, 1000), (5, L1_CHUNK + 44),
                                      (L1_CHUNK + 44, 1), (L1_CHUNK // 17 + 10, 17)])
    def test_bitwise_equal_to_scalar_pairs(self, n_pts, n, m):
        # small shapes in one row chunk, then row chunks of L1_CHUNK // m
        # lanes: a short last chunk, one lane per chunk when m > L1_CHUNK,
        # and one full chunk plus a remainder
        rng = np.random.default_rng(n_pts * 1000 + n)
        L = np.stack([random_polyline(rng, n_pts) for _ in range(n)])
        H = np.stack([random_polyline(rng, n_pts) for _ in range(m)])
        expected = np.array([[avg_l1_scalar(a, b) for b in H] for a in L])
        assert np.array_equal(avg_l1_matrix(L, H), expected)

    def test_empty_sides_give_empty_shapes(self):
        pts = np.zeros((2, 11, 3))
        assert avg_l1_matrix(pts[:0], pts).shape == (0, 2)
        assert avg_l1_matrix(pts, pts[:0]).shape == (2, 0)

    def test_one_pair_call_is_avg_l1(self):
        rng = np.random.default_rng(5)
        a, b = random_polyline(rng, 11), random_polyline(rng, 11)
        assert lt.avg_l1(a, b) == avg_l1_matrix(a[None], b[None])[0, 0] == avg_l1_scalar(a, b)

    def test_mismatched_point_counts_raise(self):
        with pytest.raises(ValueError, match="point counts differ"):
            avg_l1_matrix(np.zeros((2, 11, 3)), np.zeros((3, 7, 3)))
        with pytest.raises(ValueError, match="expected"):
            avg_l1_matrix(np.zeros((11, 3)), np.zeros((3, 11, 3)))
        with pytest.raises(ValueError, match="zero points"):
            avg_l1_matrix(np.zeros((2, 0, 3)), np.zeros((3, 0, 3)))

    def test_plane_sum_adds_in_numpy_pairwise_order(self):
        # below 8 planes in turn, 8 accumulators up to 128, halves above:
        # the order of np.sum over a contiguous axis, whatever N
        rng = np.random.default_rng(7)
        for N in range(1, 301):
            d = rng.random((N, 3, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, (N, 1, 1))
            expected = np.ascontiguousarray(np.moveaxis(d, 0, -1)).sum(axis=-1)
            assert np.array_equal(_plane_sum(d.copy()), expected), N

    def test_bitwise_equal_to_the_last_axis_kernel_at_every_point_count(self):
        rng = np.random.default_rng(11)
        for N in range(2, 301):
            scale = 10.0 ** rng.uniform(-2.0, 3.0)
            L, H = rng.normal(size=(3, N, 3)) * scale, rng.normal(size=(4, N, 3)) * scale
            assert np.array_equal(avg_l1_matrix(L, H), avg_l1_matrix_lastaxis(L, H)), N

    @pytest.mark.parametrize("n_pts", [11, 129, 300])
    @pytest.mark.parametrize("n, m", [(L1_CHUNK // 7, 7), (L1_CHUNK // 7 + 1, 7),
                                      (2, L1_CHUNK), (2, L1_CHUNK + 1), (L1_CHUNK + 1, 1),
                                      (0, 5), (5, 0), (0, 0)])
    def test_chunk_boundaries_and_empty_sides_match_the_last_axis_kernel(self, n_pts, n, m):
        # one full chunk, a full chunk and one more lane, one lane per chunk,
        # and empty sides, at point counts on both sides of the halving
        rng = np.random.default_rng(n * 7 + m + n_pts)
        L, H = rng.normal(size=(n, n_pts, 3)) * 30.0, rng.normal(size=(m, n_pts, 3)) * 30.0
        got = avg_l1_matrix(L, H)
        assert got.shape == (n, m)
        assert np.array_equal(got, avg_l1_matrix_lastaxis(L, H))


class TestDiscreteFrechet:
    def test_identical_is_zero(self):
        pts = random_polyline(np.random.default_rng(0), 5)
        assert lt.discrete_frechet(pts, pts) == 0.0

    def test_parallel_offset_equals_offset(self):
        a = straight_lane(0.0, 10.0, 0.0, n=6).points
        for d in (0.5, 1.75, 4.0):
            b = a + np.array([0.0, d, 0.0])
            assert lt.discrete_frechet(a, b) == pytest.approx(d, abs=1e-12)

    def test_matches_recursive_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_polyline(rng, int(rng.integers(2, 7)))
            b = random_polyline(rng, int(rng.integers(2, 7)))
            assert lt.discrete_frechet(a, b) == pytest.approx(
                frechet_recursive(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_polyline(rng, 5)
            b = random_polyline(rng, 4)
            assert lt.discrete_frechet(a, b) == lt.discrete_frechet(b, a)

    def test_reversal_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_polyline(rng, 5)
            b = random_polyline(rng, 6)
            assert lt.discrete_frechet(a, b) == pytest.approx(
                lt.discrete_frechet(b[::-1], a[::-1]), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_polyline(rng, 4)
            b = random_polyline(rng, 5)
            c = random_polyline(rng, 6)
            ab = lt.discrete_frechet(a, b)
            bc = lt.discrete_frechet(b, c)
            ac = lt.discrete_frechet(a, c)
            assert ac <= ab + bc + 1e-12

    def test_endpoint_distances_are_lower_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_polyline(rng, 5)
            b = random_polyline(rng, 5)
            d = lt.discrete_frechet(a, b)
            assert d >= np.linalg.norm(a[0] - b[0]) - 1e-12
            assert d >= np.linalg.norm(a[-1] - b[-1]) - 1e-12

    def test_accepts_polylines(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(0.0, 10.0, 2.0)
        assert lt.discrete_frechet(a, b) == pytest.approx(2.0, abs=1e-12)


class TestBatchedKernels:
    """The batched pair kernels against the per-pair loop, bit for bit."""

    def mixed_polylines(self, rng, count):
        # lanes of one list need not share a point count
        return [random_polyline(rng, int(rng.integers(2, 14)), scale=5.0)
                for _ in range(count)]

    def test_point_gaps_bitwise_equal_to_norm(self):
        # coordinates over many magnitudes, so the order of the xyz sum shows
        rng = np.random.default_rng(30)
        a = rng.normal(size=(40, 9, 3)) * np.exp(rng.normal(0.0, 6.0, size=(40, 9, 3)))
        b = rng.normal(size=(40, 5, 3)) * np.exp(rng.normal(0.0, 6.0, size=(40, 5, 3)))
        expected = np.linalg.norm(a[:, :, None, :] - b[:, None, :, :], axis=3)
        assert _point_gaps(a, b).tobytes() == expected.tobytes()
        for k in range(0, 40, 7):
            single = np.linalg.norm(a[k][:, None, :] - b[k][None, :, :], axis=2)
            assert _point_gaps(a[k:k + 1], b[k:k + 1])[0].tobytes() == single.tobytes()

    def test_frechet_pairs_bitwise_equal_to_loops(self):
        rng = np.random.default_rng(31)
        for n, m in ((11, 11), (7, 11), (11, 4), (2, 2)):
            k = PAIR_CHUNK + 3  # more than one chunk
            a = rng.normal(0.0, 3.0, size=(k, n, 3))
            b = rng.normal(0.0, 3.0, size=(k, m, 3))
            got = frechet_pairs(a, b)
            assert [float(x) for x in got] == [frechet_loops(x, y) for x, y in zip(a, b)]

    def test_frechet_matrix_groups_mixed_shapes_and_prunes(self):
        rng = np.random.default_rng(32)
        a, b = self.mixed_polylines(rng, 14), self.mixed_polylines(rng, 11)
        bound = endpoint_bound(a, b)
        cut = float(np.median(bound))  # a cut equal to a bound prunes that pair
        dense, pruned = frechet_matrix(a, b, np.inf), frechet_matrix(a, b, cut)
        for i in range(14):
            for j in range(11):
                exact = frechet_loops(a[i], b[j])
                assert dense[i, j] == exact
                assert pruned[i, j] == (exact if bound[i, j] < cut else np.inf)
        assert np.isinf(pruned).any() and np.isfinite(pruned).any()

    def test_endpoint_bound_never_exceeds_distance(self):
        rng = np.random.default_rng(33)
        a, b = self.mixed_polylines(rng, 12), self.mixed_polylines(rng, 12)
        bound = endpoint_bound(a, b)
        exact = np.array([[frechet_loops(x, y) for y in b] for x in a])
        assert np.all(bound <= exact)
        # a pair whose coupling is tightest at an endpoint meets the bound exactly
        line = straight_lane(0.0, 10.0, 0.0).points
        shifted = line + np.array([0.0, 1.25, 0.0])
        assert endpoint_bound([line], [shifted])[0, 0] == frechet_loops(line, shifted)

    def test_chamfer_pairs_match_single_pairs_and_loops(self):
        rng = np.random.default_rng(34)
        a = rng.normal(0.0, 3.0, size=(PAIR_CHUNK + 5, 22, 3))
        b = rng.normal(0.0, 3.0, size=(PAIR_CHUNK + 5, 9, 3))
        got = chamfer_pairs(a, b)
        for k in range(0, len(a), 17):
            assert got[k] == lt.chamfer(a[k], b[k])
            assert got[k] == pytest.approx(chamfer_loops(a[k], b[k]), rel=1e-12)

    def test_segment_matrix_equals_per_pair_distance_below_cut(self):
        rng = np.random.default_rng(35)
        a, b = self.mixed_polylines(rng, 9), self.mixed_polylines(rng, 8)
        bounds_a, bounds_b = lane_boundaries(a, 1.5), lane_boundaries(b, 1.5)
        dense = frechet_matrix(a, b, np.inf)
        for cut in (np.inf, float(np.median(dense)) / 2.0):
            dist = segment_matrix(bounds_a, bounds_b, frechet_matrix(a, b, 2.0 * cut), cut)
            for i in range(len(a)):
                for j in range(len(b)):
                    exact = lane_segment_distance(bounds_a[i], a[i], bounds_b[j], b[j])
                    if dense[i, j] >= 2.0 * cut:
                        assert dist[i, j] == np.inf and exact >= cut
                    else:
                        # the Frechet term is bitwise the loop's, the Chamfer
                        # term sums in another order
                        assert dist[i, j] == 0.5 * (lt.chamfer(bounds_a[i], bounds_b[j])
                                                    + frechet_loops(a[i], b[j]))
                        assert dist[i, j] == pytest.approx(exact, rel=1e-12)
            assert np.isfinite(dist).any() and (cut == np.inf) != np.isinf(dist).any()

    def test_mismatched_pair_counts_rejected(self):
        with pytest.raises(ValueError):
            frechet_pairs(np.zeros((3, 4, 3)), np.zeros((2, 4, 3)))


def magnitudes(rng, shape):
    """Normal draws scaled by exp(N(0, 6)): coordinates from ~1e-10 to ~1e10,
    where the order of the xyz sum shows in the last bits."""
    return rng.normal(size=shape) * np.exp(rng.normal(0.0, 6.0, size=shape))


class TestPlaneGaps:
    """The coordinate-plane kernels bit for bit against np.linalg.norm."""

    def test_point_gaps_on_non_contiguous_stacks(self):
        rng = np.random.default_rng(70)
        a, b = magnitudes(rng, (30, 12, 3)), magnitudes(rng, (30, 7, 3))
        idx = rng.permutation(30)[:17]
        views = [
            (a[::2, 1::3], b[::2, ::-1]),                    # strided slices
            (a[idx], b[idx[::-1]]),                          # fancy-indexed stacks
            (a[idx][:, [0, 5, 5, 11]], b[3:20, 1:6]),        # fancy points, sliced pairs
            (np.asfortranarray(a[:9]), b[:9]),               # Fortran order
            (np.repeat(a, 2, axis=2)[:, :, ::2], b[:, 2:]),  # strided xyz axis
        ]
        assert sum(not X.flags.c_contiguous for view in views for X in view) >= 6
        for A, B in views:
            expected = np.linalg.norm(A[:, :, None, :] - B[:, None, :, :], axis=3)
            assert _point_gaps(A, B).tobytes() == expected.tobytes()

    def test_paired_endpoint_bounds_equal_the_matrix_bound(self):
        # the grouped kernel's bound of each pair against the per-scene matrix
        rng = np.random.default_rng(72)
        a = [magnitudes(rng, (int(n), 3)) for n in rng.integers(2, 9, size=13)]
        b = [magnitudes(rng, (int(n), 3)) for n in rng.integers(2, 9, size=11)]
        i, j = np.divmod(np.arange(13 * 11), 11)
        ends_a = np.array([p[[0, -1]] for p in a])
        ends_b = np.array([q[[0, -1]] for q in b])
        got = endpoint_bounds(ends_a, ends_b, i, j)
        assert got.tobytes() == endpoint_bound(a, b).ravel().tobytes()
        # pairs in any order, each lane in any number of them
        k = np.random.default_rng(73).integers(0, 13 * 11, 300)
        assert endpoint_bounds(ends_a, ends_b, i[k], j[k]).tobytes() == got[k].tobytes()
        empty = np.zeros(0, dtype=int)
        assert endpoint_bounds(np.zeros((0, 2, 3)), ends_b, empty, empty).shape == (0,)

    def test_endpoint_bound_is_the_larger_endpoint_norm(self):
        rng = np.random.default_rng(71)
        a = [magnitudes(rng, (int(n), 3)) for n in rng.integers(2, 9, size=23)]
        b = [magnitudes(rng, (int(n), 3)) for n in rng.integers(2, 9, size=19)]

        def norms(k):  # the gaps of the k-th points, as np.linalg.norm over xyz
            pa, pb = np.array([p[k] for p in a]), np.array([q[k] for q in b])
            return np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)

        expected = np.maximum(norms(0), norms(-1))
        assert endpoint_bound(a, b).tobytes() == expected.tobytes()
        assert endpoint_bound(a, []).shape == (23, 0)
        assert endpoint_bound([], b).shape == (0, 19)


class TestChamfer:
    def test_identical_is_zero(self):
        pts = random_polyline(np.random.default_rng(0), 5)
        assert lt.chamfer(pts, pts) == 0.0

    def test_single_point_sets(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0]])
        assert lt.chamfer(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_polyline(rng, int(rng.integers(2, 8)))
            b = random_polyline(rng, int(rng.integers(2, 8)))
            assert lt.chamfer(a, b) == pytest.approx(chamfer_loops(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = random_polyline(rng, 6)
        b = random_polyline(rng, 3)
        assert lt.chamfer(a, b) == lt.chamfer(b, a)


def iou(a, b) -> float:
    """box_iou_matrix of one box against one."""
    return box_iou_matrix([a], [b])[0, 0]


class TestBoxes:
    def test_iou_identical(self):
        assert iou((0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 2.0, 2.0)) == 1.0

    def test_iou_disjoint(self):
        assert iou((0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 6.0, 6.0)) == 0.0

    def test_iou_half_overlap(self):
        # intersection 2, union 6
        assert iou((0.0, 0.0, 2.0, 2.0), (1.0, 0.0, 3.0, 2.0)) \
            == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_iou_touching_edge_is_zero(self):
        assert iou((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 1.0)) == 0.0

    def test_matrix_is_bitwise_the_scalar_oracle(self):
        # touching (edge and corner), disjoint, nested and overlapping boxes,
        # with random ones at scales where the last place matters
        fixed = [(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 1.0), (1.0, 1.0, 2.0, 2.0),
                 (5.0, 5.0, 6.0, 6.0), (0.25, 0.25, 0.75, 0.75), (-1.0, -1.0, 3.0, 3.0),
                 (0.5, 0.1, 1.7, 0.3)]
        rng = np.random.default_rng(12)
        corners = rng.uniform(-50.0, 50.0, size=(40, 2)) * rng.choice([1e-3, 1.0, 1e3], (40, 1))
        sizes = rng.uniform(0.1, 80.0, size=(40, 2)) * rng.choice([1e-3, 1.0, 1e3], (40, 1))
        boxes = fixed + [tuple(c) + tuple(c + d) for c, d in zip(corners, sizes)]
        for a, b in [(fixed, fixed), (boxes, boxes), (boxes[:13], boxes[20:])]:
            got = box_iou_matrix(a, b)
            want = np.array([[box_iou(p, q) for q in b] for p in a])
            assert got.shape == want.shape and np.array_equal(got, want)
        # overlaps off the diagonal, besides the disjoint and touching pairs
        assert (box_iou_matrix(boxes, boxes) > 0.0).sum() > len(boxes)

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0)])
    def test_empty_sides(self, n, m):
        box = (0.0, 0.0, 1.0, 1.0)
        assert box_iou_matrix([box] * n, [box] * m).shape == (n, m)


class TestWidenToSegment:
    def test_straight_lane_boundaries(self):
        pts = straight_lane(0.0, 10.0, 0.0, n=5).points
        left, right, _ = widen(pts[None], width=2.0)
        assert np.allclose(left[0, :, 1], 1.0)
        assert np.allclose(right[0, :, 1], -1.0)
        assert np.array_equal(left[0, :, 0], pts[:, 0])

    def test_point_counts_match(self):
        lanes = [straight_lane(0.0, 10.0, 0.0, n=7), straight_lane(0.0, 10.0, 5.0, n=4)]
        assert [b.shape for b in lane_boundaries(lanes, 1.75)] == [(14, 3), (8, 3)]

    def test_category_passthrough(self):
        # evaluate widens every lane into a "lane" segment: no
        # pedestrian-crossing AP, and mAP is the lane AP
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=2, seed=3))
        pred = lt.perturb(scene, lt.NoiseParams(point_sigma=0.5), seed=3)
        block = lt.evaluate(pred, scene, lane_width=1.0).lane_segments
        assert block.ap_ped is None
        assert block.map == block.ap_ls and 0.0 < block.map < 1.0

    def test_nonpositive_width_raises(self):
        with pytest.raises(ValueError):
            widen(straight_lane(0.0, 10.0, 0.0).points[None], width=0.0)

    def test_boundary_offset_magnitude(self):
        t = np.linspace(0.0, 2.0 * np.pi, 20)
        pts = np.stack([10.0 * np.cos(t), 10.0 * np.sin(t), np.zeros_like(t)], axis=1)
        left, right, _ = widen(pts[None], width=3.0)
        off_l = np.linalg.norm(left[0] - pts, axis=1)
        off_r = np.linalg.norm(right[0] - pts, axis=1)
        assert np.allclose(off_l, 1.5, atol=1e-9)
        assert np.allclose(off_r, 1.5, atol=1e-9)


class TestWidenKernel:
    """The batched widen kernel against the per-lane loop, bit for bit."""

    @staticmethod
    def assert_bitwise(lanes, width):
        expected = widen_loops(lanes, width)
        got = lane_boundaries(lanes, width)
        assert len(got) == len(expected)
        for bounds, (left, right) in zip(got, expected):
            assert bounds.tobytes() == np.concatenate([left, right]).tobytes()

    def test_mixed_point_counts(self):
        rng = np.random.default_rng(40)
        counts = [3, 7, 11, 20, 7, 3, 20, 11, 11]
        lanes = [lt.Polyline3D(random_polyline(rng, n, scale=30.0)) for n in counts]
        for width in (0.5, 1.75, 3.3):
            self.assert_bitwise(lanes, width)
        # one stack of equal point counts, straight through the kernel
        stack = np.stack([lane.points for lane in lanes if len(lane.points) == 11])
        left, right, _ = widen(stack, 1.75)
        for k, (l_loop, r_loop) in enumerate(widen_loops(stack, 1.75)):
            assert np.array_equal(left[k], l_loop) and np.array_equal(right[k], r_loop)

    def test_near_vertical_tangent_falls_back_to_plus_y(self):
        # a vertical rise between two flat runs: the middle tangents have
        # (almost) no horizontal component
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0],
                        [1e-14, 0.0, 3.0], [1.0, 0.0, 3.0]])
        self.assert_bitwise([pts, straight_lane(0.0, 10.0, 2.0, n=5)], 2.0)
        left, right, _ = widen(pts[None], 2.0)
        assert np.array_equal(left[0, 1], pts[1] + [0.0, 1.0, 0.0])
        assert np.array_equal(right[0, 1], pts[1] - [0.0, 1.0, 0.0])

    def test_collapsed_boundary_raises_the_polyline_error(self):
        # a V whose two middle points' left offsets land on the same point:
        # normals (0.6, 0.8) and (-0.6, 0.8), offset 5 from (0, 0) and (6, 0)
        vee = np.array([[-2.0, 6.0, 0.0], [0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [8.0, 6.0, 0.0]])
        good = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0], [15.0, 0.0, 0.0]])
        with pytest.raises(ValueError) as loop_err:
            widen_loops([good, vee], 10.0)
        assert str(loop_err.value) == "polyline has consecutive duplicate points"
        for lanes in ([vee], [good, vee], [vee, good]):
            with pytest.raises(ValueError) as kernel_err:
                lane_boundaries(lanes, 10.0)
            assert str(kernel_err.value) == str(loop_err.value)
        # the kernel flags the left boundary's duplicate points, and raises nothing
        assert widen(vee[None], 10.0)[2].tolist() == [[False, True, False, False]]
        self.assert_bitwise([good, vee], 9.0)

    def test_overflowing_tangent_is_flagged_without_a_warning(self):
        # ends at both edges of the float range: the tangent, its norm and
        # the normal overflow; the boundary is flagged non-finite, silently
        lane = straight_lane(0.0, 10.0, 0.0).points.copy()
        lane[:2] = [[-1.7e308, -1.7e308, 0.0], [1.7e308, 1.7e308, 0.0]]
        stack = np.stack([straight_lane(0.0, 10.0, 1.0).points, lane])
        left, right, flaws = widen(stack, 1.75)
        assert flaws.tolist() == [[False] * 4, [True, False, True, False]]
        assert np.isfinite(left[0]).all() and not np.isfinite(left[1]).all()

    def test_overflowing_boundary_raises_the_polyline_error(self):
        # a lane along y at the edge of the float range: its right boundary
        # (offset along +x) overflows to inf, its left one does not
        edge = np.array([[1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0], [1.7e308, 2.0, 0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as loop_err:
                widen_loops([edge], 1e308)
            with pytest.raises(ValueError) as kernel_err:
                lane_boundaries([straight_lane(0.0, 1.0, 0.0), edge], 1e308)
        assert str(kernel_err.value) == str(loop_err.value) == "polyline has non-finite coordinates"

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_width_raises(self, width):
        with pytest.raises(ValueError, match="lane width must be finite and positive"):
            lane_boundaries([straight_lane(0.0, 10.0, 0.0)], width)
