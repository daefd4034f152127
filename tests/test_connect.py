"""Connected-lane construction and the lane-to-half distance matrices."""

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.connect import ConnectedLane, _halves
from lanetopo.geometry import L1_CHUNK, PAIR_CHUNK, resample_stack
from lanetopo.scene import JUNCTION_TOL
from conftest import chain_scene, point_stack, straight_lane
from oracles import (
    avg_l1_loops,
    build_connected_gt_loops,
    correlation_distances_loops,
    half_distances_loops,
    junction_point,
    merge_at_junction,
    random_polyline,
    resample_loops,
    split_halves_loops,
)


def tiny_chain(n_points=3):
    return chain_scene(n_points=n_points, with_traffic=False)


def merged_chain(n_points):
    """The one merged curve of tiny_chain(n_points), after checking that
    build_connected_gt builds the oracle's connected lane from it."""
    scene = tiny_chain(n_points=n_points)
    assert_same_connected(lt.build_connected_gt(scene), build_connected_gt_loops(scene))
    return merge_at_junction(scene.lanes[0], scene.lanes[1])


class TestMergeAtJunction:
    def test_junction_counted_once(self):
        merged = merged_chain(11)
        assert merged.shape == (21, 3)
        assert np.array_equal(merged[10], [10.0, 0.0, 0.0])

    def test_colinear_values(self):
        merged = merged_chain(3)
        assert np.array_equal(merged[:, 0], [0.0, 5.0, 10.0, 15.0, 20.0])


class TestBuildConnectedGt:
    def test_colinear_chain(self):
        scene = tiny_chain(n_points=3)
        conn = lt.build_connected_gt(scene)
        assert len(conn) == 1
        assert conn[0].source == (0, 1)
        expected = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
        assert np.array_equal(conn[0].curve.points, expected)

    def test_right_angle_pair(self):
        a = lt.Polyline3D(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        b = lt.Polyline3D(np.array([[10.0, 0.0, 0.0], [10.0, 5.0, 0.0], [10.0, 10.0, 0.0]]))
        scene = lt.Scene(lanes=[a, b], traffic=[],
                         topo=lt.TopologyGraph(ll=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                               lt=np.zeros((2, 0))), n_points=3)
        conn = lt.build_connected_gt(scene)
        expected = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0]])
        assert np.allclose(conn[0].curve.points, expected, atol=1e-12)

    def test_empty_topology_gives_empty_list(self):
        scene = tiny_chain()
        bare = lt.Scene(lanes=scene.lanes, traffic=[],
                        topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))),
                        n_points=scene.n_points)
        assert lt.build_connected_gt(bare) == []

    def test_marked_pair_without_junction_raises(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(15.0, 25.0, 0.0)
        scene = lt.Scene(lanes=[a, b], traffic=[],
                         topo=lt.TopologyGraph(ll=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                               lt=np.zeros((2, 0))))
        with pytest.raises(ValueError, match=r"\(0, 1\).*apart"):
            lt.build_connected_gt(scene)

    def test_count_matches_edge_count(self):
        for seed in range(5):
            scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                     split_prob=0.5, merge_prob=0.5,
                                                     seed=seed))
            conn = lt.build_connected_gt(scene)
            assert len(conn) == int(scene.topo.ll.sum())

    def test_row_major_source_order(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 split_prob=0.6, seed=1))
        sources = [c.source for c in lt.build_connected_gt(scene)]
        assert sources == sorted(sources)

    def test_endpoints_come_from_source_lanes(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 split_prob=0.5, seed=2))
        for c in lt.build_connected_gt(scene):
            i, j = c.source
            assert np.array_equal(c.curve.initial, scene.lanes[i].initial)
            assert np.array_equal(c.curve.terminal, scene.lanes[j].terminal)

    def test_curves_resampled_to_scene_count(self):
        scene = lt.generate_scene(lt.SynthParams(seed=3))
        for c in lt.build_connected_gt(scene):
            assert c.curve.n_points == scene.n_points


def assert_same_connected(got, ref):
    assert [c.source for c in got] == [c.source for c in ref]
    assert all(np.array_equal(a.curve.points, b.curve.points) for a, b in zip(got, ref))
    assert all(type(c.source[0]) is int and type(c.source[1]) is int for c in got)


def lane_through(*pts):
    return lt.Polyline3D(np.array(pts, dtype=np.float64))


def edge_scene(lanes, edges, n_points=3):
    ll = np.zeros((len(lanes), len(lanes)))
    for i, j in edges:
        ll[i, j] = 1.0
    return lt.Scene(lanes=lanes, traffic=[],
                    topo=lt.TopologyGraph(ll=ll, lt=np.zeros((len(lanes), 0))),
                    n_points=n_points)


class TestBuildConnectedGtOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_scenes(self, seed):
        for scene in (lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4,
                                                       split_prob=0.5, merge_prob=0.5,
                                                       n_points=5 + 3 * seed, seed=seed)),
                      lt.generate_roundabout(n_arms=3 + seed, n_points=4 + seed, seed=seed)):
            assert_same_connected(lt.build_connected_gt(scene), build_connected_gt_loops(scene))

    def test_junction_gap_at_the_tolerance_and_one_ulp_above(self):
        # the gap is the x offset alone: sqrt(x * x) is x exactly
        a = lane_through([-10.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        for x, joined in ((JUNCTION_TOL, True), (np.nextafter(JUNCTION_TOL, 1.0), False)):
            b = lane_through([x, 0.0, 0.0], [5.0, 1.0, 0.0], [10.0, 2.0, 0.0])
            scene = edge_scene([a, b], [(0, 1)])
            assert float(np.linalg.norm(b.initial - a.terminal)) == x
            assert (junction_point(a, b) is not None) == joined
            if joined:
                assert_same_connected(lt.build_connected_gt(scene),
                                      build_connected_gt_loops(scene))
            else:
                with pytest.raises(ValueError, match=r"\(0, 1\).*0\.0100 m apart"):
                    lt.build_connected_gt(scene)
                with pytest.raises(ValueError, match=r"\(0, 1\).*0\.0100 m apart"):
                    build_connected_gt_loops(scene)
            assert (lt.validate_scene(scene) == []) == joined

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)])
    def test_first_failing_edge_raises_its_own_error(self, order):
        # three broken edges: a merged curve whose chords underflow to zero
        # length, one whose chords overflow so the resampled points repeat,
        # and an open junction; whichever comes first in row-major order
        # raises, with the message a one-edge-at-a-time build gives
        tiny = [lane_through([0.0, 0.0, 0.0], [1e-170, 0.0, 0.0], [2e-170, 0.0, 0.0]),
                lane_through([2e-170, 0.0, 0.0], [3e-170, 0.0, 0.0], [4e-170, 0.0, 0.0])]
        huge = [lane_through([-1.5e308, 9.0, 0.0], [0.0, 9.0, 0.0], [1.5e308, 9.0, 0.0]),
                lane_through([1.5e308, 9.0, 0.0], [1.6e308, 9.0, 0.0], [1.7e308, 9.0, 0.0])]
        open_ = [straight_lane(0.0, 10.0, 50.0, n=3), straight_lane(20.0, 30.0, 50.0, n=3)]
        pairs = [tiny, huge, open_]
        lanes = [lane for k in order for lane in pairs[k]]
        scene = edge_scene(lanes, [(0, 1), (2, 3), (4, 5)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as ref:
                build_connected_gt_loops(scene)
            with pytest.raises(ValueError) as got:
                lt.build_connected_gt(scene)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(("cannot resample a zero-length polyline",
                                          "polyline has consecutive duplicate points",
                                          "lanes (0, 1)")[order[0]])

    @pytest.mark.parametrize("n_points", [1, 0, -1])
    def test_too_few_points_raise_like_the_oracle(self, n_points):
        # 3-point lanes in a scene of n_points < 2 stop at the point-count
        # rule, so the resample step's own check is called on the merge
        scene = chain_scene(n_points=3, with_traffic=False)
        merged = merge_at_junction(*scene.lanes)
        scene = lt.Scene(lanes=scene.lanes, traffic=[], topo=scene.topo, n_points=n_points)
        count_rule = f"^lane 0: point count 3 != scene n_points {n_points}$"
        with pytest.raises(ValueError, match=count_rule):
            lt.build_connected_gt(scene)
        for resample in (lambda: resample_stack(merged[None], n_points),
                         lambda: resample_loops(merged, n_points)):
            with pytest.raises(ValueError, match=f">= 2 points, got {n_points}"):
                resample()


def split_halves(curve):
    """Front and back halves of one curve, as half_distances splits them."""
    h1, h2 = _halves(curve[None], curve.shape[0])
    return h1[0], h2[0]


class TestSplitHalves:
    def test_shared_midpoint(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = split_halves(conn.curve.points)
        mid = conn.curve.points[5]
        assert np.array_equal(h1[-1], mid)
        assert np.array_equal(h2[0], mid)

    def test_halves_recover_source_lanes_on_a_chain(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = split_halves(conn.curve.points)
        assert np.allclose(h1, scene.lanes[0].points, atol=1e-12)
        assert np.allclose(h2, scene.lanes[1].points, atol=1e-12)

    def test_half_point_counts(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = split_halves(conn.curve.points)
        assert h1.shape == h2.shape == (11, 3)

    def test_array_variant_matches(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        # each half is the curve up to / from index floor(N_P / 2), resampled
        h1, h2 = split_halves(conn.curve.points)
        assert np.array_equal(h1, resample_stack(conn.curve.points[None, :6], 11)[0])
        assert np.array_equal(h2, resample_stack(conn.curve.points[None, 5:], 11)[0])
        for got, ref in zip((h1, h2), split_halves_loops(conn.curve.points)):
            assert np.array_equal(got, ref)


def correlation(lanes, connected):
    """The mask input D: each lane's distance to the nearer half."""
    return np.minimum(*lt.half_distances(point_stack(lanes), point_stack(connected)))


class TestCorrelationDistances:
    def test_shape_and_empty(self):
        scene = tiny_chain(n_points=11)
        d = correlation(scene.lanes, [])
        assert d.shape == (2, 0)

    def test_source_lane_distance_is_zero_on_a_chain(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)
        d = correlation(scene.lanes, conn)
        assert d.shape == (2, 1)
        # resampling rebuilds interior points only to float round-off
        assert d[0, 0] <= 1e-12
        assert d[1, 0] <= 1e-12

    def test_matches_min_over_halves(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 split_prob=0.5, seed=4))
        conn = lt.build_connected_gt(scene)
        d = correlation(scene.lanes, conn)
        for c, cl in enumerate(conn):
            h1, h2 = split_halves_loops(cl.curve.points)
            for i, lane in enumerate(scene.lanes):
                expected = min(avg_l1_loops(lane.points, h1),
                               avg_l1_loops(lane.points, h2))
                assert d[i, c] == pytest.approx(expected, abs=1e-12)

    def test_source_lanes_beat_unrelated_lanes(self):
        # with >= 3 m corridor spacing the true sources are clear argmins
        for seed in range(5):
            scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=3,
                                                     split_prob=0.4, merge_prob=0.4,
                                                     seed=seed))
            conn = lt.build_connected_gt(scene)
            if not conn:
                continue
            d = correlation(scene.lanes, conn)
            for c, cl in enumerate(conn):
                i, j = cl.source
                best_pair = max(d[i, c], d[j, c])
                others = [d[k, c] for k in range(len(scene.lanes)) if k not in (i, j)]
                assert all(best_pair < o for o in others)


def random_connected(rng, m, n_pts):
    return [ConnectedLane(source=(-1, -1), curve=lt.Polyline3D(random_polyline(rng, n_pts)))
            for _ in range(m)]


def random_lanes(rng, n, n_pts):
    return [lt.Polyline3D(random_polyline(rng, n_pts)) for _ in range(n)]


class TestHalfDistances:
    @pytest.mark.parametrize("n_pts", [3, 8, 11, 20])
    @pytest.mark.parametrize("n, m", [(23, 17), (3, PAIR_CHUNK + 1), (40, 7),
                                      (L1_CHUNK // 17 + 3, 17), (3, L1_CHUNK + 1),
                                      (2 * (L1_CHUNK // 7) + 5, 7)])
    def test_bitwise_equal_to_loop_oracles(self, n_pts, n, m):
        # n != m and more than PAIR_CHUNK pairs everywhere; the last three
        # shapes have more than L1_CHUNK pairs, so the kernel's row chunks
        # end short, hold one lane each, or fill twice before a remainder
        assert n * m > PAIR_CHUNK
        rng = np.random.default_rng(n_pts * 100 + n)
        lanes, conn = random_lanes(rng, n, n_pts), random_connected(rng, m, n_pts)
        d_front, d_back = lt.half_distances(point_stack(lanes), point_stack(conn))
        ref_front, ref_back = half_distances_loops(lanes, conn)
        assert d_front.shape == d_back.shape == (n, m)
        assert np.array_equal(d_front, ref_front)
        assert np.array_equal(d_back, ref_back)
        assert np.array_equal(np.minimum(d_front, d_back),
                              correlation_distances_loops(lanes, conn))

    def test_generated_scene_matches_loop_oracles(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=4, n_segments=6, split_prob=0.5,
                                                 merge_prob=0.5, seed=8))
        conn = lt.build_connected_gt(scene)
        got = lt.half_distances(scene.lane_stack(), lt.connected_curves(scene))
        ref = half_distances_loops(scene.lanes, conn)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_curves_need_not_be_polylines(self):
        # a regressed curve may repeat a point, which Polyline3D rejects;
        # the stacks are read as they are
        rng = np.random.default_rng(4)
        L = np.stack([random_polyline(rng, 11) for _ in range(5)])
        C = np.stack([random_polyline(rng, 11) for _ in range(3)])
        C[1, 3], C[2, 8] = C[1, 2], C[2, 7]  # in the front half, in the back half
        for row in C[1:]:
            with pytest.raises(ValueError, match="duplicate"):
                lt.Polyline3D(row)
        got = lt.half_distances(L, C)
        ref = half_distances_loops(
            [lt.Polyline3D.unchecked(row) for row in L],
            [ConnectedLane(source=(-1, -1), curve=lt.Polyline3D.unchecked(row)) for row in C])
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_two_point_curves_cannot_be_split(self):
        # the back half of a 2-point curve is its last point alone
        rng = np.random.default_rng(0)
        lanes, conn = random_lanes(rng, 3, 2), random_connected(rng, 2, 2)
        with pytest.raises(ValueError, match="zero-length"):
            lt.half_distances(point_stack(lanes), point_stack(conn))
        with pytest.raises(ValueError, match="zero-length"):
            half_distances_loops(lanes, conn)

    def test_empty_sides_give_the_old_shapes(self):
        rng = np.random.default_rng(1)
        lanes, conn = random_lanes(rng, 4, 11), random_connected(rng, 3, 11)
        L, C, none = point_stack(lanes), point_stack(conn), point_stack([])
        for got, ref in ((lt.half_distances(none, C), half_distances_loops([], conn)),
                         (lt.half_distances(L, none), half_distances_loops(lanes, []))):
            assert [d.shape for d in got] == [d.shape for d in ref]
        assert lt.half_distances(none, C)[0].shape == (0, 3)
        assert lt.half_distances(L, none)[1].shape == (4, 0)

    def test_mismatched_point_counts_raise(self):
        rng = np.random.default_rng(2)
        conn = random_connected(rng, 3, 7)
        with pytest.raises(ValueError, match="point counts differ"):
            lt.half_distances(point_stack(random_lanes(rng, 4, 11)), point_stack(conn))
        with pytest.raises(ValueError, match="point counts differ"):
            half_distances_loops(random_lanes(rng, 4, 11), conn)
