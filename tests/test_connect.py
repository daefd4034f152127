"""Connected-lane construction and the correlation distance matrix."""

import numpy as np
import pytest

import lanetopo as lt
from conftest import chain_scene, straight_lane
from oracles import avg_l1_loops


def tiny_chain(n_points=3):
    return chain_scene(n_points=n_points, with_traffic=False)


class TestMergeAtJunction:
    def test_junction_counted_once(self):
        scene = tiny_chain(n_points=11)
        merged = lt.merge_at_junction(scene.lanes[0], scene.lanes[1])
        assert merged.shape == (21, 3)
        assert np.array_equal(merged[10], [10.0, 0.0, 0.0])

    def test_colinear_values(self):
        scene = tiny_chain(n_points=3)
        merged = lt.merge_at_junction(scene.lanes[0], scene.lanes[1])
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


class TestSplitHalves:
    def test_shared_midpoint(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = lt.split_halves_array(conn.curve.points)
        mid = conn.curve.points[5]
        assert np.array_equal(h1[-1], mid)
        assert np.array_equal(h2[0], mid)

    def test_halves_recover_source_lanes_on_a_chain(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = lt.split_halves_array(conn.curve.points)
        assert np.allclose(h1, scene.lanes[0].points, atol=1e-12)
        assert np.allclose(h2, scene.lanes[1].points, atol=1e-12)

    def test_half_point_counts(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        h1, h2 = lt.split_halves_array(conn.curve.points)
        assert h1.shape == h2.shape == (11, 3)

    def test_array_variant_matches(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)[0]
        # each half is the curve up to / from index floor(N_P / 2), resampled
        h1, h2 = lt.split_halves_array(conn.curve.points)
        assert np.array_equal(h1, lt.resample_array(conn.curve.points[:6], 11))
        assert np.array_equal(h2, lt.resample_array(conn.curve.points[5:], 11))


class TestCorrelationDistances:
    def test_shape_and_empty(self):
        scene = tiny_chain(n_points=11)
        d = lt.correlation_distances(scene.lanes, [])
        assert d.shape == (2, 0)

    def test_source_lane_distance_is_zero_on_a_chain(self):
        scene = tiny_chain(n_points=11)
        conn = lt.build_connected_gt(scene)
        d = lt.correlation_distances(scene.lanes, conn)
        assert d.shape == (2, 1)
        # resampling rebuilds interior points only to float round-off
        assert d[0, 0] <= 1e-12
        assert d[1, 0] <= 1e-12

    def test_matches_min_over_halves(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 split_prob=0.5, seed=4))
        conn = lt.build_connected_gt(scene)
        d = lt.correlation_distances(scene.lanes, conn)
        for c, cl in enumerate(conn):
            h1, h2 = lt.split_halves_array(cl.curve.points)
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
            d = lt.correlation_distances(scene.lanes, conn)
            for c, cl in enumerate(conn):
                i, j = cl.source
                best_pair = max(d[i, c], d[j, c])
                others = [d[k, c] for k in range(len(scene.lanes)) if k not in (i, j)]
                assert all(best_pair < o for o in others)
