"""Data model construction rules, junction resolution, and validators."""

from dataclasses import replace

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.scene import junction_gaps
from conftest import chain_scene, perfect_prediction, straight_lane
from oracles import build_connected_gt_loops, merge_at_junction


class TestPolyline:
    def test_accepts_well_formed_points(self):
        poly = lt.Polyline3D(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert poly.n_points == 2
        assert poly.points.dtype == np.float64

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            lt.Polyline3D(np.array([[0.0, 0.0, 0.0]]))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="shape"):
            lt.Polyline3D(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        pts = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            lt.Polyline3D(pts)

    def test_rejects_consecutive_duplicates(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            lt.Polyline3D(pts)

    def test_nonconsecutive_repeat_is_fine(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert lt.Polyline3D(pts).n_points == 3

    def test_endpoint_accessors(self):
        poly = straight_lane(0.0, 10.0, 2.0, n=5)
        assert np.array_equal(poly.initial, [0.0, 2.0, 0.0])
        assert np.array_equal(poly.terminal, [10.0, 2.0, 0.0])


class TestTrafficElement:
    def test_gt_element_has_no_score(self):
        el = lt.TrafficElement(bbox=(0.0, 0.0, 10.0, 10.0), category="stop_sign")
        assert el.score is None

    def test_degenerate_box_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            lt.TrafficElement(bbox=(5.0, 0.0, 5.0, 10.0), category="stop_sign")
        with pytest.raises(ValueError, match="degenerate"):
            lt.TrafficElement(bbox=(0.0, 10.0, 10.0, 0.0), category="stop_sign")

    def test_score_out_of_range_raises(self):
        with pytest.raises(ValueError, match="outside"):
            lt.TrafficElement(bbox=(0.0, 0.0, 1.0, 1.0), category="x", score=1.5)


class TestTopologyGraph:
    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2D"):
            lt.TopologyGraph(ll=np.zeros(4), lt=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="2D"):
            lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros(2))


class TestJunctionPoint:
    """Open junctions, as junction_gaps reports them: (edge, gap) pairs."""

    def test_exact_coincidence(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(10.0, 20.0, 0.0)
        assert junction_gaps([a, b], [0], [1]) == []

    def test_within_tolerance_returns_predecessor_terminal(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(10.004, 20.0, 0.0)
        assert junction_gaps([a, b], [0], [1]) == []
        scene = lt.Scene(lanes=[a, b], traffic=[],
                         topo=lt.TopologyGraph(ll=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                               lt=np.zeros((2, 0))))
        (got,), (ref,) = lt.build_connected_gt(scene), build_connected_gt_loops(scene)
        assert got.source == ref.source == (0, 1)
        assert np.array_equal(got.curve.points, ref.curve.points)
        # the merged curve's junction is a's terminal, not b's initial
        merged = merge_at_junction(a, b)
        assert np.array_equal(merged[10], [10.0, 0.0, 0.0])
        assert merged.shape == (21, 3)

    def test_beyond_tolerance_returns_none(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = lt.Polyline3D(np.array([[12.0, 0.0, 0.0], [20.0, 0.0, 0.0]]))
        assert junction_gaps([a, b], [0], [1]) == [(0, 2.0)]

    def test_direction_matters(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(10.0, 20.0, 0.0)
        assert junction_gaps([a, b], [0, 1], [1, 0]) == [(1, 20.0)]


class TestLaneStack:
    def test_one_point_count_stacks(self):
        scene = chain_scene()
        L = scene.lane_stack()
        assert L.shape == (2, 11, 3)
        assert all(np.array_equal(row, lane.points) for row, lane in zip(L, scene.lanes))

    def test_no_lanes_give_an_empty_stack(self):
        scene = lt.Scene(lanes=[], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))),
                         n_points=7)
        assert scene.lane_stack().shape == (0, 7, 3)

    def test_counts_are_compared_with_n_points(self):
        # not with lane 0: 3-point lanes in an 11-point scene do not stack
        scene = chain_scene(n_points=3)
        scene = lt.Scene(lanes=scene.lanes, traffic=[], topo=scene.topo, n_points=11)
        with pytest.raises(ValueError, match=r"^lane 0: point count 3 != scene n_points 11$"):
            scene.lane_stack()
        assert lt.validate_scene(scene)[0] == "lane 0: point count 3 != scene n_points 11"

    def test_lanes_off_the_scene_count_raise_in_every_scene_step(self):
        # every lane has 5 points, the scene says 11: no step may build
        # 11-point curves from them or fail inside numpy
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=2, seed=1,
                                                 n_points=5))
        scene = replace(scene, n_points=11)
        msg = r"^lane 0: point count 5 != scene n_points 11$"
        for step in (lt.build_connected_gt, lt.connected_curves, lt.run_pipeline,
                     lambda s: lt.toy_fit(s, steps=1),
                     lambda s: lt.perturb(s, lt.NoiseParams(spurious_rate=1.0), 0)):
            with pytest.raises(ValueError, match=msg):
                step(scene)

    def test_ragged_scene_raises_in_every_scene_step(self):
        # chain_scene with its second lane cut to 5 of its 11 points; the
        # junction still closes, so the named lane is the only fault
        scene = chain_scene()
        b = lt.Polyline3D(scene.lanes[1].points[[0, 2, 4, 6, 10]])
        scene = lt.Scene(lanes=[scene.lanes[0], b], traffic=scene.traffic, topo=scene.topo)
        assert np.array_equal(scene.lanes[1].initial, scene.lanes[0].terminal)
        msg = r"^lane 1: point count 5 != scene n_points 11$"
        for step in (lt.Scene.lane_stack, lt.build_connected_gt,
                     lambda s: lt.perturb(s, lt.NoiseParams(), 0),
                     lambda s: lt.perturb(s, lt.NoiseParams(drop_rate=1.0), 0),
                     lambda s: lt.run_pipeline(s, lt.PipelineConfig(source="perturbed")),
                     lt.run_pipeline,
                     lambda s: lt.toy_fit(s, steps=1)):
            with pytest.raises(ValueError, match=msg):
                step(scene)


class TestValidateScene:
    def test_chain_scene_is_clean(self):
        assert lt.validate_scene(chain_scene()) == []

    def test_self_connection_reported(self):
        scene = chain_scene()
        scene.topo.ll[0, 0] = 1.0
        msgs = lt.validate_scene(scene)
        assert any("self-connection at lane 0" in m for m in msgs)

    def test_point_count_mismatch_reported(self):
        scene = chain_scene()
        bad = lt.Scene(lanes=[scene.lanes[0], straight_lane(10.0, 20.0, 0.0, n=7)],
                       traffic=scene.traffic, topo=scene.topo, n_points=11)
        msgs = lt.validate_scene(bad)
        assert any("lane 1" in m and "point count 7" in m for m in msgs)

    def test_non_binary_entry_reported(self):
        scene = chain_scene()
        scene.topo.ll[0, 1] = 0.5
        msgs = lt.validate_scene(scene)
        assert any("not binary" in m for m in msgs)

    def test_connection_without_junction_reported(self):
        a = straight_lane(0.0, 10.0, 0.0)
        b = straight_lane(15.0, 25.0, 0.0)  # 5 m gap
        scene = lt.Scene(lanes=[a, b], traffic=[],
                         topo=lt.TopologyGraph(ll=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                               lt=np.zeros((2, 0))))
        msgs = lt.validate_scene(scene)
        assert any("ll[0][1]=1" in m and "apart" in m for m in msgs)

    def test_shape_mismatch_reported(self):
        scene = chain_scene()
        bad = lt.Scene(lanes=scene.lanes, traffic=scene.traffic,
                       topo=lt.TopologyGraph(ll=np.zeros((3, 3)), lt=np.zeros((2, 1))))
        msgs = lt.validate_scene(bad)
        assert any("topology ll: shape" in m for m in msgs)

    def test_every_message_in_order(self):
        # four lanes end to end along +x, 10 m each; edges from 0 to 1 and
        # from 1 to 2 join, the others do not, one by just over the tolerance
        lanes = [straight_lane(10.0 * k, 10.0 * k + 10.0, 0.0) for k in range(3)]
        lanes.append(straight_lane(10.0 + 1.00001 * lt.JUNCTION_TOL, 25.0, 0.0))
        ll = np.zeros((4, 4))
        ll[0, 1] = ll[1, 2] = ll[1, 3] = ll[2, 0] = ll[3, 3] = ll[1, 1] = 1.0
        ll[0, 3] = 0.5
        scene = lt.Scene(lanes=lanes, traffic=[],
                         topo=lt.TopologyGraph(ll=ll, lt=np.zeros((4, 0))))
        assert lt.validate_scene(scene) == [
            "topology ll[0][3] = np.float64(0.5) is not binary",
            "topology ll: self-connection at lane 1",
            "topology ll: self-connection at lane 3",
            "topology ll[0][3]=1 but endpoints are 0.0100 m apart (tolerance 0.01)",
            "topology ll[1][3]=1 but endpoints are 9.9900 m apart (tolerance 0.01)",
            "topology ll[2][0]=1 but endpoints are 30.0000 m apart (tolerance 0.01)",
        ]

    def test_multiple_violations_all_reported(self):
        scene = chain_scene()
        scene.topo.ll[0, 0] = 1.0
        scene.topo.lt[0, 0] = 0.3
        msgs = lt.validate_scene(scene)
        assert len(msgs) >= 2


class TestValidatePrediction:
    def test_perfect_prediction_is_clean(self):
        scene = chain_scene()
        assert lt.validate_prediction(perfect_prediction(scene), scene.n_points) == []

    def test_missing_traffic_score_reported(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        bad = lt.Prediction(lanes=pred.lanes, lane_scores=pred.lane_scores,
                            traffic=list(scene.traffic), topo=pred.topo)
        msgs = lt.validate_prediction(bad)
        assert any("missing a score" in m for m in msgs)

    def test_score_length_mismatch_reported(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        bad = lt.Prediction(lanes=pred.lanes, lane_scores=np.ones(3),
                            traffic=pred.traffic, topo=pred.topo)
        msgs = lt.validate_prediction(bad)
        assert any("lane_scores" in m for m in msgs)

    def test_score_out_of_range_reported(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        bad = lt.Prediction(lanes=pred.lanes, lane_scores=np.array([1.5, 0.5]),
                            traffic=pred.traffic, topo=pred.topo)
        msgs = lt.validate_prediction(bad)
        assert any("outside [0, 1]" in m for m in msgs)

    def test_diagonal_score_reported(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        pred.topo.ll[1, 1] = 0.2
        msgs = lt.validate_prediction(pred)
        assert any("self-connection score at lane 1" in m for m in msgs)

    def test_every_score_and_diagonal_message_in_order(self):
        lanes = [straight_lane(0.0, 10.0, float(k)) for k in range(5)]
        ll = np.zeros((5, 5))
        ll[0, 0] = ll[3, 3] = 0.25
        pred = lt.Prediction(lanes=lanes,
                             lane_scores=np.array([1.5, np.nan, 0.0, -0.25, np.inf]),
                             traffic=[], topo=lt.TopologyGraph(ll=ll, lt=np.zeros((5, 0))))
        assert lt.validate_prediction(pred) == [
            "lane 0: score np.float64(1.5) outside [0, 1]",
            "lane 1: score np.float64(nan) outside [0, 1]",
            "lane 3: score np.float64(-0.25) outside [0, 1]",
            "lane 4: score np.float64(inf) outside [0, 1]",
            "topology ll: self-connection score at lane 0",
            "topology ll: self-connection score at lane 3",
        ]

    def test_topology_out_of_range_reported(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        pred.topo.ll[0, 1] = 1.2
        msgs = lt.validate_prediction(pred)
        assert any("scores outside [0, 1]" in m for m in msgs)

    def test_n_points_check_is_optional(self):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        assert lt.validate_prediction(pred) == []
        assert any("point count" in m for m in lt.validate_prediction(pred, 7))
