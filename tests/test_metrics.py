"""Detection, topology, and combined scores, plus lane-segment variants."""

from dataclasses import replace

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import geometry, metrics
from lanetopo.geometry import frechet_matrix, lane_boundaries, resample_stack, segment_matrix
from conftest import chain_scene, perfect_prediction, straight_lane
from oracles import average_precision_loops, greedy_match_loops, topology_score_loops


def three_lane_chain():
    lanes = [straight_lane(0.0, 10.0, 0.0), straight_lane(10.0, 20.0, 0.0),
             straight_lane(20.0, 30.0, 0.0)]
    ll = np.zeros((3, 3))
    ll[0, 1] = 1.0
    ll[1, 2] = 1.0
    return lt.Scene(lanes=lanes, traffic=[],
                    topo=lt.TopologyGraph(ll=ll, lt=np.zeros((3, 0))))


def scored_prediction(scene, ll=None, lanes=None, scores=None):
    lanes = list(scene.lanes) if lanes is None else lanes
    n = len(lanes)
    topo_ll = scene.topo.ll.copy() if ll is None else np.asarray(ll, dtype=np.float64)
    return lt.Prediction(
        lanes=lanes,
        lane_scores=np.ones(n) if scores is None else np.asarray(scores, float),
        traffic=[replace(el, score=1.0) for el in scene.traffic],
        topo=lt.TopologyGraph(ll=topo_ll, lt=np.zeros((n, len(scene.traffic)))),
    )


def empty_prediction(scene):
    return lt.Prediction(lanes=[], lane_scores=np.zeros(0), traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))))


class TestAveragePrecision:
    def test_all_true_positives(self):
        assert lt.average_precision([True, True, True], 3) == 1.0

    def test_vacuous_cases(self):
        assert lt.average_precision([], 0) == 1.0
        assert lt.average_precision([False], 0) == 0.0
        assert lt.average_precision([], 2) == 0.0

    def test_late_hit_halves_precision(self):
        assert lt.average_precision([False, True], 1) == 0.5

    def test_early_hit_is_unpunished(self):
        assert lt.average_precision([True, False], 1) == 1.0

    def test_right_side_interpolation(self):
        # precisions 1, 1/2, 2/3; interpolation lifts rank 2 to 2/3
        ap = lt.average_precision([True, False, True], 2)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_bitwise_equal_to_the_loop_oracle(self):
        # lists long and dense enough that the true positives leave numpy's
        # sequential summation, n_gt below and above the flag count
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(0, 80))
            flags = list(rng.random(k) < rng.random())
            n_gt = int(rng.integers(0, k + 3))
            got = lt.average_precision(flags, n_gt)
            assert got == average_precision_loops(flags, n_gt) and type(got) is float


class TestRankByScore:
    def test_descending_with_stable_ties(self):
        order = lt.rank_by_score(np.array([0.5, 0.9, 0.5, 0.1]))
        assert list(order) == [1, 0, 2, 3]


class TestGreedyMatch:
    @pytest.mark.parametrize("better_below", [True, False])
    def test_equals_loop_oracle_with_ties_and_inf(self, better_below):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n_pred, n_gt = (int(v) for v in rng.integers(0, 9, size=2))
            # coarse values and scores give ties in both
            dist = rng.integers(0, 6, size=(n_pred, n_gt)) / 2.0
            dist[rng.random(dist.shape) < 0.2] = np.inf
            dist[rng.random(dist.shape) < 0.05] = -np.inf
            scores = rng.integers(0, 4, size=n_pred) / 3.0
            thr = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
            flags, pred_to_gt, order = lt.greedy_match(dist, scores, thr, better_below)
            ref_flags, ref_pred_to_gt, ref_order = greedy_match_loops(
                dist, scores, thr, better_below)
            assert list(flags) == ref_flags
            assert np.array_equal(pred_to_gt, ref_pred_to_gt)
            assert np.array_equal(order, ref_order)


class TestGreedyMatchWalk:
    """The sorted-candidate walk against the double-loop oracle on the
    inputs where a sort and a loop could part: NaN, infinities, signed
    zeros, sparse candidates and thresholds equal to entries."""

    def assert_oracle(self, dist, scores, thr, better_below):
        flags, pred_to_gt, order = lt.greedy_match(dist, scores, thr, better_below)
        ref_flags, ref_pred_to_gt, ref_order = greedy_match_loops(dist, scores, thr, better_below)
        assert flags.dtype == bool and list(flags) == ref_flags
        assert np.array_equal(pred_to_gt, ref_pred_to_gt)
        assert np.array_equal(order, ref_order)

    @pytest.mark.parametrize("better_below", [True, False])
    def test_nan_entries_never_match(self, better_below):
        rng = np.random.default_rng(60)
        for _ in range(300):
            dist = rng.integers(0, 5, size=tuple(rng.integers(0, 10, size=2))) / 2.0
            dist[rng.random(dist.shape) < 0.3] = np.nan
            scores = rng.integers(0, 3, size=dist.shape[0]) / 2.0
            self.assert_oracle(dist, scores, 1.5, better_below)
        dist = np.full((3, 4), np.nan)
        flags, pred_to_gt, _ = lt.greedy_match(dist, np.ones(3), 1.0, better_below)
        assert not flags.any() and (pred_to_gt == -1).all()

    @pytest.mark.parametrize("better_below", [True, False])
    def test_infinities(self, better_below):
        rng = np.random.default_rng(61)
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 9, size=2))
            dist = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=shape)
            scores = rng.choice([-np.inf, 0.0, 0.5, np.inf], size=shape[0])
            thr = float(rng.choice([-np.inf, 0.0, 1.0, np.inf]))
            self.assert_oracle(dist, scores, thr, better_below)

    @pytest.mark.parametrize("better_below", [True, False])
    def test_signed_zero_ties_take_the_lowest_column(self, better_below):
        rng = np.random.default_rng(62)
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 9, size=2))
            dist = rng.choice([-0.0, 0.0], size=shape)
            scores = rng.choice([-0.0, 0.0, 1.0], size=shape[0])
            self.assert_oracle(dist, scores, float(rng.choice([-0.0, 0.0, 0.5])), better_below)
        # -0.0 and 0.0 tie: the lower column wins whichever zero it holds
        flags, pred_to_gt, _ = lt.greedy_match(np.array([[0.0, -0.0]]), np.ones(1), 0.5)
        assert list(pred_to_gt) == [0] and flags[0]

    @pytest.mark.parametrize("better_below", [True, False])
    def test_sparse_40_by_40(self, better_below):
        rng = np.random.default_rng(63)
        for density in (0.0, 0.01, 0.05, 0.2):
            for _ in range(25):
                dist = np.where(rng.random((40, 40)) < density,
                                rng.integers(0, 8, size=(40, 40)) / 4.0,
                                np.inf if better_below else -np.inf)
                scores = rng.integers(0, 5, size=40) / 4.0
                self.assert_oracle(dist, scores, 1.0, better_below)

    @pytest.mark.parametrize("better_below", [True, False])
    def test_thresholds_equal_to_entries(self, better_below):
        rng = np.random.default_rng(64)
        for _ in range(200):
            shape = tuple(int(v) for v in rng.integers(1, 12, size=2))
            dist = rng.normal(size=shape)
            scores = rng.random(shape[0])
            self.assert_oracle(dist, scores, float(rng.choice(dist.ravel())), better_below)

    def test_dist_rows_must_match_scores(self):
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2,\)"):
            lt.greedy_match(np.zeros((3, 2)), np.ones(2), 1.0)

    def test_one_dimensional_dist_raises(self):
        with pytest.raises(ValueError, match=r"dist shape \(3,\).*scores shape \(3,\)"):
            lt.greedy_match(np.zeros(3), np.ones(3), 1.0)


def test_det_l_rejects_a_prediction_evaluate_rejects():
    scene = three_lane_chain()
    pred = scored_prediction(scene, scores=[1.0])
    message = "lane_scores: length 1 != lane count 3"
    with pytest.raises(ValueError, match=message):
        lt.evaluate(pred, scene)
    with pytest.raises(ValueError, match=message):
        lt.det_l(pred, scene)


class TestDetL:
    def test_perfect_is_exactly_one(self):
        scene = chain_scene()
        assert lt.det_l(perfect_prediction(scene), scene) == 1.0

    def test_no_predictions_is_zero(self):
        scene = chain_scene()
        assert lt.det_l(empty_prediction(scene), scene) == 0.0

    def test_high_scoring_false_positive_halves_ap(self):
        gt = lt.Scene(lanes=[straight_lane(0.0, 10.0, 0.0)], traffic=[],
                      topo=lt.TopologyGraph(ll=np.zeros((1, 1)), lt=np.zeros((1, 0))))
        pred = lt.Prediction(
            lanes=[straight_lane(0.0, 10.0, 30.0), straight_lane(0.0, 10.0, 0.0)],
            lane_scores=np.array([0.9, 0.6]),
            traffic=[], topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))))
        assert lt.det_l(pred, gt) == pytest.approx(0.5, abs=1e-12)

    def test_threshold_is_strict(self):
        gt = lt.Scene(lanes=[straight_lane(0.0, 10.0, 0.0)], traffic=[],
                      topo=lt.TopologyGraph(ll=np.zeros((1, 1)), lt=np.zeros((1, 0))))
        pred = lt.Prediction(lanes=[straight_lane(0.0, 10.0, 1.0)],
                             lane_scores=np.ones(1),
                             traffic=[],
                             topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                                   lt=np.zeros((1, 0))))
        # offset exactly 1.0: misses the 1 m threshold, clears 2 m and 3 m
        assert lt.det_l(pred, gt) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_scene_conventions(self):
        empty = lt.Scene(lanes=[], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))))
        assert lt.det_l(empty_prediction(empty), empty) == 1.0
        pred = lt.Prediction(lanes=[straight_lane(0.0, 10.0, 0.0)],
                             lane_scores=np.ones(1), traffic=[],
                             topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                                   lt=np.zeros((1, 0))))
        assert lt.det_l(pred, empty) == 0.0


class TestDetT:
    def box(self, x0, y0, x1, y1, cat, score=None):
        return lt.TrafficElement(bbox=(x0, y0, x1, y1), category=cat, score=score)

    def scene_with(self, traffic):
        lane = straight_lane(0.0, 10.0, 0.0)
        return lt.Scene(lanes=[lane], traffic=traffic,
                        topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                              lt=np.zeros((1, len(traffic)))))

    def test_exact_boxes_score_one(self):
        scene = self.scene_with([self.box(0, 0, 10, 10, "light")])
        pred = perfect_prediction(scene)
        assert lt.evaluate(pred, scene).det_t == 1.0

    def test_wrong_category_scores_zero(self):
        scene = self.scene_with([self.box(0, 0, 10, 10, "light")])
        pred = lt.Prediction(lanes=list(scene.lanes), lane_scores=np.ones(1),
                             traffic=[self.box(0, 0, 10, 10, "sign", score=1.0)],
                             topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                                   lt=np.zeros((1, 1))))
        assert lt.evaluate(pred, scene).det_t == 0.0

    def test_per_category_average(self):
        scene = self.scene_with([self.box(0, 0, 10, 10, "a"),
                                 self.box(20, 0, 30, 10, "a"),
                                 self.box(40, 0, 50, 10, "b")])
        pred = lt.Prediction(
            lanes=list(scene.lanes), lane_scores=np.ones(1),
            traffic=[self.box(0, 0, 10, 10, "a", score=0.9),
                     self.box(40, 0, 50, 10, "b", score=0.8)],
            topo=lt.TopologyGraph(ll=np.zeros((1, 1)), lt=np.zeros((1, 2))))
        # category a finds 1 of 2, category b is perfect
        assert lt.evaluate(pred, scene).det_t == pytest.approx(0.75, abs=1e-12)

    def test_iou_threshold_is_inclusive(self):
        scene = self.scene_with([self.box(0, 0, 4, 4, "a")])
        pred = lt.Prediction(lanes=list(scene.lanes), lane_scores=np.ones(1),
                             traffic=[self.box(0, 0, 4, 3, "a", score=1.0)],
                             topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                                   lt=np.zeros((1, 1))))
        assert lt.box_iou((0, 0, 4, 3), (0, 0, 4, 4)) == 0.75
        assert lt.evaluate(pred, scene).det_t == 1.0

    def test_vacuous_conventions(self):
        scene = self.scene_with([])
        assert lt.evaluate(perfect_prediction(scene), scene).det_t == 1.0
        pred = lt.Prediction(lanes=list(scene.lanes), lane_scores=np.ones(1),
                             traffic=[self.box(0, 0, 1, 1, "a", score=0.5)],
                             topo=lt.TopologyGraph(ll=np.zeros((1, 1)),
                                                   lt=np.zeros((1, 1))))
        assert lt.evaluate(pred, scene).det_t == 0.0


class TestTopScore:
    def test_perfect_chain_is_one(self):
        scene = three_lane_chain()
        assert lt.evaluate(perfect_prediction(scene), scene).top_ll == 1.0

    def test_zero_scores_are_zero(self):
        scene = three_lane_chain()
        pred = scored_prediction(scene, ll=np.zeros((3, 3)))
        assert lt.evaluate(pred, scene).top_ll == 0.0

    def test_vacuous_graph_conventions(self):
        scene = chain_scene(with_traffic=False)
        bare = lt.Scene(lanes=scene.lanes, traffic=[],
                        topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))))
        assert lt.evaluate(scored_prediction(bare, ll=np.zeros((2, 2))), bare).top_ll == 1.0
        noisy = scored_prediction(bare, ll=np.array([[0.0, 0.3], [0.0, 0.0]]))
        assert lt.evaluate(noisy, bare).top_ll == 0.0

    def test_wrong_edge_outscoring_right_edge(self):
        scene = three_lane_chain()
        ll = np.zeros((3, 3))
        ll[0, 1] = 0.8
        ll[0, 2] = 0.9  # wrong edge ranked first at vertex 0
        ll[1, 2] = 1.0
        pred = scored_prediction(scene, ll=ll)
        # vertex 0 AP: ranked [(0,2) FP, (0,1) TP] -> 0.5; vertex 1 AP: 1.0
        assert lt.evaluate(pred, scene).top_ll == pytest.approx(0.75, abs=1e-12)

    def test_edge_to_unmatched_endpoint_is_a_false_positive(self):
        scene = three_lane_chain()
        lanes = list(scene.lanes) + [straight_lane(0.0, 10.0, 40.0)]
        ll = np.zeros((4, 4))
        ll[0, 3] = 0.95  # spurious endpoint outranks the true successor
        ll[0, 1] = 0.8
        ll[1, 2] = 1.0
        pred = scored_prediction(scene, lanes=lanes, ll=ll)
        assert lt.evaluate(pred, scene).top_ll == pytest.approx(0.75, abs=1e-12)

    def test_unmatched_gt_vertex_contributes_zero(self):
        scene = three_lane_chain()
        # lane 0 is missing from the prediction entirely
        lanes = [scene.lanes[1], scene.lanes[2]]
        ll = np.zeros((2, 2))
        ll[0, 1] = 1.0  # correct (1 -> 2) edge in the reduced index space
        pred = scored_prediction(scene, lanes=lanes, ll=ll)
        assert lt.evaluate(pred, scene).top_ll == pytest.approx(0.5, abs=1e-12)

    def test_lane_traffic_kind(self):
        scene = chain_scene()
        assert lt.evaluate(perfect_prediction(scene), scene).top_lt == 1.0


class TestTopologyScoreOracle:
    """The array vertex APs against one Python list of flags per vertex."""

    @staticmethod
    def mapping(rng, n_from, n_to):
        """Random partial injection: -1 for about a third of the entries."""
        out = np.full(n_from, -1)
        picked = rng.permutation(n_to)[:n_from]
        hit = rng.random(n_from) < 0.67
        out[np.flatnonzero(hit)[:picked.size]] = picked[:hit.sum()]
        return out

    def test_bitwise_on_seeded_random_matrices(self):
        rng = np.random.default_rng(50)
        checked = 0
        for trial in range(300):
            n_gt, n_pred = int(rng.integers(1, 16)), int(rng.integers(0, 16))
            m_gt, m_pred = int(rng.integers(1, 24)), int(rng.integers(0, 24))
            # dense rows give vertices with 8 or more true positives, where
            # the per-row sums leave numpy's sequential summation
            gt = (rng.random((n_gt, m_gt)) < rng.choice([0.1, 0.4, 0.9])).astype(float)
            if trial % 10 == 0:
                gt[:] = 0.0  # a GT with no edges
            # scores on a coarse grid tie often; about a quarter are 0 (no edge)
            scores = np.round(rng.random((n_pred, m_pred)) * 4.0) / 4.0
            if n_pred:
                scores[rng.random(n_pred) < 0.2] = 0.0  # all-zero score rows
            row_to_gt, col_to_gt = self.mapping(rng, n_pred, n_gt), self.mapping(rng, m_pred, m_gt)
            got = metrics._topology_score(gt, scores, row_to_gt, col_to_gt)
            expected = topology_score_loops(gt, scores, row_to_gt, col_to_gt)
            assert got == expected and type(got) is float
            checked += got not in (0.0, 1.0)
        assert checked > 100


class TestOls:
    def test_perfect_and_zero(self):
        assert lt.ols(1.0, 1.0, 1.0, 1.0) == 1.0
        assert lt.ols(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_hand_example(self):
        # topology terms enter under a square root
        assert lt.ols(0.5, 0.7, 0.36, 0.49) == 0.625

    def test_monotone_in_every_argument(self):
        base = lt.ols(0.4, 0.4, 0.4, 0.4)
        for k in range(4):
            args = [0.4] * 4
            args[k] = 0.8
            assert lt.ols(*args) > base


def segment_distance(a, b, width_a=2.0, width_b=2.0):
    """The lane-segment distance of lanes a and b widened to segments."""
    (bounds_a,), (bounds_b,) = lane_boundaries([a], width_a), lane_boundaries([b], width_b)
    return segment_matrix([bounds_a], [bounds_b], frechet_matrix([a], [b], np.inf), np.inf)[0, 0]


class TestLaneSegmentDistance:
    def test_identical_is_zero(self):
        lane = straight_lane(0.0, 10.0, 0.0)
        assert segment_distance(lane, lane) == 0.0

    def test_small_translation_is_exact(self):
        # d <= width/2 keeps each boundary point's nearest neighbour on its
        # own side, so both the chamfer and the Frechet terms equal d
        a = straight_lane(0.0, 10.0, 0.0, n=5)
        b = straight_lane(0.0, 10.0, 0.8, n=5)
        assert segment_distance(a, b) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry(self):
        a = straight_lane(0.0, 10.0, 0.0, n=5)
        b = straight_lane(1.0, 11.0, 0.5, n=5)
        assert segment_distance(a, b, 2.0, 1.5) == segment_distance(b, a, 1.5, 2.0)


class TestLaneSegmentMetrics:
    def test_perfect_report(self):
        scene = three_lane_chain()
        rep = lt.evaluate(perfect_prediction(scene), scene, lane_width=1.75).lane_segments
        assert rep.map == 1.0
        assert rep.ap_lane == 1.0
        assert rep.ap_ped is None
        assert rep.top_lsls == 1.0

    def test_no_predictions_score_zero(self):
        scene = three_lane_chain()
        rep = lt.evaluate(empty_prediction(scene), scene, lane_width=1.75).lane_segments
        assert rep.map == 0.0
        assert rep.ap_lane == 0.0
        assert rep.top_lsls == 0.0


class TestEvaluate:
    def test_perfect_prediction_all_ones(self):
        scene = chain_scene()
        rep = lt.evaluate(perfect_prediction(scene), scene)
        assert (rep.det_l, rep.det_t, rep.top_ll, rep.top_lt, rep.ols) \
            == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert rep.lane_segments is None

    def test_ols_consistent_with_components(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=1))
        pred = lt.perturb(scene, lt.NoiseParams(point_sigma=0.4, score_noise=0.3), seed=1)
        rep = lt.evaluate(pred, scene)
        assert rep.ols == lt.ols(rep.det_l, rep.det_t, rep.top_ll, rep.top_lt)
        for v in (rep.det_l, rep.det_t, rep.top_ll, rep.top_lt, rep.ols):
            assert 0.0 <= v <= 1.0

    def test_lane_segment_block(self):
        scene = three_lane_chain()
        pred = perfect_prediction(scene)
        rep = lt.evaluate(pred, scene, lane_width=1.75)
        assert rep.lane_segments is not None
        assert rep.lane_segments.map == 1.0

    def test_removing_the_only_tp_hurts_det(self):
        scene = chain_scene()
        good = lt.evaluate(perfect_prediction(scene), scene)
        worse = lt.evaluate(empty_prediction(scene), scene)
        assert worse.det_l < good.det_l
        assert worse.ols < good.ols

    @pytest.mark.parametrize("field, value", [
        ("lane_scores", np.ones(1)),
        ("lane_scores", np.ones(3)),
        ("ll", np.zeros((2, 3))),
        ("lt", np.zeros((2, 2))),
        ("gt_ll", np.zeros((1, 1))),
        ("gt_lt", np.zeros((2, 4))),
    ], ids=["short_scores", "long_scores", "ll", "lt", "gt_ll", "gt_lt"])
    def test_mismatched_shapes_raise(self, field, value):
        # two lanes and one traffic element, one shape of the prediction or
        # of the ground truth off: neither a truncated score list, an
        # IndexError nor a silent score, but validate_prediction's or
        # validate_scene's message
        scene = chain_scene()
        pred = perfect_prediction(scene)
        if field == "lane_scores":
            pred = replace(pred, lane_scores=value)
        elif field.startswith("gt_"):
            scene = replace(scene, topo=replace(scene.topo, **{field[3:]: value}))
        else:
            pred = replace(pred, topo=replace(pred.topo, **{field: value}))
        with pytest.raises(ValueError) as err:
            lt.evaluate(pred, scene, lane_width=1.75)
        expected = lt.validate_scene(scene) if field.startswith("gt_") \
            else lt.validate_prediction(pred)
        assert [str(err.value)] == expected

    def test_zeroing_a_correct_edge_hurts_top(self):
        scene = three_lane_chain()
        good = lt.evaluate(perfect_prediction(scene), scene)
        ll = scene.topo.ll.copy()
        ll[1, 2] = 0.0
        rep = lt.evaluate(scored_prediction(scene, ll=ll), scene)
        assert rep.top_ll < good.top_ll


class TestPruning:
    """Pruned evaluation against a dense one that runs every pair."""

    def scene_and_prediction(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=4, n_segments=5, seed=5))
        pred = lt.perturb(scene, lt.NoiseParams(point_sigma=0.3, drop_rate=0.1,
                                                spurious_rate=0.1), seed=5)
        # lanes of a prediction need not have the scene's point count; a lane
        # slid 4 m along the road is past the DET_l thresholds but within the
        # lane-segment ones; one moved 1.5 m sideways has an endpoint bound
        # between the thresholds
        shift = ([0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.0])
        lanes = [lt.Polyline3D(resample_stack(lane.points[None], 7)[0]) if k % 4 == 0
                 else lt.Polyline3D(lane.points + shift[k % 4])
                 for k, lane in enumerate(pred.lanes)]
        return scene, replace(pred, lanes=lanes)

    def report(self, pred, scene, **kwargs):
        return (lt.evaluate(pred, scene, **kwargs),
                lt.evaluate(pred, scene, lane_width=1.75, **kwargs))

    def test_pruned_equals_dense(self, monkeypatch):
        scene, pred = self.scene_and_prediction()
        bound = geometry.endpoint_bound(pred.lanes, scene.lanes)
        # thresholds equal to some pair's endpoint bound, so the pair at the
        # cut is pruned and the strict "<" must reject it all the same; then
        # TOP's threshold far above DET_l's, so it alone sets the cut
        exact = np.unique(bound[(bound > 0.4) & (bound < 2.5)])
        runs = [dict(det_l_thresholds=(float(exact[0]), float(exact[exact.size // 2])),
                     top_frechet=float(exact[-1])),
                dict(det_l_thresholds=(0.5, 0.8), top_frechet=2.0),
                dict()]
        pruned = geometry.frechet_matrix(pred.lanes, scene.lanes, 3.0)
        assert np.isinf(pruned).sum() > pruned.size // 2

        def reports():
            return [self.report(pred, scene, **kwargs) for kwargs in runs]

        fast = reports()
        # the dense run ignores every cut: all pairs go through the kernels
        monkeypatch.setattr(metrics, "frechet_matrix",
                            lambda a, b, cut: geometry.frechet_matrix(a, b, np.inf))
        monkeypatch.setattr(metrics, "segment_matrix",
                            lambda a, b, centerline, cut:
                            geometry.segment_matrix(a, b, centerline, np.inf))
        assert fast == reports()

    def test_each_metric_alone_equals_evaluate(self):
        # each metric from a run, or a matrix, whose cut only it sets
        scene, pred = self.scene_and_prediction()
        plain, full = self.report(pred, scene, top_frechet=2.5)
        assert lt.det_l(pred, scene) == plain.det_l
        top = lt.evaluate(pred, scene, det_l_thresholds=(0.5,), top_frechet=2.5)
        assert (top.det_t, top.top_ll, top.top_lt) == (plain.det_t, plain.top_ll, plain.top_lt)
        cut = max(*metrics.LS_THRESHOLDS, metrics.LS_TOP_THRESHOLD)
        dist = segment_matrix(lane_boundaries(pred.lanes, 1.75),
                              lane_boundaries(scene.lanes, 1.75),
                              frechet_matrix(pred.lanes, scene.lanes, 2.0 * cut), cut)
        ap = float(np.mean([
            lt.average_precision(lt.greedy_match(dist, pred.lane_scores, thr)[0],
                                 len(scene.lanes))
            for thr in metrics.LS_THRESHOLDS]))
        _, to_gt, _ = lt.greedy_match(dist, pred.lane_scores, metrics.LS_TOP_THRESHOLD)
        top_lsls = metrics._topology_score(scene.topo.ll, pred.topo.ll, to_gt, to_gt)
        assert full.lane_segments == metrics.LaneSegmentReport(
            map=ap, ap_lane=ap, ap_ped=None, top_lsls=top_lsls)

    @pytest.mark.parametrize("kwargs", [
        dict(det_l_thresholds=(float("nan"),)),
        dict(det_l_thresholds=(1.0, -1.0)),
        dict(det_l_thresholds=()),
        dict(top_frechet=float("nan")),
        dict(top_frechet=0.0),
        dict(top_frechet=float("inf")),
        dict(top_iou=float("inf")),
        dict(det_t_iou=0.0),
        dict(top_iou=1.5),
    ])
    def test_unscorable_thresholds_raise(self, kwargs):
        scene = chain_scene()
        with pytest.raises(ValueError):
            lt.evaluate(perfect_prediction(scene), scene, **kwargs)

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unscorable_lane_width_raises(self, width):
        scene = chain_scene()
        with pytest.raises(ValueError, match="lane width must be finite and positive"):
            lt.evaluate(perfect_prediction(scene), scene, lane_width=width)


class TestTopLsls:
    """TOP_lsls is TOP_ll, not computed again, when the lane-segment matching
    is the centerline one, and its own topology score otherwise."""

    def matchings(self, pred, scene):
        lanes = frechet_matrix(pred.lanes, scene.lanes, np.inf)
        _, lane_to_gt, _ = lt.greedy_match(lanes, pred.lane_scores, metrics.TOP_FRECHET)
        segments = segment_matrix(lane_boundaries(pred.lanes, 1.75),
                                  lane_boundaries(scene.lanes, 1.75), lanes, np.inf)
        _, seg_to_gt, _ = lt.greedy_match(segments, pred.lane_scores, metrics.LS_TOP_THRESHOLD)
        return lane_to_gt, seg_to_gt

    def evaluate_counting(self, monkeypatch, pred, scene):
        """evaluate with the lane-segment block, and its _topology_score calls."""
        calls = []
        real = metrics._topology_score

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(metrics, "_topology_score", counted)
        return lt.evaluate(pred, scene, lane_width=1.75), calls

    def test_equal_matchings_reuse_top_ll(self, monkeypatch):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=4, n_segments=5, seed=5))
        pred = lt.perturb(scene, lt.NoiseParams(point_sigma=0.3, score_noise=0.3), seed=5)
        lane_to_gt, seg_to_gt = self.matchings(pred, scene)
        assert np.array_equal(lane_to_gt, seg_to_gt)
        top_lsls = metrics._topology_score(scene.topo.ll, pred.topo.ll, seg_to_gt, seg_to_gt)
        rep, calls = self.evaluate_counting(monkeypatch, pred, scene)
        assert len(calls) == 2  # TOP_ll and TOP_lt
        assert rep.lane_segments.top_lsls == rep.top_ll == top_lsls

    def test_unequal_matchings_score_their_own(self, monkeypatch):
        scene, pred = TestPruning().scene_and_prediction()
        lane_to_gt, seg_to_gt = self.matchings(pred, scene)
        assert not np.array_equal(lane_to_gt, seg_to_gt)
        top_lsls = metrics._topology_score(scene.topo.ll, pred.topo.ll, seg_to_gt, seg_to_gt)
        rep, calls = self.evaluate_counting(monkeypatch, pred, scene)
        assert len(calls) == 3
        assert rep.lane_segments.top_lsls == top_lsls != rep.top_ll
