"""Synthetic scene generator, roundabout variant, and the degradation model."""

import numpy as np
import pytest

import lanetopo as lt
from conftest import perfect_prediction, same_bits
from oracles import infer_ll_loops, perturb_graded, perturb_lanes_loops


class TestSynthParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lt.SynthParams(lane_spacing=2.0)
        with pytest.raises(ValueError):
            lt.SynthParams(n_corridors=0)
        with pytest.raises(ValueError):
            lt.SynthParams(n_points=1)
        with pytest.raises(ValueError):
            lt.SynthParams(segment_length=0.0)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            lt.NoiseParams(point_sigma=-0.1)
        with pytest.raises(ValueError):
            lt.NoiseParams(drop_rate=1.5)
        with pytest.raises(ValueError):
            lt.NoiseParams(spurious_rate=-0.2)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(split_prob=float("nan"), grade=float("inf")), "split_prob"),
        (dict(grade=float("inf")), "grade"),
        (dict(split_prob=2.0), "split_prob"),
        (dict(merge_prob=-1.0), "merge_prob"),
        (dict(segment_length=float("nan")), "segment_length"),
        (dict(lane_spacing=float("nan")), "lane_spacing"),
        (dict(seed=-1), "seed"),
    ])
    def test_unusable_values_raise_naming_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            lt.SynthParams(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("point_sigma", float("nan")), ("spurious_rate", float("nan")), ("spurious_rate", float("inf")),
        ("drop_rate", float("nan")),
    ])
    def test_non_finite_noise_raises_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            lt.NoiseParams(**{name: value})

    def test_negative_traffic_count_raises_before_any_draw(self):
        with pytest.raises(ValueError, match="^n_traffic must be finite and >= 0, got -2$"):
            lt.generate_scene(lt.SynthParams(n_traffic=-2))


class TestGenerateScene:
    def test_plain_chain_counts(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=2,
                                                 split_prob=0.0, merge_prob=0.0,
                                                 n_traffic=0, seed=0))
        assert len(scene.lanes) == 2
        assert scene.topo.ll.sum() == 1.0
        assert scene.topo.ll[0, 1] == 1.0

    def test_forced_split_adds_a_branch(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=2,
                                                 split_prob=1.0, merge_prob=0.0,
                                                 n_traffic=0, seed=0))
        # one predecessor with two successors
        assert len(scene.lanes) == 3
        assert scene.topo.ll.sum() == 2.0
        assert scene.topo.ll[0].sum() == 2.0

    def test_generated_scenes_validate_cleanly(self):
        for seed in range(10):
            scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4,
                                                     split_prob=0.3, merge_prob=0.3,
                                                     n_traffic=4, seed=seed))
            assert lt.validate_scene(scene) == []

    def test_same_seed_same_scene(self):
        params = lt.SynthParams(n_corridors=2, n_segments=3, split_prob=0.5,
                                n_traffic=3, seed=7)
        a = lt.generate_scene(params)
        b = lt.generate_scene(params)
        assert len(a.lanes) == len(b.lanes)
        for la, lb in zip(a.lanes, b.lanes):
            assert np.array_equal(la.points, lb.points)
        assert np.array_equal(a.topo.ll, b.topo.ll)
        assert np.array_equal(a.topo.lt, b.topo.lt)
        assert [el.bbox for el in a.traffic] == [el.bbox for el in b.traffic]

    def test_different_seeds_differ(self):
        pa = lt.SynthParams(n_corridors=2, n_segments=3, split_prob=0.5, seed=0)
        pb = lt.SynthParams(n_corridors=2, n_segments=3, split_prob=0.5, seed=1)
        a = lt.generate_scene(pa)
        b = lt.generate_scene(pb)
        same = len(a.lanes) == len(b.lanes) and all(
            np.array_equal(x.points, y.points) for x, y in zip(a.lanes, b.lanes))
        assert not same

    def test_disconnected_lanes_keep_their_distance(self):
        params = lt.SynthParams(n_corridors=3, n_segments=3, split_prob=0.3,
                                merge_prob=0.3, lane_spacing=3.0, seed=4)
        scene = lt.generate_scene(params)
        n = len(scene.lanes)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = scene.lanes[i], scene.lanes[j]
                share = any(
                    float(np.linalg.norm(pa - pb)) <= lt.JUNCTION_TOL
                    for pa in (a.points[0], a.points[-1])
                    for pb in (b.points[0], b.points[-1]))
                if share:
                    continue
                gap = min(float(np.linalg.norm(pa - pb))
                          for pa in a.points for pb in b.points)
                assert gap >= 1.0, f"lanes {i}, {j} nearly touch without a junction"

    def test_grade_lifts_z(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=2,
                                                 split_prob=0.0, merge_prob=0.0,
                                                 grade=0.05, n_traffic=0, seed=0))
        flat = lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=2,
                                                split_prob=0.0, merge_prob=0.0,
                                                grade=0.0, n_traffic=0, seed=0))
        assert np.all(flat.lanes[0].points[:, 2] == 0.0)
        assert scene.lanes[1].points[-1][2] > 0.0

    def test_traffic_fields(self):
        scene = lt.generate_scene(lt.SynthParams(n_traffic=5, seed=2))
        assert len(scene.traffic) == 5
        assert scene.topo.lt.shape == (len(scene.lanes), 5)
        for el in scene.traffic:
            assert el.score is None
            assert el.category in lt.TRAFFIC_CATEGORIES


class TestInferLl:
    def test_endpoint_coincidence(self):
        a = lt.Polyline3D(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        b = lt.Polyline3D(np.array([[10.0, 0.0, 0.0], [20.0, 0.0, 0.0]]))
        c = lt.Polyline3D(np.array([[30.0, 0.0, 0.0], [40.0, 0.0, 0.0]]))
        ll = lt.infer_ll([a, b, c])
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        assert np.array_equal(ll, expected)

    def test_tolerance_boundary(self):
        a = lt.Polyline3D(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        near = lt.Polyline3D(np.array([[10.009, 0.0, 0.0], [20.0, 0.0, 0.0]]))
        far = lt.Polyline3D(np.array([[10.02, 0.0, 0.0], [20.0, 0.0, 0.0]]))
        assert lt.infer_ll([a, near])[0, 1] == 1.0
        assert lt.infer_ll([a, far])[0, 1] == 0.0

    @pytest.mark.parametrize("scene", [
        lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=4, seed=2)),
        lt.generate_scene(lt.SynthParams(n_corridors=4, n_segments=20, split_prob=0.5,
                                         merge_prob=0.5, n_points=5, seed=3)),
        lt.generate_scene(lt.SynthParams(n_corridors=6, n_segments=50, split_prob=0.5,
                                         merge_prob=0.5, seed=4)),
        lt.generate_roundabout(n_arms=6, seed=1),
        lt.generate_roundabout(radius=7.5, n_arms=9, n_points=4, seed=2),
    ], ids=["grid-1x4", "grid-4x20", "grid-6x50", "roundabout-6", "roundabout-9"])
    def test_bitwise_equal_to_the_pair_loop(self, scene):
        # the 6 x 50 grid has more lanes than one INFER_CHUNK of rows
        ll = lt.infer_ll(scene.lanes)
        assert np.array_equal(ll, infer_ll_loops(scene.lanes))
        assert np.array_equal(ll, scene.topo.ll)
        assert ll.sum() > 0

    def test_junction_at_the_tolerance_and_one_ulp_above(self):
        # the gap is the x offset alone: sqrt(x * x) is x exactly
        a = lt.Polyline3D(np.array([[-10.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        for x, joined in ((lt.JUNCTION_TOL, 1.0), (np.nextafter(lt.JUNCTION_TOL, 1.0), 0.0)):
            b = lt.Polyline3D(np.array([[x, 0.0, 0.0], [10.0, 1.0, 0.0]]))
            assert float(np.linalg.norm(b.points[0] - a.points[-1])) == x
            for lanes in ([a, b], [b, a]):
                ll = lt.infer_ll(lanes)
                assert np.array_equal(ll, infer_ll_loops(lanes))
                assert ll.sum() == joined

    def test_no_lanes(self):
        assert lt.infer_ll([]).shape == (0, 0)


class TestRoundabout:
    def test_edge_count_is_four_per_arm(self):
        for n_arms in (2, 3, 4, 6):
            scene = lt.generate_roundabout(n_arms=n_arms, seed=0)
            assert len(scene.lanes) == 3 * n_arms
            assert scene.topo.ll.sum() == 4.0 * n_arms

    def test_ring_forms_a_directed_cycle(self):
        n_arms = 4
        scene = lt.generate_roundabout(n_arms=n_arms, seed=0)
        ring = scene.topo.ll[:n_arms, :n_arms]
        # each arc feeds exactly the next one around the ring
        assert ring.sum() == n_arms
        reach = np.linalg.matrix_power(ring, n_arms)
        assert np.all(np.diag(reach) == 1.0)

    def test_validates_cleanly(self):
        for seed in range(3):
            scene = lt.generate_roundabout(n_arms=4, seed=seed)
            assert lt.validate_scene(scene) == []

    def test_too_few_arms_raises(self):
        with pytest.raises(ValueError):
            lt.generate_roundabout(n_arms=1)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(radius=float("nan")), "radius"), (dict(radius=0.0), "radius"),
        (dict(radius=float("inf")), "radius"), (dict(n_arms=1), "n_arms"),
        (dict(n_points=1), "n_points"),
    ])
    def test_unusable_arguments_raise_naming_them(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            lt.generate_roundabout(**kwargs)


class TestPerturb:
    def test_zero_noise_reproduces_ground_truth(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=3, seed=0))
        pred = lt.perturb(scene, lt.NoiseParams(), seed=0)
        assert len(pred.lanes) == len(scene.lanes)
        for a, b in zip(pred.lanes, scene.lanes):
            assert np.array_equal(a.points, b.points)
        assert np.array_equal(pred.lane_scores, np.ones(len(scene.lanes)))
        assert np.array_equal(pred.topo.ll, scene.topo.ll)
        assert np.array_equal(pred.topo.lt, scene.topo.lt)

    def test_zero_noise_scores_perfectly(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=3, seed=1))
        rep = lt.evaluate(lt.perturb(scene, lt.NoiseParams(), seed=0), scene)
        assert (rep.det_l, rep.det_t, rep.top_ll, rep.top_lt, rep.ols) \
            == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_dropping_every_lane_zeroes_detection(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=2))
        pred = lt.perturb(scene, lt.NoiseParams(drop_rate=1.0), seed=0)
        assert len(pred.lanes) == 0
        assert lt.evaluate(pred, scene).det_l == 0.0

    def test_spurious_lanes_sit_far_from_the_scene(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=3))
        pred = lt.perturb(scene, lt.NoiseParams(spurious_rate=1.0), seed=5)
        n = len(scene.lanes)
        assert len(pred.lanes) > n
        y_max = max(float(l.points[:, 1].max()) for l in scene.lanes)
        for extra, score in zip(list(pred.lanes)[n:], pred.lane_scores[n:]):
            assert float(extra.points[:, 1].min()) >= y_max + 25.0
            assert score <= 0.5

    def test_graded_score_noise_blends_toward_half(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=4))
        lam = 0.4
        pred = perturb_graded(scene, lt.NoiseParams(), seed=0, score_noise=lam)
        expected = (1.0 - lam) * scene.topo.ll + 0.5 * lam
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(pred.topo.ll, expected, atol=1e-12)

    def test_graded_flip_rate_one_inverts_off_diagonal(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=5))
        pred = perturb_graded(scene, lt.NoiseParams(), seed=0, topo_flip_rate=1.0)
        expected = 1.0 - scene.topo.ll
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(pred.topo.ll, expected)

    def test_jitter_is_seed_deterministic(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=6))
        noise = lt.NoiseParams(point_sigma=0.3)
        a = lt.perturb(scene, noise, seed=9)
        b = lt.perturb(scene, noise, seed=9)
        c = lt.perturb(scene, noise, seed=10)
        assert all(np.array_equal(x.points, y.points)
                   for x, y in zip(a.lanes, b.lanes))
        assert np.array_equal(a.topo.ll, b.topo.ll)
        assert any(not np.array_equal(x.points, y.points)
                   for x, y in zip(a.lanes, c.lanes))

    @pytest.mark.parametrize("sigma, drop", [(0.0, 0.0), (0.3, 0.0), (0.3, 0.3), (2.0, 0.9)])
    def test_jitter_is_the_per_lane_oracle(self, sigma, drop):
        # one draw over the kept stack is the stream of one draw per kept lane
        scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4, split_prob=0.5,
                                                 merge_prob=0.5, seed=12))
        noise = lt.NoiseParams(point_sigma=sigma, drop_rate=drop, spurious_rate=0.2)
        for seed in range(3):
            got = [lane.points for lane in lt.perturb(scene, noise, seed).lanes]
            ref = perturb_lanes_loops(scene, noise, seed)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            assert len(got) >= len(ref)

    def test_signed_zeros_match_the_oracle(self):
        lanes = [lt.Polyline3D(np.array([[0.0, -0.0, 0.0], [5.0, 0.0, -0.0], [6.0, -0.0, -0.0]])),
                 lt.Polyline3D(np.stack([np.linspace(5.0, 9.0, 3), np.zeros(3), -np.zeros(3)], 1)),
                 lt.Polyline3D(np.stack([np.linspace(0.0, 3.0, 3), np.ones(3), -np.ones(3)], 1))]
        scene = lt.Scene(lanes=lanes, traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((3, 3)), lt=np.zeros((3, 0))),
                         n_points=3)
        for sigma in (0.25, 0.0):
            noise = lt.NoiseParams(point_sigma=sigma)
            got = [lane.points for lane in lt.perturb(scene, noise, 4).lanes]
            ref = perturb_lanes_loops(scene, noise, 4)
            assert len(got) == 3
            # bitwise, and -0.0 + 0.0 is 0.0 on both sides
            assert all(np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                       for a, b in zip(got, ref))
        assert not np.signbit(got[0]).any()  # at sigma 0

    def test_a_flawed_jittered_lane_raises_the_oracle_message(self):
        # jitter that overflows a lane to inf, and jitter that rounds a lane
        # whose x steps are one ulp (and whose y and z ulps are far larger)
        # onto itself, so two consecutive points coincide; 20 points each
        n = 20
        big = np.stack([np.linspace(1.0e308, 1.7e308, n), np.zeros(n), np.zeros(n)], 1)
        ulp = np.stack([1.0e20 + 16384.0 * np.arange(n), np.full(n, 1.0e22),
                        np.full(n, 1.0e22)], 1)
        ok = np.stack([np.linspace(0.0, 10.0, n), np.zeros(n), np.zeros(n)], 1)
        for lanes, sigma, flaw in (([ok, big], 1.0e308, "non-finite"),
                                   ([ok, ulp, big], 1.0e4, "duplicate"),
                                   ([big, ulp, ok], 1.0e4, "duplicate")):
            scene = lt.Scene(lanes=[lt.Polyline3D(p) for p in lanes], traffic=[],
                             topo=lt.TopologyGraph(ll=np.zeros((len(lanes),) * 2),
                                                   lt=np.zeros((len(lanes), 0))),
                             n_points=n)
            noise = lt.NoiseParams(point_sigma=sigma)
            with pytest.raises(ValueError) as ref, np.errstate(over="ignore"):
                perturb_lanes_loops(scene, noise, 0)
            with pytest.raises(ValueError) as got, np.errstate(over="ignore"):
                lt.perturb(scene, noise, 0)
            assert str(got.value) == str(ref.value)
            assert flaw in str(got.value)

    def test_perturbed_output_is_a_valid_prediction(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=2, seed=7))
        noise = lt.NoiseParams(point_sigma=0.5, drop_rate=0.2, spurious_rate=0.3)
        assert lt.validate_prediction(lt.perturb(scene, noise, seed=11), scene.n_points) == []
        graded = perturb_graded(scene, noise, seed=11, score_noise=0.3, topo_flip_rate=0.1)
        assert lt.validate_prediction(graded, scene.n_points) == []

    def test_more_noise_scores_worse(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=2, seed=8))
        mild = lt.evaluate(lt.perturb(scene, lt.NoiseParams(point_sigma=0.05), seed=0),
                           scene)
        harsh = lt.evaluate(lt.perturb(scene, lt.NoiseParams(point_sigma=4.0), seed=0),
                            scene)
        assert harsh.ols <= mild.ols


class TestPerturbOracle:
    """perturb is perturb_graded without score noise or flips, bit for bit:
    the same stream, lanes, scores, topology and traffic."""

    SCENES = [dict(n_corridors=3, n_segments=4, split_prob=0.5, merge_prob=0.5, n_traffic=4,
                   seed=9),
              dict(n_corridors=2, n_segments=3, n_traffic=0, seed=10),
              dict(n_corridors=1, n_segments=2, n_traffic=1, seed=11)]

    @pytest.mark.parametrize("noise", [
        dict(), dict(point_sigma=0.3), dict(drop_rate=0.4), dict(spurious_rate=0.5),
        dict(drop_rate=1.0, spurious_rate=1.0), dict(spurious_rate=10.0),
        dict(point_sigma=0.2, drop_rate=0.3, spurious_rate=0.3),
    ])
    def test_bitwise_equal_to_the_graded_factory_without_grading(self, noise):
        noise = lt.NoiseParams(**noise)
        for kw in self.SCENES:
            scene = lt.generate_scene(lt.SynthParams(**kw))
            for seed in range(4):
                got, want = lt.perturb(scene, noise, seed), perturb_graded(scene, noise, seed)
                assert same_bits([got.lanes.points, got.lanes.offsets, got.lane_scores,
                                  got.topo.ll, got.topo.lt],
                                 [want.lanes.points, want.lanes.offsets, want.lane_scores,
                                  want.topo.ll, want.topo.lt])
                assert same_bits(got.traffic.boxes, want.traffic.boxes)
                assert list(got.traffic) == list(want.traffic)

    def test_topology_is_the_binary_ground_truth_of_the_kept_lanes(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4, split_prob=0.5,
                                                 n_traffic=3, seed=10))
        pred = lt.perturb(scene, lt.NoiseParams(drop_rate=0.3, spurious_rate=0.3), seed=2)
        # without jitter a kept lane is its ground-truth lane, point for point
        stack = scene.lane_stack()
        kept = [int(np.flatnonzero((stack == lane.points).all(axis=(1, 2)))[0])
                for lane in pred.lanes if (stack == lane.points).all(axis=(1, 2)).any()]
        k = len(kept)
        assert 0 < k < len(scene.lanes) and len(pred.lanes) > k
        assert np.array_equal(pred.topo.ll[:k, :k], scene.topo.ll[np.ix_(kept, kept)])
        assert np.array_equal(pred.topo.lt[:k], scene.topo.lt[kept])
        assert not pred.topo.ll[k:].any() and not pred.topo.ll[:, k:].any()
        assert not pred.topo.lt[k:].any()
        assert np.array_equal(pred.lane_scores[:k], np.ones(k))
        assert np.array_equal(pred.traffic.scores, np.ones(3))
