"""End-to-end pipeline: shapes, score contracts, ablation, determinism, and the
shared topology stack."""

from dataclasses import replace

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import pipeline
from lanetopo.connect import half_distances
from lanetopo.attention import (
    CrossAttentionParams,
    SigmoidMaskParams,
    masked_cross_attention_backward,
    masked_cross_attention_forward,
    sigmoid_mask_backward,
    sigmoid_mask_forward,
)
from lanetopo.features import GeometryEncoder
from lanetopo.heads import MatchPair, TopologyHeadParams, predict_ll_backward, predict_ll_cached
from lanetopo.nn import param_arrays
from lanetopo.pipeline import TopologyStack, init_pipeline_params
from conftest import chain_scene


def small_cfg(**kw):
    base = dict(dims=lt.ModelDims(c=16, n_heads=2), n_lane_queries=32,
                n_traffic_queries=16)
    base.update(kw)
    return lt.PipelineConfig(**base)


class TestConfig:
    def test_bad_source_raises(self):
        with pytest.raises(ValueError, match="source"):
            lt.PipelineConfig(source="oracle")

    def test_bad_budgets_raise(self):
        with pytest.raises(ValueError, match="budget"):
            lt.PipelineConfig(n_lane_queries=0)

    def test_param_draw_is_seed_deterministic(self):
        cfg = small_cfg()
        a = init_pipeline_params(cfg, 11)
        b = init_pipeline_params(cfg, 11)
        assert np.array_equal(a.attn.wq, b.attn.wq)
        assert np.array_equal(a.stack.heads.ll_score.weights[0], b.stack.heads.ll_score.weights[0])
        c = init_pipeline_params(lt.PipelineConfig(dims=cfg.dims, param_seed=1,
                                                   n_lane_queries=32,
                                                   n_traffic_queries=16), 11)
        assert not np.array_equal(a.attn.wq, c.attn.wq)

    def test_parameters_do_not_depend_on_the_query_budgets(self):
        small = param_arrays(init_pipeline_params(
            lt.PipelineConfig(n_lane_queries=12, n_traffic_queries=2), 11))
        large = param_arrays(init_pipeline_params(
            lt.PipelineConfig(n_lane_queries=300, n_traffic_queries=100), 11))
        assert list(small) == list(large)
        assert all(small[k].tobytes() == large[k].tobytes() for k in large)


class TestGtSource:
    def test_prediction_shapes_and_ranges(self, grid_scene):
        pred = lt.run_pipeline(grid_scene, small_cfg())
        n = len(grid_scene.lanes)
        t = len(grid_scene.traffic)
        assert len(pred.lanes) == n
        assert pred.lane_scores.shape == (n,)
        assert pred.topo.ll.shape == (n, n)
        assert pred.topo.lt.shape == (n, t)
        assert lt.validate_prediction(pred, grid_scene.n_points) == []
        assert np.all(pred.lane_scores > 0.0) and np.all(pred.lane_scores < 1.0)
        off = ~np.eye(n, dtype=bool)
        assert np.all(pred.topo.ll[off] > 0.0) and np.all(pred.topo.ll[off] < 1.0)
        assert np.all(np.diag(pred.topo.ll) == 0.0)
        assert all(el.score is not None for el in pred.traffic)

    def test_gt_geometry_passes_through(self, grid_scene):
        pred = lt.run_pipeline(grid_scene, small_cfg())
        for a, b in zip(pred.lanes, grid_scene.lanes):
            assert np.array_equal(a.points, b.points)
        assert lt.evaluate(pred, grid_scene).det_l == 1.0

    def test_runs_are_bitwise_deterministic(self, grid_scene):
        a = lt.run_pipeline(grid_scene, small_cfg())
        b = lt.run_pipeline(grid_scene, small_cfg())
        assert np.array_equal(a.lane_scores, b.lane_scores)
        assert np.array_equal(a.topo.ll, b.topo.ll)
        assert np.array_equal(a.topo.lt, b.topo.lt)

    def test_no_connections_use_the_unmatched_branch_only(self):
        scene = chain_scene(with_traffic=False)
        bare = lt.Scene(lanes=scene.lanes, traffic=[],
                        topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))))
        cfg = small_cfg()
        pred = lt.run_pipeline(bare, cfg)

        params = init_pipeline_params(cfg, bare.n_points)
        q = params.enc_lane.encode(bare.lane_stack())
        q_bar = lt.self_attention(q, params.attn)
        expected, _ = predict_ll_cached(params.stack.heads, q_bar, np.zeros((0, cfg.dims.c)), [])
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(pred.topo.ll, expected)

    def test_empty_scene_gives_empty_prediction(self):
        empty = lt.Scene(lanes=[], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))))
        pred = lt.run_pipeline(empty, small_cfg())
        assert pred.lanes == []
        assert pred.lane_scores.shape == (0,)
        assert pred.topo.ll.shape == (0, 0)

    def test_scene_without_lanes_keeps_its_traffic(self, grid_scene):
        bare = lt.Scene(lanes=[], traffic=grid_scene.traffic,
                        topo=lt.TopologyGraph(ll=np.zeros((0, 0)),
                                              lt=np.zeros((0, len(grid_scene.traffic)))),
                        n_points=grid_scene.n_points)
        assert bare.traffic
        pred = lt.run_pipeline(bare, small_cfg())
        assert pred.topo.lt.shape == (0, len(bare.traffic))
        assert lt.validate_prediction(pred, bare.n_points) == []
        # traffic queries see no lane, so their scores are the full scene's
        full = lt.run_pipeline(grid_scene, small_cfg())
        assert pred.traffic == full.traffic

    def test_lane_budget_truncates(self, grid_scene):
        cfg = small_cfg(n_lane_queries=2)
        pred = lt.run_pipeline(grid_scene, cfg)
        assert len(pred.lanes) == 2
        assert pred.topo.ll.shape == (2, 2)

    def test_traffic_budget_truncates(self, grid_scene):
        cfg = small_cfg(n_traffic_queries=1)
        pred = lt.run_pipeline(grid_scene, cfg)
        assert len(pred.traffic) == 1
        assert pred.topo.lt.shape == (len(grid_scene.lanes), 1)

    def test_truncation_is_reported_once_with_counts(self, grid_scene):
        n, m = len(grid_scene.lanes), int(grid_scene.topo.ll.sum())
        t = len(grid_scene.traffic)
        assert m > 2 and t > 1
        messages = []
        quiet = lt.run_pipeline(grid_scene, small_cfg(n_lane_queries=2,
                                                      n_traffic_queries=1))
        pred = lt.run_pipeline(grid_scene, small_cfg(n_lane_queries=2, n_traffic_queries=1),
                               warn=messages.append)
        assert messages == [f"query budget keeps 2 of {n} lanes, 2 of {m} connected lanes, "
                            f"1 of {t} traffic elements"]
        assert np.array_equal(pred.topo.ll, quiet.topo.ll)
        lt.run_pipeline(grid_scene, small_cfg(), warn=messages.append)
        assert len(messages) == 1

    @pytest.mark.parametrize("source, noise", [
        ("gt", lt.NoiseParams()),
        ("perturbed", lt.NoiseParams(point_sigma=0.3, drop_rate=0.2)),
    ])
    def test_connection_queries_keep_their_source_pairs(self, grid_scene, monkeypatch,
                                                        source, noise):
        # row k of the curve stack is the merge of ll edge k: on gt input
        # it is that merge, jittered it is still nearest to it
        seen = []

        def spy(L, C):
            seen.append(C)
            return half_distances(L, C)

        monkeypatch.setattr(pipeline, "half_distances", spy)
        lt.run_pipeline(grid_scene, small_cfg(source=source, noise=noise, noise_seed=2))
        merges = lt.connected_curves(grid_scene)
        [C] = seen
        assert C.shape == merges.shape and len(C) > 1
        gaps = np.abs(C[:, None] - merges[None]).sum(axis=(2, 3))
        assert list(np.argmin(gaps, axis=1)) == list(range(len(C)))
        assert np.array_equal(C, merges) == (source == "gt")


class TestGeometryEncoder:
    def test_a_stack_is_encoded_as_its_flattened_rows(self):
        rng = np.random.default_rng(3)
        enc = GeometryEncoder.init(3 * 7, 8, rng)
        stack = rng.normal(scale=50.0, size=(5, 7, 3))
        assert np.array_equal(enc.encode(stack), enc.encode(stack.reshape(5, -1)))


def permuted(scene, lanes=None, traffic=None):
    """scene with its lanes taken in the order lanes and its traffic elements
    in the order traffic (index arrays, identity when None), topology along."""
    lanes = np.arange(len(scene.lanes)) if lanes is None else lanes
    traffic = np.arange(len(scene.traffic)) if traffic is None else traffic
    return replace(scene, lanes=[scene.lanes[k] for k in lanes],
                   traffic=[scene.traffic[k] for k in traffic],
                   topo=lt.TopologyGraph(ll=scene.topo.ll[np.ix_(lanes, lanes)],
                                         lt=scene.topo.lt[np.ix_(lanes, traffic)]))


ORDER_SCENES = {
    "grid3x4": lambda: lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4, seed=100)),
    "grid3x4b": lambda: lt.generate_scene(lt.SynthParams(n_corridors=3, n_segments=4, seed=101)),
    "grid8x20": lambda: lt.generate_scene(lt.SynthParams(n_corridors=8, n_segments=20,
                                                         n_traffic=10, seed=5)),
    "roundabout": lambda: lt.generate_roundabout(radius=18.0, n_arms=5, seed=44),
}


class TestInputOrder:
    """Queries are their own geometry's encodings: permuting a gt scene's
    lanes or traffic elements permutes the prediction and changes nothing
    else, up to the order of floating-point sums."""

    @pytest.mark.parametrize("name", sorted(ORDER_SCENES))
    @pytest.mark.parametrize("param_seed", [0, 2])
    def test_lane_permutation_permutes_the_prediction(self, name, param_seed):
        scene = ORDER_SCENES[name]()
        cfg = lt.PipelineConfig(param_seed=param_seed)
        base = lt.run_pipeline(scene, cfg)
        rng = np.random.default_rng(param_seed)
        for _ in range(2):
            perm = rng.permutation(len(scene.lanes))
            pred = lt.run_pipeline(permuted(scene, lanes=perm), cfg)
            assert np.allclose(pred.topo.ll, base.topo.ll[np.ix_(perm, perm)], rtol=0, atol=1e-12)
            assert np.allclose(pred.topo.lt, base.topo.lt[perm], rtol=0, atol=1e-12)
            assert np.allclose(pred.lane_scores, base.lane_scores[perm], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(ORDER_SCENES))
    def test_traffic_permutation_permutes_the_prediction(self, name):
        scene = ORDER_SCENES[name]()
        base = lt.run_pipeline(scene)
        perm = np.random.default_rng(3).permutation(len(scene.traffic))
        assert len(perm) > 1
        pred = lt.run_pipeline(permuted(scene, traffic=perm))
        assert np.allclose(pred.topo.lt, base.topo.lt[:, perm], rtol=0, atol=1e-12)
        t_scores = [el.score for el in pred.traffic]
        assert np.allclose(t_scores, [base.traffic[k].score for k in perm], rtol=0, atol=1e-12)


class TestAblation:
    def test_disabling_the_mask_changes_scores(self, grid_scene):
        assert grid_scene.topo.ll.sum() > 0
        with_mask = lt.run_pipeline(grid_scene, small_cfg(use_tam=True))
        without = lt.run_pipeline(grid_scene, small_cfg(use_tam=False))
        assert not np.array_equal(with_mask.topo.ll, without.topo.ll)

    def test_ablated_run_is_still_well_formed(self, grid_scene):
        pred = lt.run_pipeline(grid_scene, small_cfg(use_tam=False))
        assert lt.validate_prediction(pred, grid_scene.n_points) == []

    def test_ablation_is_a_no_op_without_connections(self):
        scene = chain_scene(with_traffic=False)
        bare = lt.Scene(lanes=scene.lanes, traffic=[],
                        topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))))
        a = lt.run_pipeline(bare, small_cfg(use_tam=True))
        b = lt.run_pipeline(bare, small_cfg(use_tam=False))
        assert np.array_equal(a.topo.ll, b.topo.ll)
        assert np.array_equal(a.lane_scores, b.lane_scores)


class TestPerturbedSource:
    def test_uses_the_degradation_model(self, grid_scene):
        cfg = small_cfg(source="perturbed", noise=lt.NoiseParams(point_sigma=0.5),
                        noise_seed=3)
        pred = lt.run_pipeline(grid_scene, cfg)
        degraded = lt.perturb(grid_scene, cfg.noise, cfg.noise_seed)
        assert len(pred.lanes) == len(degraded.lanes)
        for a, b in zip(pred.lanes, degraded.lanes):
            assert np.array_equal(a.points, b.points)

    def test_noise_seed_determinism(self, grid_scene):
        cfg = small_cfg(source="perturbed", noise=lt.NoiseParams(point_sigma=0.5),
                        noise_seed=3)
        a = lt.run_pipeline(grid_scene, cfg)
        b = lt.run_pipeline(grid_scene, cfg)
        assert np.array_equal(a.topo.ll, b.topo.ll)
        other = small_cfg(source="perturbed", noise=lt.NoiseParams(point_sigma=0.5),
                          noise_seed=4)
        c = lt.run_pipeline(grid_scene, other)
        assert not all(np.array_equal(x.points, y.points)
                       for x, y in zip(a.lanes, c.lanes))

    def test_scores_remain_valid(self, grid_scene):
        cfg = small_cfg(source="perturbed",
                        noise=lt.NoiseParams(point_sigma=0.4, drop_rate=0.2,
                                             spurious_rate=0.2),
                        noise_seed=1)
        pred = lt.run_pipeline(grid_scene, cfg)
        assert lt.validate_prediction(pred, grid_scene.n_points) == []


class TestTopologyStack:
    """The one mask -> cross-attention -> ll head chain of predict and fit."""

    @staticmethod
    def case(seed=0, n=4, m=3, c=8):
        rng = np.random.default_rng(seed)
        stack = TopologyStack.init(lt.ModelDims(c=c, n_heads=2), rng)
        q, qc = rng.normal(size=(n, c)), rng.normal(size=(m, c))
        d = np.abs(rng.normal(size=(n, m))) * 2.0
        pairs = [MatchPair(conn=0, i=0, j=1), MatchPair(conn=2, i=1, j=3)]
        return stack, q, qc, d, pairs

    def test_init_draws_mask_then_tam_then_heads(self):
        dims = lt.ModelDims(c=8, n_heads=2)
        stack = TopologyStack.init(dims, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = TopologyStack(mask=SigmoidMaskParams.init(8, rng),
                             tam=CrossAttentionParams.init(dims, rng),
                             heads=TopologyHeadParams.init(8, rng))
        got, want = param_arrays(stack), param_arrays(want)
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_forward_is_bitwise_the_layer_chain(self):
        stack, q, qc, d, pairs = self.case()
        q_hat, ll, _ = stack.forward(q, qc, d, pairs, True)
        s, _ = sigmoid_mask_forward(stack.mask, d)
        want_q, _ = masked_cross_attention_forward(stack.tam, q, qc, s)
        want_ll, _ = predict_ll_cached(stack.heads, want_q, qc, pairs)
        assert np.array_equal(q_hat, want_q)
        assert np.array_equal(ll, want_ll)

    @pytest.mark.parametrize("use_tam, m", [(False, 3), (True, 0)])
    def test_skipped_cross_attention_passes_queries_through(self, use_tam, m):
        stack, q, qc, d, pairs = self.case()
        qc, d, pairs = qc[:m], d[:, :m], pairs[:1] if m else []
        q_hat, ll, cache = stack.forward(q, qc, d, pairs, use_tam)
        assert q_hat is q
        assert np.array_equal(ll, predict_ll_cached(stack.heads, q, qc, pairs)[0])
        gq, gqc, gd, grads = stack.backward(cache, np.ones_like(ll))
        assert gq.shape == q.shape and gqc.shape == qc.shape
        assert np.array_equal(gd, np.zeros(d.shape))
        assert grads.mask is None and grads.tam is None
        assert {k.split(".")[0] for k in param_arrays(grads)} == {"heads"}

    def test_backward_sums_both_connected_query_paths(self):
        stack, q, qc, d, pairs = self.case(seed=1)
        _, ll, cache = stack.forward(q, qc, d, pairs, True)
        g_ll = np.random.default_rng(2).normal(size=ll.shape)
        gq, gqc, gd, grads = stack.backward(cache, g_ll)
        gq_hat, gqc_head, head_grads = predict_ll_backward(stack.heads, cache.ll, g_ll)
        want_gq, gqc_tam, gs, tam_grads = masked_cross_attention_backward(
            stack.tam, cache.tam, gq_hat)
        want_gd, mask_grads = sigmoid_mask_backward(stack.mask, cache.mask, gs)
        assert np.array_equal(gq, want_gq)
        assert np.array_equal(gqc, gqc_tam + gqc_head)
        assert np.array_equal(gd, want_gd)
        got = param_arrays(grads)
        want = param_arrays(TopologyStack(mask=mask_grads, tam=tam_grads, heads=head_grads))
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)
        names = set(param_arrays(stack))
        assert set(got) == {k for k in names if not k.startswith("heads.lt_")}
