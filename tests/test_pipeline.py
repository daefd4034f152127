"""End-to-end pipeline: shapes, score contracts, ablation, determinism."""

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import pipeline
from lanetopo.connect import half_distances
from lanetopo.features import lane_values
from lanetopo.pipeline import init_pipeline_params
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
        assert np.array_equal(a.heads.ll_score.weights[0], b.heads.ll_score.weights[0])
        c = init_pipeline_params(lt.PipelineConfig(dims=cfg.dims, param_seed=1,
                                                   n_lane_queries=32,
                                                   n_traffic_queries=16), 11)
        assert not np.array_equal(a.attn.wq, c.attn.wq)


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
        q = params.enc_lane.encode(lane_values(bare.lanes))
        q_bar = lt.self_attention(q, params.p_lane[:2], params.attn)
        expected = lt.predict_ll(q_bar, np.zeros((0, cfg.dims.c)), [], params.heads)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(pred.topo.ll, expected)

    def test_empty_scene_gives_empty_prediction(self):
        empty = lt.Scene(lanes=[], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))))
        pred = lt.run_pipeline(empty, small_cfg())
        assert pred.lanes == []
        assert pred.lane_scores.shape == (0,)
        assert pred.topo.ll.shape == (0, 0)

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
        seen = []

        def spy(lanes, connected):
            seen.extend(c.source for c in connected)
            return half_distances(lanes, connected)

        monkeypatch.setattr(pipeline, "half_distances", spy)
        lt.run_pipeline(grid_scene, small_cfg(source=source, noise=noise, noise_seed=2))
        assert seen == [c.source for c in lt.build_connected_gt(grid_scene)]
        assert seen


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
