"""Losses, assignment, and the single-scene fit demo."""

import copy
import math

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.heads import MatchPair
from lanetopo.nn import descend, param_arrays
from lanetopo.pipeline import TopologyStack, init_pipeline_params
from lanetopo.training import FOCAL_CLAMP, FitDiverged
from conftest import chain_scene, straight_lane
from oracles import brute_force_assignment


class TestFocalLoss:
    def test_hand_value_positive_target(self):
        expected = -0.25 * 0.7 ** 2 * math.log(0.3)
        assert lt.focal_loss(np.array([0.3]), np.array([1.0])) \
            == pytest.approx(expected, abs=1e-15)

    def test_hand_value_negative_target(self):
        expected = -0.75 * 0.4 ** 2 * math.log(0.6)
        assert lt.focal_loss(np.array([0.4]), np.array([0.0])) \
            == pytest.approx(expected, abs=1e-15)

    def test_confident_correct_prediction_is_tiny(self):
        loss = lt.focal_loss(np.array([1.0]), np.array([1.0]))
        assert 0.0 <= loss < 1e-12

    def test_gamma_zero_alpha_half_is_half_bce(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=20)
        t = (rng.random(20) < 0.5).astype(float)
        focal = lt.focal_loss(p, t, alpha=0.5, gamma=0.0)
        bce = float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))
        assert focal == pytest.approx(0.5 * bce, abs=1e-12)

    def test_clamp_keeps_extremes_finite(self):
        loss = lt.focal_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        # the t=0 entry rebuilds its clamp as 1 - (1 - c), so the pair mean
        # only tracks the closed form to ~5e-10; the t=1 entry hits c exactly
        expected = -0.5 * (1.0 - FOCAL_CLAMP) ** 2 * math.log(FOCAL_CLAMP)
        assert loss == pytest.approx(expected, rel=1e-8)
        pos_only = lt.focal_loss(np.array([0.0]), np.array([1.0]))
        assert pos_only == pytest.approx(
            -0.25 * (1.0 - FOCAL_CLAMP) ** 2 * math.log(FOCAL_CLAMP), rel=1e-12)

    def test_reductions(self):
        p = np.array([0.3, 0.8])
        t = np.array([1.0, 0.0])
        per = lt.focal_loss(p, t, reduction="none")
        assert per.shape == (2,)
        assert lt.focal_loss(p, t, reduction="sum") == pytest.approx(per.sum())
        assert lt.focal_loss(p, t) == pytest.approx(per.mean())

    def test_empty_input_mean_is_zero(self):
        assert lt.focal_loss(np.zeros(0), np.zeros(0)) == 0.0

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 0.9, size=10)
        t = (rng.random(10) < 0.5).astype(float)
        g = lt.focal_loss_grad(p, t)
        eps = 1e-7
        for k in range(10):
            up, down = p.copy(), p.copy()
            up[k] += eps
            down[k] -= eps
            fd = (lt.focal_loss(up, t, reduction="sum")
                  - lt.focal_loss(down, t, reduction="sum")) / (2.0 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_grad_is_zero_where_clamp_is_active(self):
        g = lt.focal_loss_grad(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(g, np.zeros(2))


class TestHungarian:
    def test_diagonally_dominant_picks_identity(self):
        cost = np.full((3, 3), 10.0)
        np.fill_diagonal(cost, 1.0)
        assert lt.hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_single_entry(self):
        assert lt.hungarian(np.array([[3.0]])) == [(0, 0)]

    def test_empty_matrix(self):
        assert lt.hungarian(np.zeros((0, 3))) == []
        assert lt.hungarian(np.zeros((3, 0))) == []

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            lt.hungarian(np.array([[1.0, np.inf], [2.0, 3.0]]))

    def test_non_2d_raises(self):
        with pytest.raises(ValueError, match="2D"):
            lt.hungarian(np.zeros(4))

    def test_rectangular_assignments_are_valid(self):
        rng = np.random.default_rng(2)
        for n, m in [(2, 5), (5, 2), (4, 4), (1, 6)]:
            cost = rng.uniform(-3.0, 3.0, size=(n, m))
            pairs = lt.hungarian(cost)
            assert len(pairs) == min(n, m)
            rows = [r for r, _ in pairs]
            cols = [c for _, c in pairs]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)
            assert all(0 <= r < n and 0 <= c < m for r, c in pairs)
            assert pairs == sorted(pairs)

    def test_totals_match_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            if trial % 2 == 0:
                cost = rng.integers(0, 50, size=(n, m)).astype(float)
            else:
                cost = rng.uniform(-10.0, 10.0, size=(n, m))
            _, best_total = brute_force_assignment(cost)
            assert sum(float(cost[r, c]) for r, c in lt.hungarian(cost)) == best_total

    def test_beats_random_alternatives(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(0.0, 1.0, size=(10, 10))
        optimal = sum(float(cost[r, c]) for r, c in lt.hungarian(cost))
        for _ in range(200):
            perm = rng.permutation(10)
            alt = sum(cost[r, perm[r]] for r in range(10))
            assert optimal <= alt + 1e-12


FIT_SCENES = {
    "tiny": lt.SynthParams(n_corridors=1, n_segments=2, split_prob=0.0, merge_prob=0.0,
                           n_traffic=0),
    "grid3x4": lt.SynthParams(n_corridors=3, n_segments=4, n_traffic=3, seed=1),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIT_SCENES))
def test_unfitted_scores_are_run_pipelines_bitwise(name, seed):
    """toy_fit and run_pipeline share one query path and one parameter draw,
    so before any update the fit scores are predict's, off the diagonal."""
    scene = lt.generate_scene(FIT_SCENES[name])
    assert lt.build_connected_gt(scene)
    dims = lt.ModelDims(c=16, n_heads=4)
    fit = lt.toy_fit(scene, steps=1, lr=0.0, seed=seed, dims=dims)
    pred = lt.run_pipeline(scene, lt.PipelineConfig(dims=dims, param_seed=seed))
    off_diag = ~np.eye(len(scene.lanes), dtype=bool)
    assert np.array_equal(fit.final_scores[off_diag], pred.topo.ll[off_diag])


class TestToyFit:
    def test_zero_learning_rate_freezes_the_loss(self):
        scene = chain_scene()
        result = lt.toy_fit(scene, steps=5, lr=0.0, seed=0)
        assert len(result.losses) == 5
        assert all(v == result.losses[0] for v in result.losses)
        # the stack is run_pipeline's at param_seed = seed, left as drawn
        cfg = lt.PipelineConfig(dims=lt.ModelDims(c=16, n_heads=4), param_seed=0)
        fresh = init_pipeline_params(cfg, scene.n_points).stack
        got, want = param_arrays(result.stack), param_arrays(fresh)
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_update_is_bitwise_the_keyed_loop(self):
        rng = np.random.default_rng(3)
        stack = TopologyStack.init(lt.ModelDims(c=8, n_heads=2), rng)
        q, qc = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
        d = np.abs(rng.normal(size=(4, 3))) * 2.0
        pairs = [MatchPair(conn=0, i=0, j=1), MatchPair(conn=2, i=1, j=3)]
        _, ll, cache = stack.forward(q, qc, d, pairs, True)
        _, _, _, grads = stack.backward(cache, rng.normal(size=ll.shape))
        before, keyed = copy.deepcopy(stack), copy.deepcopy(stack)
        arrays = param_arrays(keyed)
        for name, grad in param_arrays(grads).items():
            arrays[name] -= 0.05 * grad
        descend(stack, grads, 0.05)
        got, want, old = param_arrays(stack), param_arrays(keyed), param_arrays(before)
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)
        # the lane-traffic head has no gradient and keeps its values
        assert all(np.array_equal(got[k], old[k]) for k in got if k.startswith("heads.lt_"))
        assert not np.array_equal(got["heads.ll_score.w0"], old["heads.ll_score.w0"])

    @pytest.mark.parametrize("steps", [0, -3])
    def test_fewer_than_one_step_raises(self, steps):
        with pytest.raises(ValueError, match="steps"):
            lt.toy_fit(chain_scene(), steps=steps)

    def test_negative_seed_raises_naming_it_before_any_work(self):
        # None is no scene: any step past the argument checks would fail on it
        with pytest.raises(ValueError, match="^seed must be finite and >= 0, got -1$"):
            lt.toy_fit(None, seed=-1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -0.1])
    def test_unusable_learning_rate_raises(self, lr):
        with pytest.raises(ValueError, match="^lr must be finite and >= 0"):
            lt.toy_fit(chain_scene(), steps=2, lr=lr)

    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning gets out
    def test_diverging_fit_raises_at_the_first_non_finite_loss(self):
        with pytest.raises(FitDiverged, match=r"^lr 1e\+300 diverges: loss nan at step 1$"):
            lt.toy_fit(chain_scene(), steps=20, lr=1e300, seed=0)

    def test_loss_decreases_on_a_chain(self):
        result = lt.toy_fit(chain_scene(), steps=60, lr=0.05, seed=0)
        assert result.losses[-1] < result.losses[0]

    def test_single_lane_scene_raises(self):
        lane = straight_lane(0.0, 10.0, 0.0)
        scene = lt.Scene(lanes=[lane], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((1, 1)), lt=np.zeros((1, 0))))
        with pytest.raises(ValueError, match="off-diagonal"):
            lt.toy_fit(scene, steps=1)

    def test_smoothed_trajectory_is_monotone_on_five_lanes(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=5,
                                                 split_prob=0.0, merge_prob=0.0,
                                                 n_traffic=0, seed=0))
        assert len(scene.lanes) == 5
        result = lt.toy_fit(scene, steps=120, lr=0.05, seed=0)
        window = 10
        ma = np.convolve(result.losses, np.ones(window) / window, mode="valid")
        assert np.all(np.diff(ma) <= 1e-9)

    def test_final_scores_track_target_after_fitting(self):
        scene = chain_scene()
        result = lt.toy_fit(scene, steps=200, lr=0.05, seed=0)
        n = len(scene.lanes)
        off = ~np.eye(n, dtype=bool)
        pos = result.final_scores[off][result.target[off] == 1.0]
        neg = result.final_scores[off][result.target[off] == 0.0]
        assert np.all(pos > 0.5)
        assert np.all(neg < 0.5)
