"""Finite-difference verification harness and the hand-written backwards."""

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.attention import SigmoidMaskParams, sigmoid_mask_backward, sigmoid_mask_forward
from lanetopo.gradcheck import (
    KINK_MARGIN,
    OP_NAMES as BUILT_OP_NAMES,
    Op,
    build_standard_ops,
    grad_check,
    run_gradcheck,
)
from lanetopo.nn import MlpParams, mlp_backward, mlp_forward_cached, param_arrays

OP_NAMES = {"mlp_forward", "sigmoid_mask", "self_attention", "masked_cross_attention",
            "predict_ll_backward", "focal_loss_grad", "topology_stack"}


class NullOp:
    name = "null"

    def variables(self):
        return {}

    def forward(self):
        return np.zeros((1, 1))

    def analytic_grads(self, gy):
        return {}

    def min_kink_margin(self):
        return np.inf


class TestHarness:
    def test_all_ops_pass_on_a_small_run(self):
        results = run_gradcheck(seed=0, instances=3)
        assert len(results) == 21
        assert {r.op for r in results} == OP_NAMES
        for r in results:
            assert not r.skipped
            assert r.n_entries > 0
            assert r.max_rel_error < 1e-4

    def test_runs_are_deterministic(self):
        a = run_gradcheck(seed=5, instances=2)
        b = run_gradcheck(seed=5, instances=2)
        assert [r.max_rel_error for r in a] == [r.max_rel_error for r in b]

    def test_corruption_is_detected(self):
        results = run_gradcheck(seed=0, instances=2, corrupt="sigmoid_mask")
        bad = [r for r in results if r.op == "sigmoid_mask"]
        good = [r for r in results if r.op != "sigmoid_mask"]
        assert all(r.max_rel_error > 1e-3 for r in bad)
        assert all(r.max_rel_error < 1e-4 for r in good)

    @pytest.mark.parametrize("name", sorted(OP_NAMES))
    def test_corruption_of_each_op_is_detected(self, name):
        results = run_gradcheck(seed=0, instances=1, corrupt=name)
        assert [r.max_rel_error > 1e-3 for r in results] == \
            [r.op == name for r in results]

    def test_ops_are_built_in_the_order_of_their_names(self):
        assert set(BUILT_OP_NAMES) == OP_NAMES
        assert [op.name for op in build_standard_ops(seed=0)] == list(BUILT_OP_NAMES)

    def test_corrupting_an_unknown_op_raises(self):
        with pytest.raises(ValueError, match="typo"):
            run_gradcheck(seed=0, instances=1, corrupt="typo")

    @pytest.mark.parametrize("kwargs, name", [
        (dict(eps=0.0), "eps"), (dict(eps=float("nan")), "eps"), (dict(eps=-1e-5), "eps"),
        (dict(instances=0), "instances"), (dict(instances=-2), "instances"),
    ])
    def test_unusable_arguments_raise_naming_them(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run_gradcheck(seed=0, **kwargs)

    def test_zero_entry_op_is_skipped_with_note(self):
        r = grad_check(NullOp())
        assert r.skipped
        assert r.n_entries == 0
        assert "skipped" in r.note

    def test_standard_ops_clear_the_kink_margin(self):
        for op in build_standard_ops(seed=42):
            assert op.min_kink_margin() > KINK_MARGIN


class TestOpAdapter:
    def ops(self):
        return {op.name: op for op in build_standard_ops(seed=0)}

    def test_variables_are_live_views(self):
        op = self.ops()["mlp_forward"]
        y = op.forward().copy()
        op.variables()["x"] += 1.0
        assert not np.array_equal(op.forward(), y)

    def test_default_kink_margin_is_infinite(self):
        op = Op("square", {"x": np.ones(2)}, None, lambda: (np.ones(2), None),
                lambda params, cache, gy: (gy, None))
        assert op.min_kink_margin() == np.inf

    def test_ll_head_op_checks_only_ll_head_parameters(self):
        names = set(self.ops()["predict_ll_backward"].variables())
        assert {n.split(".")[0] for n in names} == {
            "q_hat", "qc_hat", "match_i", "match_j", "unmatch_i", "unmatch_j", "ll_score"}

    def test_stack_op_checks_its_inputs_and_every_ll_score_layer(self):
        names = set(self.ops()["topology_stack"].variables())
        assert {n.split(".")[0] for n in names} == {"q", "qc", "d", "heads", "tam", "mask"}
        heads = {n.split(".")[1] for n in names if n.startswith("heads.")}
        assert heads == {"match_i", "match_j", "unmatch_i", "unmatch_j", "ll_score"}

    @pytest.mark.parametrize("name", BUILT_OP_NAMES)
    def test_backward_returns_inputs_then_the_parameters_own_type(self, name):
        op = self.ops()[name]
        y, cache = op.forward_cached()
        *g_inputs, g_params = op.backward(op.params, cache, 2.0 * y)
        assert [g.shape for g in g_inputs] == [x.shape for x in op.inputs.values()]
        assert type(g_params) is type(op.params)
        arrays, grads = param_arrays(op.params), param_arrays(g_params)
        assert set(grads) <= set(arrays)
        assert all(grads[k].shape == arrays[k].shape for k in grads)

    def test_focal_op_predictions_clear_the_clamp(self):
        pred = self.ops()["focal_loss_grad"].variables()["pred"]
        assert pred.min() > 0.01 and pred.max() < 0.99


class TestHandWrittenBackwards:
    def test_mlp_bias_gradient_is_upstream_column_sum(self):
        params = MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        x = np.random.default_rng(0).normal(size=(4, 3))
        _, cache = mlp_forward_cached(params, x)
        gy = np.ones((4, 2))
        _, grads = mlp_backward(params, cache, gy)
        gw, gb = grads.weights[0], grads.biases[0]
        assert np.array_equal(gb, gy.sum(axis=0))
        assert np.array_equal(gw, x.T @ gy)

    def test_mlp_input_gradient_through_zero_weights_is_zero(self):
        params = MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        x = np.ones((2, 3))
        _, cache = mlp_forward_cached(params, x)
        gx, _ = mlp_backward(params, cache, np.ones((2, 2)))
        assert np.array_equal(gx, np.zeros((2, 3)))

    def test_sigmoid_mask_slope_is_quarter_at_zero(self):
        # identity mask MLP: preactivation 0 -> sigmoid slope 1/4
        params = SigmoidMaskParams(mlp=MlpParams(weights=[np.array([[1.0]])],
                                                 biases=[np.array([0.0])]))
        _, cache = sigmoid_mask_forward(params, np.zeros((1, 1)))
        gd, _ = sigmoid_mask_backward(params, cache, np.ones((1, 1)))
        assert gd[0, 0] == 0.25

    def test_sigmoid_mask_clamp_floor_blocks_gradient(self):
        params = SigmoidMaskParams(mlp=MlpParams(weights=[np.array([[0.0]])],
                                                 biases=[np.array([-30.0])]))
        _, cache = sigmoid_mask_forward(params, np.zeros((1, 1)))
        gd, _ = sigmoid_mask_backward(params, cache, np.ones((1, 1)))
        assert gd[0, 0] == 0.0
