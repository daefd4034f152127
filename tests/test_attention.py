"""Numeric core: MLP, layer norm, softmax, sigmoid mask, attention blocks."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

import lanetopo as lt
from lanetopo import attention, nn
from lanetopo.attention import (
    CrossAttentionParams,
    SelfAttentionParams,
    MASK_BLOCK,
    SigmoidMaskParams,
    masked_cross_attention_backward,
    masked_cross_attention_forward,
    self_attention_forward,
    sigmoid_mask_backward,
    sigmoid_mask_forward,
)
from lanetopo.nn import (
    MASK_EPS,
    LN_EPS,
    MlpParams,
    layer_norm_backward,
    layer_norm_forward,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    param_arrays,
    softmax_backward,
    softmax_rows,
)
from conftest import same_bits
from oracles import (
    layer_norm_backward_means,
    layer_norm_mean_var,
    masked_cross_attention_copies,
    masked_cross_attention_copies_backward,
    mlp_backward_reshaped,
    mlp_forward_lists,
    sigmoid_mask_rebuilt,
    sigmoid_mask_rebuilt_backward,
    softmax_backward_copies,
    softmax_rows_copies,
)


def affine_mask_params(w: float, b: float) -> SigmoidMaskParams:
    """Single-layer mask MLP computing w * d + b."""
    return SigmoidMaskParams(mlp=MlpParams(weights=[np.array([[w]])],
                                           biases=[np.array([b])]))


@pytest.mark.parametrize("c, n_heads", [(0, 4), (8, 0), (8, -2), (-4, 2)])
def test_model_sizes_below_one_raise(c, n_heads):
    with pytest.raises(ValueError, match=r"must be finite and (>= 1|in \[1, 512\]), got"):
        lt.ModelDims(c=c, n_heads=n_heads)


def test_model_width_above_its_bound_raises():
    assert lt.ModelDims(c=512, n_heads=1).c == 512
    with pytest.raises(ValueError, match=r"^c must be finite and in \[1, 512\], got 513$"):
        lt.ModelDims(c=513, n_heads=1)


class TestMlp:
    def test_zero_weights_give_constant_bias(self):
        params = MlpParams(weights=[np.zeros((3, 2))], biases=[np.array([1.5, -0.5])])
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = mlp_forward(params, x)
        assert np.array_equal(out, np.tile([1.5, -0.5], (4, 1)))

    def test_identity_layer(self):
        params = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.array_equal(mlp_forward(params, x), x)

    def test_two_layer_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        params = MlpParams.init((3, 4, 2), rng)
        x = rng.normal(size=(6, 3))
        out = mlp_forward(params, x)
        for r in range(6):
            h = x[r] @ params.weights[0] + params.biases[0]
            h = np.maximum(h, 0.0)
            y = h @ params.weights[1] + params.biases[1]
            assert np.allclose(out[r], y, atol=1e-12)

    @pytest.mark.parametrize("widths", [(5,), (5, 3), (5, 8, 3), (5, 8, 6, 1)])
    @pytest.mark.parametrize("rows", [(7,), (4, 3)])
    def test_bitwise_the_list_oracles_on_2d_and_3d_inputs(self, widths, rows):
        rng = np.random.default_rng(len(widths) * 10 + len(rows))
        params = MlpParams.init(widths, rng)
        x = rng.normal(size=(*rows, widths[0]))
        want = mlp_forward_lists(params, x)
        got = mlp_forward_cached(params, x)
        assert same_bits(got, want)
        assert same_bits(mlp_forward(params, x), want[0])
        gy = rng.normal(size=want[0].shape)
        kept = gy.copy()
        assert same_bits(mlp_backward(params, got[1], gy),
                         mlp_backward_reshaped(params, want[1], gy))
        assert same_bits(gy, kept)

    def test_relu_only_between_layers(self):
        # last layer has no activation, so outputs can go negative
        params = MlpParams(weights=[np.eye(2), np.eye(2)],
                           biases=[np.zeros(2), np.array([-100.0, -100.0])])
        out = mlp_forward(params, np.ones((1, 2)))
        assert np.all(out < 0.0)


class TestLayerNorm:
    def test_rows_standardised_at_high_variance(self):
        # the eps inside the sqrt biases the variance low by eps/var, so the
        # 1e-9 check needs rows whose variance dwarfs 1e-5
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1000.0, size=(8, 16))
        y, _ = layer_norm_forward(x, np.ones(16), np.zeros(16))
        assert np.all(np.abs(y.mean(axis=-1)) < 1e-9)
        assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-9)

    def test_affine_applied_after_standardising(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1000.0, size=(4, 8))
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        y, _ = layer_norm_forward(x, gain, bias)
        base, _ = layer_norm_forward(x, np.ones(8), np.zeros(8))
        assert np.allclose(y, gain * base + bias, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 16), (169, 32), (5, 3, 32)])
    def test_bitwise_the_mean_var_oracle(self, shape):
        rng = np.random.default_rng(shape[0])
        c = shape[-1]
        x = rng.normal(3.0, 10.0, size=shape)
        gain, bias, gy = rng.normal(size=c), rng.normal(size=c), rng.normal(size=shape)
        got, want = layer_norm_forward(x, gain, bias), layer_norm_mean_var(x, gain, bias)
        assert same_bits(got, want)
        assert same_bits(layer_norm_backward(got[1], gain, gy),
                         layer_norm_backward_means(want[1], gain, gy))

    def test_constant_row_maps_to_bias(self):
        y, _ = layer_norm_forward(np.full((1, 4), 7.0), np.ones(4), np.full(4, 0.25))
        assert np.allclose(y, 0.25, atol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, 5.0, size=(10, 7))
        s = softmax_rows(z)
        assert np.all(np.abs(s.sum(axis=-1) - 1.0) < 1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 4))
        assert np.allclose(softmax_rows(z), softmax_rows(z + 100.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        s = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(s))
        assert s[0, 0] == pytest.approx(1.0)

    def test_bitwise_equal_to_the_copying_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0.0, 30.0, size=(4, 160, 160))
        z[0, :, 5] = -np.inf
        z[1, 3] = 700.0
        for block in (z, z[:, :7], z[0], z[0, 0]):
            assert np.array_equal(softmax_rows(block), softmax_rows_copies(block))

    def test_backward_bitwise_the_copying_oracle(self):
        rng = np.random.default_rng(9)
        a = softmax_rows(rng.normal(0.0, 3.0, size=(3, 5, 7)))
        gs = rng.normal(size=a.shape)
        for s, g in ((a, gs), (a[0], gs[0])):
            assert same_bits(softmax_backward(s, g), softmax_backward_copies(s, g))

    def test_rows_of_no_entries(self):
        assert softmax_rows(np.zeros((4, 0, 0))).shape == (4, 0, 0)
        assert softmax_rows(np.zeros((3, 0))).shape == (3, 0)


class TestSigmoid:
    """nn.sigmoid against scipy's expit, the oracle, to a tolerance set from float64."""

    MAX_ULP = 4
    MAX_ABS = 2.3e-16

    def test_within_tolerance_of_expit(self):
        rng = np.random.default_rng(2024)
        x = np.concatenate([
            rng.uniform(-740.0, 740.0, 600_000),
            rng.normal(0.0, 8.0, 400_000),
            # around exp(-x) = 2**53, where 1 + exp(-x) rounds hardest
            rng.uniform(-40.0, -34.0, 200_000),
            [-740.0, 740.0],
        ])
        got, want = nn.sigmoid(x), expit(x)
        assert np.all(got >= 0.0) and np.all(want >= 0.0)
        # same-sign float64 values are ordered like their bit patterns
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= self.MAX_ULP
        assert np.abs(got - want).max() <= self.MAX_ABS

    def test_exact_values_at_the_ends(self):
        assert nn.sigmoid(0.0) == 0.5
        assert nn.sigmoid(-0.0) == 0.5
        assert nn.sigmoid(np.inf) == 1.0
        assert nn.sigmoid(-np.inf) == 0.0
        assert nn.sigmoid(-750.0) == 0.0
        assert np.isnan(nn.sigmoid(np.nan))

    def test_shapes_and_dtype(self):
        cases = [(0.25, ()), (np.array(-1.5), ()), ([0.0, 1.0, -2.0], (3,)),
                 (np.arange(6).reshape(2, 3), (2, 3))]
        for x, shape in cases:
            out = nn.sigmoid(x)
            assert np.shape(out) == shape
            assert out.dtype == np.float64
            assert np.array_equal(out, nn.sigmoid(np.asarray(x, dtype=np.float64)))

    def test_overflow_raises_no_warning(self):
        x = np.array([-1000.0, -750.0, -710.0, 0.0, 710.0, 1000.0,
                      np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nn.sigmoid(x)
        assert np.array_equal(out[:3], np.zeros(3))
        assert np.isnan(out[-1])


class TestSigmoidMask:
    def test_zero_distance_through_identity_mlp(self):
        params = affine_mask_params(1.0, 0.0)
        s = sigmoid_mask_forward(params, np.zeros((2, 3)))[0]
        assert np.array_equal(s, np.full((2, 3), 0.5))

    def test_saturated_negative_logit_clamps_at_floor(self):
        params = affine_mask_params(0.0, -30.0)
        s = sigmoid_mask_forward(params, np.array([[1.0, 7.0]]))[0]
        assert np.array_equal(s, np.full((1, 2), MASK_EPS))

    def test_values_stay_in_clamp_range(self):
        rng = np.random.default_rng(7)
        params = SigmoidMaskParams.init(8, rng)
        d = np.abs(rng.normal(0.0, 20.0, size=(5, 6)))
        s = sigmoid_mask_forward(params, d)[0]
        assert np.all(s >= MASK_EPS)
        assert np.all(s <= 1.0)

    def test_elementwise_application(self):
        rng = np.random.default_rng(8)
        params = SigmoidMaskParams.init(8, rng)
        d = rng.uniform(0.0, 10.0, size=(3, 4))
        s = sigmoid_mask_forward(params, d)[0]
        for i in range(3):
            for j in range(4):
                # batched and single-row matmuls may differ in the last ulp
                single = sigmoid_mask_forward(params, np.array([[d[i, j]]]))[0]
                assert s[i, j] == pytest.approx(single[0, 0], rel=1e-14, abs=0.0)

    def test_matches_direct_composition(self):
        rng = np.random.default_rng(9)
        params = SigmoidMaskParams.init(8, rng)
        d = rng.uniform(0.0, 5.0, size=(4, 4))
        logits = mlp_forward(params.mlp, d.reshape(-1, 1)).reshape(4, 4)
        expected = np.clip(nn.sigmoid(logits), MASK_EPS, 1.0)
        assert np.array_equal(sigmoid_mask_forward(params, d)[0], expected)


class TestBlockedSigmoidMask:
    """The mask MLP runs on blocks of MASK_BLOCK entries of D."""

    SIZES = [MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, 2 * MASK_BLOCK + 3]

    @staticmethod
    def case(size, widths):
        rng = np.random.default_rng(size + len(widths))
        params = SigmoidMaskParams(mlp=MlpParams.init(widths, rng))
        return params, rng.uniform(0.0, 10.0, size=(1, size)), rng.normal(size=(1, size))

    @pytest.mark.parametrize("widths", [(1, 1), (1, 8, 1)])
    @pytest.mark.parametrize("size", SIZES)
    def test_forward_is_bitwise_the_one_shot_pass(self, size, widths):
        # a last block of one entry may round differently from the one-shot
        # pass (numpy's one-row product), so that size is held to the blocked
        # oracle instead
        params, d, _ = self.case(size, widths)
        if size == MASK_BLOCK + 1:
            expected = sigmoid_mask_rebuilt(params, d, MASK_BLOCK)[0]
        else:
            logits = mlp_forward(params.mlp, d.reshape(-1, 1)).reshape(d.shape)
            expected = np.clip(nn.sigmoid(logits), MASK_EPS, 1.0)
        assert np.array_equal(sigmoid_mask_forward(params, d)[0], expected)

    @pytest.mark.parametrize("widths", [(1, 1), (1, 8, 1)])
    @pytest.mark.parametrize("size", SIZES)
    def test_backward_matches_the_one_shot_pass(self, size, widths):
        # equal to rounding: the parameter gradients are summed block by
        # block, and a short last block may take a different matmul kernel
        # for gd (each array within 1e-12 of its largest entry)
        params, d, gs = self.case(size, widths)
        _, cache = sigmoid_mask_forward(params, d)
        gd, grads = sigmoid_mask_backward(params, cache, gs)
        sg = cache[1]
        g_logits = gs.reshape(-1, 1) * sg * (1.0 - sg) * (sg >= MASK_EPS)
        _, mlp_cache = mlp_forward_cached(params.mlp, d.reshape(-1, 1))
        want_gd, want = mlp_backward(params.mlp, mlp_cache, g_logits)
        got, want = param_arrays(grads), param_arrays(SigmoidMaskParams(mlp=want))
        assert list(got) == list(want)
        pairs = [(gd, want_gd.reshape(d.shape))] + [(got[k], want[k]) for k in want]
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("widths", [(1, 1), (1, 8, 1), (1, 4, 6, 1)])
    @pytest.mark.parametrize("shape", [(1, 5), (4, 4), (1, 17), (5, 7), (6, 8), (3, 0)])
    def test_both_paths_bitwise_the_rebuilding_oracle(self, monkeypatch, shape, widths):
        # 16 entries per block: one block up to (4, 4), then two and three
        monkeypatch.setattr(attention, "MASK_BLOCK", 16)
        rng = np.random.default_rng(shape[0] * 10 + shape[1] + len(widths))
        params = SigmoidMaskParams(mlp=MlpParams.init(widths, rng))
        d, gs = rng.uniform(0.0, 10.0, size=shape), rng.normal(size=shape)
        s, cache = sigmoid_mask_forward(params, d)
        want_s, want_cache = sigmoid_mask_rebuilt(params, d, 16)
        assert same_bits(s, want_s) and same_bits(cache[:2], want_cache)
        assert same_bits(sigmoid_mask_backward(params, cache, gs),
                         sigmoid_mask_rebuilt_backward(params, want_cache, gs, 16))
        # nor on the block size, unless a block holds one entry: numpy's
        # matrix-vector product for it may round the last place differently
        monkeypatch.setattr(attention, "MASK_BLOCK", MASK_BLOCK)
        if d.size % 16 != 1:
            assert same_bits(sigmoid_mask_forward(params, d)[0], s)

    def test_cache_keeps_the_hidden_layer_of_one_block_only(self, monkeypatch):
        monkeypatch.setattr(attention, "MASK_BLOCK", 16)
        params = SigmoidMaskParams(mlp=MlpParams.init((1, 8, 1), np.random.default_rng(0)))
        _, one = sigmoid_mask_forward(params, np.ones((4, 4)))
        inputs, preacts = one[2]
        assert max(a.size for a in inputs + preacts) == 16 * 8
        _, blocked = sigmoid_mask_forward(params, np.ones((1, 17)))
        assert blocked[2] is None

    def test_empty_distance_matrix(self):
        params, _, _ = self.case(3, (1, 8, 1))
        s, cache = sigmoid_mask_forward(params, np.zeros((4, 0)))
        assert s.shape == (4, 0)
        gd, _ = sigmoid_mask_backward(params, cache, np.zeros((4, 0)))
        assert gd.shape == (4, 0)


def dense_self_attention(params: SelfAttentionParams, q):
    """Head-by-head reference for the intra-group self-attention block."""
    h = params.n_heads
    xq = q @ params.wq + params.bq
    xk = q @ params.wk + params.bk
    xv = q @ params.wv + params.bv
    c = q.shape[1]
    dh = c // h
    ctx = np.zeros_like(xv)
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        z = xq[:, sl] @ xk[:, sl].T / np.sqrt(dh)
        a = np.exp(z - z.max(axis=-1, keepdims=True))
        a = a / a.sum(axis=-1, keepdims=True)
        ctx[:, sl] = a @ xv[:, sl]
    r = ctx @ params.wo + params.bo + q
    mu = r.mean(axis=-1, keepdims=True)
    var = r.var(axis=-1, keepdims=True)
    return params.ln_gain * (r - mu) / np.sqrt(var + LN_EPS) + params.ln_bias


class TestSelfAttention:
    def test_matches_dense_oracle_two_heads(self):
        rng = np.random.default_rng(10)
        dims = lt.ModelDims(c=8, n_heads=2)
        params = SelfAttentionParams.init(dims, rng)
        q = rng.normal(size=(5, 8))
        assert np.allclose(lt.self_attention(q, params),
                           dense_self_attention(params, q), atol=1e-12)

    def test_single_row_attends_to_itself(self):
        rng = np.random.default_rng(11)
        dims = lt.ModelDims(c=8, n_heads=2)
        params = SelfAttentionParams.init(dims, rng)
        q = rng.normal(size=(1, 8))
        xv = q @ params.wv + params.bv
        r = xv @ params.wo + params.bo + q
        expected, _ = layer_norm_forward(r, params.ln_gain, params.ln_bias)
        assert np.allclose(lt.self_attention(q, params), expected, atol=1e-12)

    def test_identical_rows_get_identical_outputs(self):
        rng = np.random.default_rng(12)
        dims = lt.ModelDims(c=8, n_heads=2)
        params = SelfAttentionParams.init(dims, rng)
        q = np.tile(rng.normal(size=8), (4, 1))
        y = lt.self_attention(q, params)
        assert np.allclose(y, y[0], atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        dims = lt.ModelDims(c=8, n_heads=2)
        params = SelfAttentionParams.init(dims, rng)
        q = rng.normal(size=(6, 8))
        _, cache = self_attention_forward(params, q)
        a = cache[4]
        assert np.all(np.abs(a.sum(axis=-1) - 1.0) < 1e-9)


def biased_logit_oracle(params: CrossAttentionParams, q, qc, s):
    c = q.shape[1]
    xq = q @ params.wq + params.bq
    xk = qc @ params.wk + params.bk
    xv = qc @ params.wv + params.bv
    z = xq @ xk.T / np.sqrt(c)
    if s is not None:
        z = z + np.log(s)
    a = np.exp(z - z.max(axis=-1, keepdims=True))
    a = a / a.sum(axis=-1, keepdims=True)
    r = a @ xv + q
    mu = r.mean(axis=-1, keepdims=True)
    var = r.var(axis=-1, keepdims=True)
    return params.ln_gain * (r - mu) / np.sqrt(var + LN_EPS) + params.ln_bias


class TestMaskedCrossAttention:
    def make(self, seed, n=4, m=3, c=8):
        rng = np.random.default_rng(seed)
        params = CrossAttentionParams.init(lt.ModelDims(c=c, n_heads=2), rng)
        q = rng.normal(size=(n, c))
        qc = rng.normal(size=(m, c))
        d = np.abs(rng.normal(size=(n, m)))
        s = sigmoid_mask_forward(SigmoidMaskParams.init(c, rng), d)[0]
        return params, q, qc, s

    def test_matches_dense_oracle(self):
        params, q, qc, s = self.make(15)
        assert np.allclose(lt.masked_cross_attention(q, qc, s, params),
                           biased_logit_oracle(params, q, qc, s), atol=1e-12)

    @pytest.mark.parametrize("masked", [True, False])
    def test_bitwise_the_copying_oracle(self, masked):
        params, q, qc, s = self.make(22, n=5, m=4)
        s = s if masked else None
        got, want = (masked_cross_attention_forward(params, q, qc, s),
                     masked_cross_attention_copies(params, q, qc, s))
        assert same_bits(got, want)
        gy = np.random.default_rng(23).normal(size=q.shape)
        assert same_bits(masked_cross_attention_backward(params, got[1], gy),
                         masked_cross_attention_copies_backward(params, want[1], gy))

    def test_all_ones_mask_is_bitwise_no_mask(self):
        for seed in range(5):
            params, q, qc, _ = self.make(seed)
            ones = np.ones((q.shape[0], qc.shape[0]))
            y_masked = lt.masked_cross_attention(q, qc, ones, params)
            y_plain = lt.masked_cross_attention(q, qc, None, params)
            assert np.array_equal(y_masked, y_plain)

    def test_epsilon_column_suppression(self):
        # zero query projection makes all raw logits equal, so the softmax
        # row reduces to s / sum(s)
        params, q, qc, _ = self.make(16, n=2, m=3)
        params.wq[:] = 0.0
        params.bq[:] = 0.0
        s = np.array([[MASK_EPS, 1.0, 1.0], [1.0, 1.0, 1.0]])
        _, cache = masked_cross_attention_forward(params, q, qc, s)
        a = cache[6]
        assert a[0, 0] == pytest.approx(MASK_EPS / (MASK_EPS + 2.0), rel=1e-12)
        assert np.allclose(a[1], 1.0 / 3.0, atol=1e-12)

    def test_lowering_a_mask_entry_lowers_its_weight(self):
        params, q, qc, s = self.make(17)
        _, cache = masked_cross_attention_forward(params, q, qc, s)
        a = cache[6]
        s2 = s.copy()
        s2[0, 1] *= 0.25
        _, cache2 = masked_cross_attention_forward(params, q, qc, s2)
        a2 = cache2[6]
        assert a2[0, 1] < a[0, 1]
        # other rows never touched that entry
        assert np.allclose(a2[1:], a[1:], atol=1e-15)

    def test_attention_rows_sum_to_one(self):
        params, q, qc, s = self.make(18)
        _, cache = masked_cross_attention_forward(params, q, qc, s)
        assert np.all(np.abs(cache[6].sum(axis=-1) - 1.0) < 1e-9)

    def test_empty_context_raises(self):
        params, q, _, _ = self.make(19)
        with pytest.raises(ValueError, match="context row"):
            lt.masked_cross_attention(q, np.zeros((0, 8)), None, params)

    def test_width_mismatch_raises(self):
        params, q, _, _ = self.make(20)
        with pytest.raises(ValueError, match="widths differ"):
            lt.masked_cross_attention(q, np.zeros((2, 4)), None, params)

    def test_mask_shape_mismatch_raises(self):
        params, q, qc, _ = self.make(21)
        with pytest.raises(ValueError, match="mask shape"):
            lt.masked_cross_attention(q, qc, np.ones((1, 1)), params)
