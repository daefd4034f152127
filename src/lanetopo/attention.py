"""Attention blocks for lane and connected-lane queries.

Two blocks live here, both pure numpy with analytic backward passes:

* self_attention: multi-head self-attention inside one query group, its
  queries, keys and values all taken from the group's own rows (there is
  no per-slot positional term, so permuting the rows permutes the output),
  a residual connection, and a layer norm.
* masked_cross_attention: single-head cross-attention from lane queries to
  connected-lane queries whose logits are biased by log(S), where S is a
  sigmoid mask derived from the geometric correlation matrix.

The mask path (sigmoid_mask_forward) is an elementwise MLP + sigmoid with a
numeric floor so the log never sees 0. The MLP runs over blocks of D's
entries, so its hidden layer is never held for more than one block: a D of
one block keeps it for the backward, a larger D keeps only D and the
backward rebuilds each block's. One parameter set serves every layer that
needs the mask; callers share the instance.

Every forward also takes its arrays with a leading batch axis, one scene
per entry, all of one shape. Products stay batched (B, rows, cols) matmuls
and blocks run along each scene's own rows, so each scene's result is bit
for bit its 2-D call: rows of different scenes are never stacked into one
product, whose one-row and one-column cases round differently. The
backwards take the 2-D arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (
    MASK_EPS,
    MlpParams,
    add_mlp_grads,
    layer_norm_backward,
    layer_norm_forward,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    sigmoid,
    softmax_backward,
    softmax_rows,
    uniform_init,
)
from .scene import bounded, check_fields


@dataclass(frozen=True)
class ModelDims:
    """Feature width and head count used across the query stack."""

    # at most 512: a lane encoder is 49 MB at scene.MAX_POINTS points per lane
    c: int = bounded(32, lo=1, hi=512)
    n_heads: int = bounded(4, lo=1)

    def __post_init__(self):
        check_fields(self)
        if self.c % self.n_heads != 0:
            raise ValueError(f"width {self.c} not divisible by {self.n_heads} heads")


@dataclass
class SelfAttentionParams:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    n_heads: int

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "SelfAttentionParams":
        c = dims.c
        mk = lambda: uniform_init(rng, (c, c), c)
        mb = lambda: uniform_init(rng, (c,), c)
        return cls(
            wq=mk(), bq=mb(), wk=mk(), bk=mb(), wv=mk(), bv=mb(), wo=mk(), bo=mb(),
            ln_gain=np.ones(c), ln_bias=np.zeros(c), n_heads=dims.n_heads,
        )


def _split_heads(x: np.ndarray, h: int) -> np.ndarray:
    """(..., n, c) -> (..., h, n, c / h)."""
    *lead, n, c = x.shape
    return x.reshape(*lead, n, h, c // h).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def self_attention_forward(params: SelfAttentionParams, q: np.ndarray):
    """LN(MultiHeadAttn(q as queries, keys and values) + q), with cache;
    q is (n, c) or a batch (B, n, c)."""
    h = params.n_heads
    qh = _split_heads(q @ params.wq + params.bq, h)
    kh = _split_heads(q @ params.wk + params.bk, h)
    vh = _split_heads(q @ params.wv + params.bv, h)
    a = softmax_rows(qh @ kh.swapaxes(-1, -2) / np.sqrt(qh.shape[-1]))
    ctx = _merge_heads(a @ vh)
    y, ln_cache = layer_norm_forward(ctx @ params.wo + params.bo + q,
                                     params.ln_gain, params.ln_bias)
    return y, (q, qh, kh, vh, a, ctx, ln_cache)


def self_attention_backward(params: SelfAttentionParams, cache, gy: np.ndarray):
    """(gq, grads): gradients wrt q and the parameters (a SelfAttentionParams)."""
    q, qh, kh, vh, a, ctx, ln_cache = cache
    scale = np.sqrt(qh.shape[-1])
    gr, g_gain, g_bias = layer_norm_backward(ln_cache, params.ln_gain, gy)
    gch = _split_heads(gr @ params.wo.T, params.n_heads)
    gz = softmax_backward(a, gch @ vh.transpose(0, 2, 1))
    gxq = _merge_heads(gz @ kh / scale)
    gxk = _merge_heads(gz.transpose(0, 2, 1) @ qh / scale)
    gxv = _merge_heads(a.transpose(0, 2, 1) @ gch)
    # the residual branch plus the three projections of q
    gq = gr + (gxq @ params.wq.T + gxk @ params.wk.T + gxv @ params.wv.T)
    grads = SelfAttentionParams(
        wq=q.T @ gxq, bq=gxq.sum(axis=0), wk=q.T @ gxk, bk=gxk.sum(axis=0),
        wv=q.T @ gxv, bv=gxv.sum(axis=0), wo=ctx.T @ gr, bo=gr.sum(axis=0),
        ln_gain=g_gain, ln_bias=g_bias, n_heads=params.n_heads,
    )
    return gq, grads


def self_attention(q: np.ndarray, params: SelfAttentionParams) -> np.ndarray:
    y, _ = self_attention_forward(params, q)
    return y


@dataclass
class SigmoidMaskParams:
    """Shared elementwise MLP mapping a correlation distance to a mask value."""

    mlp: MlpParams

    @classmethod
    def init(cls, hidden: int, rng: np.random.Generator) -> "SigmoidMaskParams":
        return cls(mlp=MlpParams.init((1, hidden, 1), rng))


# Entries per block of the mask MLP: its (entries, c) hidden layer stays at
# 512 KB at c = 32 whatever the size of D. Measured on 169 x 161 / 823 x 807
# entries (2 vCPU, numpy 2.4.6): 4.1-4.7 / 107-116 ms at 1024 and 2048,
# 5.1 / 115-128 ms at 4096 and 8192, 8.5 / 263 ms in one block.
MASK_BLOCK = 2048


def sigmoid_mask_forward(params: SigmoidMaskParams, d: np.ndarray):
    """S = clip(sigmoid(MLP(D)), MASK_EPS, 1), applied entrywise, with cache.

    d is (n, m), or (B, n, m) for a batch, whose blocks run along each
    scene's own entries. The MLP runs on blocks of MASK_BLOCK entries;
    every entry gets the arithmetic of the one-shot pass, so S is bitwise
    the same, except in a last block of one entry, whose numpy
    matrix-vector product may round the last place differently. A D of one
    block keeps that block's MLP
    cache, at most MASK_BLOCK x c per layer, so the backward does not
    rebuild it; a larger D keeps D itself, not the hidden layer, and its
    blocks write into one logits array through one buffer per hidden layer.
    """
    mlp = params.mlp
    lead = d.shape[:-2]
    # each scene's entries form its own column: a batch is (B, entries, 1)
    flat = d.reshape(*lead, -1, 1)
    n = flat.shape[-2]
    mlp_cache = None
    if n <= MASK_BLOCK or not mlp.weights:  # one block, or the identity
        logits, mlp_cache = mlp_forward_cached(mlp, flat)
    else:
        logits = np.empty(flat.shape)
        hidden = [np.empty((*lead, MASK_BLOCK, w.shape[1])) for w in mlp.weights[:-1]]
        for s in range(0, n, MASK_BLOCK):
            mlp_forward(mlp, flat[..., s:s + MASK_BLOCK, :],
                        out=[*hidden, logits[..., s:, :]])
    sg = sigmoid(logits)
    s = np.clip(sg, MASK_EPS, 1.0).reshape(d.shape)
    return s, (d, sg, mlp_cache)


def sigmoid_mask_backward(params: SigmoidMaskParams, cache, gs: np.ndarray):
    d, sg, mlp_cache = cache
    # the clip floor zeroes the gradient below MASK_EPS; the ceiling at 1 is
    # never strictly binding because sigmoid saturates with zero slope anyway
    g_logits = gs.reshape(-1, 1) * sg * (1.0 - sg) * (sg >= MASK_EPS)
    if mlp_cache is not None:
        gd, mlp_grads = mlp_backward(params.mlp, mlp_cache, g_logits)
        return gd.reshape(d.shape), SigmoidMaskParams(mlp=mlp_grads)
    flat = d.reshape(-1, 1)
    gd = np.empty(flat.shape)
    mlp_grads = None
    for s in range(0, len(flat), MASK_BLOCK):
        rows = slice(s, s + MASK_BLOCK)
        # each block's hidden layer is rebuilt from D
        _, block_cache = mlp_forward_cached(params.mlp, flat[rows])
        gd[rows], grads = mlp_backward(params.mlp, block_cache, g_logits[rows])
        mlp_grads = add_mlp_grads(mlp_grads, grads)
    return gd.reshape(d.shape), SigmoidMaskParams(mlp=mlp_grads)


@dataclass
class CrossAttentionParams:
    """Single-head masked cross-attention: projections plus the output layer norm."""

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator) -> "CrossAttentionParams":
        c = dims.c
        mk = lambda: uniform_init(rng, (c, c), c)
        mb = lambda: uniform_init(rng, (c,), c)
        return cls(
            wq=mk(), bq=mb(), wk=mk(), bk=mb(), wv=mk(), bv=mb(),
            ln_gain=np.ones(c), ln_bias=np.zeros(c),
        )


def masked_cross_attention_forward(
    params: CrossAttentionParams,
    q: np.ndarray,
    qc: np.ndarray,
    s: np.ndarray | None,
):
    """LN(softmax(f_q(q) f_k(qc)^T / sqrt(C) + log S) f_v(qc) + q), with cache.

    s=None runs the unmasked block: no bias term is added at all, so an
    all-ones mask and no mask produce bitwise identical outputs (log 1 == 0).
    """
    c = q.shape[-1]
    if qc.ndim != q.ndim or qc.shape[-2] == 0:
        raise ValueError(f"cross-attention needs at least one context row, got {qc.shape}")
    if qc.shape[-1] != c:
        raise ValueError(f"feature widths differ: {q.shape} vs {qc.shape}")
    if s is not None and s.shape != (*q.shape[:-1], qc.shape[-2]):
        raise ValueError(f"mask shape {s.shape} != {(*q.shape[:-1], qc.shape[-2])}")
    xq = q @ params.wq + params.bq
    xk = qc @ params.wk + params.bk
    xv = qc @ params.wv + params.bv
    z = xq @ xk.mT / np.sqrt(c)
    if s is not None:
        z += np.log(s)
    a = softmax_rows(z)
    r = a @ xv
    r += q
    y, ln_cache = layer_norm_forward(r, params.ln_gain, params.ln_bias)
    cache = (q, qc, s, xq, xk, xv, a, ln_cache)
    return y, cache


def masked_cross_attention_backward(params: CrossAttentionParams, cache, gy: np.ndarray):
    """Gradients wrt q, qc, the mask s, and the parameters (a CrossAttentionParams)."""
    q, qc, s, xq, xk, xv, a, ln_cache = cache
    c = q.shape[1]

    gr, g_gain, g_bias = layer_norm_backward(ln_cache, params.ln_gain, gy)
    g_ctx = gr

    ga = g_ctx @ xv.T
    gxv = a.T @ g_ctx
    gz = softmax_backward(a, ga)
    gs = gz / s if s is not None else None

    gxq = gz @ xk / np.sqrt(c)
    gxk = gz.T @ xq / np.sqrt(c)

    g_wq, g_bq = q.T @ gxq, gxq.sum(axis=0)
    g_wk, g_bk = qc.T @ gxk, gxk.sum(axis=0)
    g_wv, g_bv = qc.T @ gxv, gxv.sum(axis=0)

    gq = gr + gxq @ params.wq.T  # the residual branch and the query projection
    gqc = gxk @ params.wk.T + gxv @ params.wv.T

    grads = CrossAttentionParams(wq=g_wq, bq=g_bq, wk=g_wk, bk=g_bk, wv=g_wv, bv=g_bv,
                                 ln_gain=g_gain, ln_bias=g_bias)
    return gq, gqc, gs, grads


def masked_cross_attention(
    q: np.ndarray,
    qc: np.ndarray,
    s: np.ndarray | None,
    params: CrossAttentionParams,
) -> np.ndarray:
    y, _ = masked_cross_attention_forward(params, q, qc, s)
    return y
