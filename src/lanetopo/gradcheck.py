"""Finite-difference verification of the analytic backward passes.

Every checked backward pass is wrapped in one Op: named inputs, a parameter
tree, a cached forward and the backward itself, whose gradients follow the
convention of nn. variables() (live views of every input and parameter
array) and analytic_grads() name parameters by nn.param_arrays. grad_check
perturbs every entry of every variable with central differences of the
scalar loss sum(y**2) and reports the worst relative error against the
analytic gradient.

Seeded instances are screened so that no kink (a ReLU pre-activation, the
mask floor, the focal-loss clamp) sits within 1e-3 of the sampled point: a
central difference straddling a non-differentiable point measures nothing,
so such draws are re-seeded deterministically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .attention import (
    CrossAttentionParams,
    ModelDims,
    SelfAttentionParams,
    SigmoidMaskParams,
    masked_cross_attention_backward,
    masked_cross_attention_forward,
    self_attention_backward,
    self_attention_forward,
    sigmoid_mask_backward,
    sigmoid_mask_forward,
)
from .heads import TopologyHeadParams, pair_preacts, predict_ll_backward, predict_ll_cached
from .nn import MASK_EPS, MlpParams, mlp_backward, mlp_forward_cached, param_arrays
from .pipeline import TopologyStack
from .scene import checked
from .training import FOCAL_CLAMP, check_seed, focal_loss, focal_loss_grad

# the checked ops, in the order build_standard_ops returns them
OP_NAMES = ("mlp_forward", "sigmoid_mask", "self_attention", "masked_cross_attention",
            "predict_ll_backward", "focal_loss_grad", "topology_stack")


@dataclass
class Op:
    """One differentiable op under check.

    params is the parameter tree, None for none; forward_cached() returns
    (y, cache); backward(params, cache, gy) returns the gradients of inputs,
    in order, then of params; kink_margin(cache) is the distance from the
    sampled point to the nearest non-differentiable point.
    """

    name: str
    inputs: dict[str, np.ndarray]
    params: object
    forward_cached: Callable
    backward: Callable
    kink_margin: Callable = lambda cache: np.inf

    def variables(self) -> dict[str, np.ndarray]:
        return {**self.inputs, **param_arrays(self.params)}

    def forward(self) -> np.ndarray:
        y, self._cache = self.forward_cached()
        return y

    def analytic_grads(self, gy: np.ndarray) -> dict[str, np.ndarray]:
        *g_inputs, g_params = self.backward(self.params, self._cache, gy)
        return {**dict(zip(self.inputs, g_inputs)), **param_arrays(g_params)}

    def min_kink_margin(self) -> float:
        return self.kink_margin(self.forward_cached()[1])


def _relu_margin(*mlp_caches) -> float:
    """Smallest |pre-activation| feeding a ReLU in any of the MLP caches."""
    margins = [np.abs(z).min() for _, preacts in mlp_caches for z in preacts[:-1] if z.size]
    return float(min(margins)) if margins else np.inf


def _mask_margin(cache) -> float:
    """Kink margin of a sigmoid_mask_forward cache of one block (every
    checked D is): its MLP's ReLUs and the clip floor, which is a kink too."""
    _, sg, mlp_cache = cache
    floor = float(np.abs(sg - MASK_EPS).min()) if sg.size else np.inf
    return min(_relu_margin(mlp_cache), floor)


def _ll_margin(cache) -> float:
    """Kink margin of a predict_ll_cached cache with a matched branch."""
    m = cache.matched
    pair_margin = min(float(np.abs(z).min()) for _, z in pair_preacts(cache.za, cache.zb))
    return min(pair_margin, _relu_margin(cache.cache_u1, cache.cache_u2,
                                         m.cache_m1, m.cache_m2, m.cache_head))


def _ll_head(params: TopologyHeadParams) -> TopologyHeadParams:
    """params without the lane-traffic head, which the ll scores never read."""
    return replace(params, lt_lane=None, lt_traffic=None, lt_score=None)


@dataclass
class GradCheckResult:
    op: str
    max_rel_error: float
    n_entries: int
    skipped: bool = False
    note: str = ""


def grad_check(op, eps: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients with central differences, entry by entry.

    The scalar head is sum(y**2). Relative error uses a unit floor in the
    denominator so near-zero gradients compare absolutely.
    """
    variables = op.variables()
    n_entries = int(sum(v.size for v in variables.values()))
    if n_entries == 0:
        return GradCheckResult(op.name, 0.0, 0, skipped=True,
                               note="no parameters or inputs to perturb; skipped")

    y = op.forward()
    analytic = op.analytic_grads(2.0 * y)

    max_rel = 0.0
    for name, arr in variables.items():
        g = analytic[name]
        flat = arr.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = float(np.sum(op.forward() ** 2))
            flat[idx] = orig - eps
            lm = float(np.sum(op.forward() ** 2))
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            rel = abs(fd - gflat[idx]) / max(1.0, abs(fd), abs(gflat[idx]))
            if rel > max_rel:
                max_rel = rel
    op.forward()  # restore caches to the unperturbed state
    return GradCheckResult(op.name, max_rel, n_entries)


KINK_MARGIN = 1e-3


def _screened(build, seed: int, tries: int = 64):
    """Build the op for seed, re-seeding until it clears the kink margin."""
    for k in range(tries):
        op = build(np.random.default_rng(seed + 1000 * k))
        if op.min_kink_margin() > KINK_MARGIN:
            return op
    raise RuntimeError(f"no well-conditioned instance found from seed {seed}")


def build_standard_ops(seed: int) -> list[Op]:
    """One seeded instance of each checked op kind, at width 8 with 2 heads."""
    dims = ModelDims(c=8, n_heads=2)
    c = dims.c

    def mk_mlp(rng):
        params, x = MlpParams.init((c, c, 1), rng), rng.normal(size=(3, c))
        return Op("mlp_forward", {"x": x}, params, lambda: mlp_forward_cached(params, x),
                  mlp_backward, _relu_margin)

    def mk_mask(rng):
        params = SigmoidMaskParams.init(c, rng)
        d = np.abs(rng.normal(size=(3, 2))) * 2.0
        return Op("sigmoid_mask", {"d": d}, params, lambda: sigmoid_mask_forward(params, d),
                  sigmoid_mask_backward, _mask_margin)

    def mk_self(rng):
        params = SelfAttentionParams.init(dims, rng)
        q = rng.normal(size=(3, c))
        return Op("self_attention", {"q": q}, params,
                  lambda: self_attention_forward(params, q), self_attention_backward)

    def mk_cross(rng):
        params = CrossAttentionParams.init(dims, rng)
        q, qc = rng.normal(size=(3, c)), rng.normal(size=(2, c))
        s = rng.uniform(0.05, 1.0, size=(3, 2))
        return Op("masked_cross_attention", {"q": q, "qc": qc, "s": s}, params,
                  lambda: masked_cross_attention_forward(params, q, qc, s),
                  masked_cross_attention_backward)

    def mk_ll_head(rng):
        # three lanes, two connected-lane queries resolving to distinct
        # (i, j) pairs, so no duplicate-max choice can sit at a tie
        params = _ll_head(TopologyHeadParams.init(c, rng))
        q_hat, qc_hat = rng.normal(size=(3, c)), rng.normal(size=(2, c))
        pairs = np.array([[0, 1], [1, 2]])
        return Op("predict_ll_backward", {"q_hat": q_hat, "qc_hat": qc_hat}, params,
                  lambda: predict_ll_cached(params, q_hat, qc_hat, pairs),
                  predict_ll_backward, _ll_margin)

    def mk_focal(rng):
        pred = rng.uniform(0.05, 0.95, size=(3, 4))
        target = rng.integers(0, 2, size=(3, 4)).astype(float)

        def kink_margin(cache):
            # the clamp at [1e-7, 1 - 1e-7] is the only kink
            return float(np.minimum(pred - FOCAL_CLAMP, 1.0 - FOCAL_CLAMP - pred).min())

        return Op("focal_loss_grad", {"pred": pred}, None,
                  lambda: (focal_loss(pred, target, reduction="none"), None),
                  lambda _, cache, gy: (gy * focal_loss_grad(pred, target), None),
                  kink_margin)

    def mk_stack(rng):
        # the ll scores through the shared mask -> cross-attention -> ll head
        # forward and backward: three lanes, two connected lanes with
        # distinct (i, j) pairs, as in mk_ll_head
        stack = TopologyStack.init(dims, rng)
        stack.heads = _ll_head(stack.heads)
        q, qc = rng.normal(size=(3, c)), rng.normal(size=(2, c))
        d = np.abs(rng.normal(size=(3, 2))) * 2.0
        pairs = np.array([[0, 1], [1, 2]])
        return Op("topology_stack", {"q": q, "qc": qc, "d": d}, stack,
                  lambda: stack.forward(q, qc, d, pairs, True)[1:], TopologyStack.backward,
                  lambda cache: min(_mask_margin(cache.mask), _ll_margin(cache.ll)))

    builders = (mk_mlp, mk_mask, mk_self, mk_cross, mk_ll_head, mk_focal, mk_stack)
    return [_screened(build, seed + k) for k, build in enumerate(builders)]


# run_gradcheck's instance count and step, as the CLI checks them too
check_instances = functools.partial(checked, "instances", lo=1)
check_eps = functools.partial(checked, "eps", lo=0.0, above=True)


def run_gradcheck(seed: int = 0, instances: int = 20, eps: float = 1e-5,
                  corrupt: str | None = None) -> list[GradCheckResult]:
    """Run grad_check over seeded instances of every op kind.

    corrupt names an op whose analytic gradients get a deliberate offset;
    it exists so the failure path of the harness can be exercised.
    """
    check_seed(seed)
    check_instances(instances)
    check_eps(eps)
    if corrupt is not None and corrupt not in OP_NAMES:
        raise ValueError(f"no checked op named {corrupt!r}; ops: {', '.join(OP_NAMES)}")
    results = []
    for k in range(instances):
        for op in build_standard_ops(seed + 10_000 * k):
            if corrupt == op.name:
                _corrupt_op(op)
            results.append(grad_check(op, eps=eps))
    return results


def _corrupt_op(op) -> None:
    real = op.analytic_grads

    def broken(gy):
        grads = real(gy)
        first = next(iter(grads))
        grads[first] = grads[first] + 1.0
        return grads

    op.analytic_grads = broken
