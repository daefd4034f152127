"""Training machinery: focal loss, Hungarian assignment, and a toy fit loop.

toy_fit supervises the lane-lane topology scores with a focal loss, on
run_pipeline's parameters and query path, so predict runs the stack it fits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import ModelDims
from .connect import connected_curves
from .nn import descend
from .pipeline import PipelineConfig, TopologyStack, init_pipeline_params, queries
from .scene import Scene, checked

FOCAL_CLAMP = 1e-7

# toy_fit's arguments (seed: run_gradcheck's too), as the CLI checks them; lr 0 freezes the fit
check_steps = functools.partial(checked, "steps", lo=1)
check_lr = functools.partial(checked, "lr", lo=0.0)
check_seed = functools.partial(checked, "seed", lo=0)


def focal_loss(pred, target, alpha: float = 0.25, gamma: float = 2.0,
               reduction: str = "mean"):
    """Binary focal loss, its mean or, with reduction "none", per entry.
    Predictions are clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(np.asarray(pred, dtype=np.float64), FOCAL_CLAMP, 1.0 - FOCAL_CLAMP)
    t = np.asarray(target, dtype=np.float64)
    p_t = np.where(t == 1.0, p, 1.0 - p)
    a_t = np.where(t == 1.0, alpha, 1.0 - alpha)
    loss = -a_t * (1.0 - p_t) ** gamma * np.log(p_t)
    if reduction == "mean":
        return float(loss.mean()) if loss.size else 0.0
    return loss


def focal_loss_grad(pred, target, alpha: float = 0.25, gamma: float = 2.0):
    """Elementwise d(focal)/d(pred). Zero where the clamp is active."""
    raw = np.asarray(pred, dtype=np.float64)
    p = np.clip(raw, FOCAL_CLAMP, 1.0 - FOCAL_CLAMP)
    t = np.asarray(target, dtype=np.float64)
    pos = t == 1.0
    one_m_p = 1.0 - p
    g_pos = alpha * (gamma * one_m_p ** (gamma - 1.0) * np.log(p) - one_m_p ** gamma / p)
    g_neg = (1.0 - alpha) * (p ** gamma / one_m_p - gamma * p ** (gamma - 1.0) * np.log(one_m_p))
    g = np.where(pos, g_pos, g_neg)
    inside = (raw > FOCAL_CLAMP) & (raw < 1.0 - FOCAL_CLAMP)
    return g * inside


def hungarian(cost) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs, sorted by row.

    Rectangular matrices go to scipy's solver as they are; it assigns every
    row of the shorter side. scipy.optimize is imported here, on the first
    call, rather than with the module: no CLI command assigns, and the
    import alone costs about 0.2 s of process start-up.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2D, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return sorted((int(r), int(c)) for r, c in zip(rows, cols))


class FitDiverged(ValueError):
    """toy_fit's loss left the finite numbers: lr is too large for the scene."""


@dataclass
class FitResult:
    losses: list[float]
    stack: TopologyStack
    final_scores: np.ndarray
    target: np.ndarray


def toy_fit(scene: Scene, steps: int = 500, lr: float = 0.05, seed: int = 0,
            dims: ModelDims = ModelDims(c=16, n_heads=4)) -> FitResult:
    """Fit the mask, cross-attention, and topology-head parameters to one scene.

    Plain gradient descent against the ground-truth lane-lane adjacency with
    a focal loss over the off-diagonal score entries, through the forward
    and backward of the stack of init_pipeline_params at param_seed = seed,
    on the queries pipeline.queries builds once from the ground truth (with
    lr = 0 the scores are run_pipeline's off the diagonal). A loss that is
    not finite raises FitDiverged, naming lr and the step, before any later
    step runs.
    """
    check_seed(seed)
    check_steps(steps)
    check_lr(lr)
    C = connected_curves(scene)
    n = len(scene.lanes)
    target = scene.topo.ll.copy()
    off_diag = ~np.eye(n, dtype=bool)
    n_terms = int(off_diag.sum())
    if n_terms == 0:
        raise ValueError("scene has no off-diagonal lane pairs to supervise")

    params = init_pipeline_params(PipelineConfig(dims=dims, param_seed=seed), scene.n_points)
    stack = params.stack
    q, qc, d, pairs = queries(params, scene.lane_stack(), C)

    losses: list[float] = []
    target_off = target[off_diag]
    g_scores = np.zeros((n, n))
    # a diverging step overflows; its loss, checked below, says so once
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            _, scores, cache = stack.forward(q, qc, d, pairs, use_tam=True)
            scores_off = scores[off_diag]
            losses.append(focal_loss(scores_off, target_off))
            if not math.isfinite(losses[-1]):
                raise FitDiverged(f"lr {lr:g} diverges: loss {losses[-1]} at step {step}")
            g_scores[off_diag] = focal_loss_grad(scores_off, target_off) / n_terms
            _, _, _, grads = stack.backward(cache, g_scores)
            descend(stack, grads, lr)

    return FitResult(losses=losses, stack=stack, final_scores=scores, target=target)
