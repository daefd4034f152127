"""Dense numeric primitives with hand-written backward passes.

All parameters are float64 numpy arrays initialised from a seeded generator
with the uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] convention. A *_cached
forward also returns the intermediates its matching backward function needs.

Every backward returns its input gradients in input order, then its
parameter gradient in the parameters' own type (mlp_backward an MlpParams,
TopologyStack.backward a TopologyStack), None in the parts it does not
reach. param_arrays alone names a parameter or gradient tree; descend
updates a tree from its gradient and names nothing.

sigmoid is 1 / (1 + exp(-x)) in float64 numpy, so the prediction path never
imports scipy. It matches scipy.special.expit to within 4 ulp and 2.3e-16
absolute, not bitwise: numpy's vectorised exp and the libm exp that expit
calls round differently in the last place on about 2% of inputs, and
1 + exp(-x) itself rounds once exp(-x) passes 2**53 (x near -37), where the
difference peaks at 4 ulp. A bitwise
match would need a per-element math.exp loop, over ten times slower on a
169 x 169 score matrix. Outputs are written rounded to 9 significant
digits, and the pinned predict and eval corpora keep the bytes they had
with expit.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass

import numpy as np

LN_EPS = 1e-5
MASK_EPS = 1e-6


@np.errstate(over="ignore")
def sigmoid(x) -> np.ndarray:
    """Logistic function over float64: exactly 0.5 at 0, 0 at -inf, 1 at +inf.

    exp(-x) overflows to inf for x below about -709.78, which gives exactly
    0.0; that overflow is expected and raises no warning. The decorator form
    of errstate is thread-safe and costs about half the with-block's time
    per call, which matters at three calls per toy_fit step.
    """
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class MlpParams:
    """Weights/biases for a stack of affine layers with ReLU between them.

    widths (d0, d1, ..., dk) gives k layers; the last layer has no
    activation. A single pair of widths is just an affine map, and an empty
    layer list is the identity.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, widths: tuple[int, ...], rng: np.random.Generator) -> "MlpParams":
        ws, bs = [], []
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            ws.append(uniform_init(rng, (d_in, d_out), d_in))
            bs.append(uniform_init(rng, (d_out,), d_in))
        return cls(weights=ws, biases=bs)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def mlp_forward(params: MlpParams, x: np.ndarray, out: list | None = None) -> np.ndarray:
    """mlp_forward_cached's output, each layer's bias and ReLU applied in
    place on its own product and nothing kept for a backward. out, if
    given, holds one array per layer, with x's leading axes and at least as
    many rows, whose first rows take that layer's output instead of a new
    array. x may carry a leading batch axis: each of its (rows, width)
    matrices is multiplied on its own, bit for bit as its 2-D call."""
    h = x
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w if out is None else np.matmul(h, w, out=out[l][..., :x.shape[-2], :])
        h += b
        if l != last:
            np.maximum(h, 0.0, out=h)
    return h


def mlp_forward_cached(params: MlpParams, x: np.ndarray):
    """Forward pass keeping layer inputs and pre-activations for backward."""
    h = x
    inputs, preacts = [], []
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        z = h @ w
        z += b
        preacts.append(z)
        h = np.maximum(z, 0.0) if l != last else z
    return h, (inputs, preacts)


def mlp_backward(params: MlpParams, cache, gy: np.ndarray):
    """Gradients of a scalar loss wrt the MLP input and all parameters.

    Returns (gx, grads), grads an MlpParams. ReLU uses the z > 0 subgradient.
    """
    inputs, preacts = cache
    last = params.n_layers - 1
    g = gy
    gws, gbs = [None] * (last + 1), [None] * (last + 1)
    for l in range(last, -1, -1):
        if l != last:
            g *= preacts[l] > 0.0  # g is the layer above's own product
        h, g2 = inputs[l], g
        if g.ndim != 2:
            h, g2 = h.reshape(-1, h.shape[-1]), g.reshape(-1, g.shape[-1])
        gws[l] = h.T @ g2
        gbs[l] = g2.sum(axis=0)
        g = g @ params.weights[l].T
    return g, MlpParams(weights=gws, biases=gbs)


def add_mlp_grads(total: MlpParams | None, grads: MlpParams) -> MlpParams:
    """Layerwise sum of two mlp_backward gradients; total may be None."""
    if total is None:
        return grads
    return MlpParams(weights=[a + b for a, b in zip(total.weights, grads.weights)],
                     biases=[a + b for a, b in zip(total.biases, grads.biases)])


def param_arrays(params, prefix: str = "") -> dict[str, np.ndarray]:
    """The live arrays of a parameter tree, or of its gradient, by dotted name.

    Dataclass fields are walked in declaration order (__dataclass_fields__,
    which, unlike dataclasses.fields, builds no tuple per call); MlpParams
    layers are named w0, b0, w1, b1, ...; None parts and non-array fields
    (a head count) are skipped, and a None tree has no arrays.
    """
    if params is None:
        return {}
    if isinstance(params, MlpParams):
        return {f"{prefix}{kind}{l}": a
                for l, pair in enumerate(zip(params.weights, params.biases))
                for kind, a in zip("wb", pair)}
    out = {}
    for name in params.__dataclass_fields__:
        part = getattr(params, name)
        if isinstance(part, np.ndarray):
            out[prefix + name] = part
        elif is_dataclass(part):
            out.update(param_arrays(part, f"{prefix}{name}."))
    return out


def descend(params, grads, lr: float) -> None:
    """params -= lr * grads in place, over every array grads holds; it names
    nothing, so a training loop can call it every step."""
    if isinstance(grads, MlpParams):
        for p, g in zip(params.weights + params.biases, grads.weights + grads.biases):
            p -= lr * g
        return
    for name, g in vars(grads).items():
        if isinstance(g, np.ndarray):
            p = getattr(params, name)
            p -= lr * g
        elif g is not None and not isinstance(g, int):  # a sub-tree, not a head count
            descend(getattr(params, name), g, lr)


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Row-wise layer norm with learnable affine. eps sits inside the sqrt.

    The mean and the variance are last-axis sums divided by c, the
    arithmetic of np.mean and np.var, with x - mean taken once.
    """
    c = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / c
    var = np.square(xc).sum(axis=-1, keepdims=True) / c
    var += LN_EPS
    inv = 1.0 / np.sqrt(var, out=var)
    xhat = xc * inv
    y = gain * xhat
    y += bias
    return y, (xhat, inv)


def layer_norm_backward(cache, gain: np.ndarray, gy: np.ndarray):
    xhat, inv = cache
    c = xhat.shape[-1]
    g_gain = (gy * xhat).reshape(-1, c).sum(axis=0)
    g_bias = gy.reshape(-1, c).sum(axis=0)
    gxhat = gy * gain
    gx = gxhat - gxhat.sum(axis=-1, keepdims=True) / c
    gx -= xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) / c)
    gx *= inv
    return gx, g_gain, g_bias


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: exp(z - row max) / its row sum, with one
    new array for the three steps. A row of no entries gives no entries."""
    e = z - z.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(s: np.ndarray, gs: np.ndarray) -> np.ndarray:
    g = gs - (gs * s).sum(axis=-1, keepdims=True)
    g *= s
    return g
