"""A network's pre-activations by a plain numpy pass of its own, and a
Jacobian by central differences.

The reference the Jacobian masks and the kink checks of the tests are
taken from: it shares no code with ``nets``' forward passes or with
``sparsity``'s Jacobian sweeps.
"""

import numpy as np

from anchordt import autodiff as ad
from anchordt import nets


def preactivations(model: nets.MlpModel, x) -> list[np.ndarray]:
    """W h + b of every layer for a (D, N) column batch (or one point)."""
    h = np.asarray(x, dtype=np.float64)
    h = h.reshape(-1, 1) if h.ndim == 1 else h
    out = []
    for w, b in zip(model.weights, model.biases):
        a = w @ h + b
        out.append(a)
        h = np.where(a >= 0, a, nets.HIDDEN_SLOPE * a)
    return out


def jacobian_sweep(weight_nodes, model: nets.MlpModel, x) -> ad.Node:
    """``sparsity.jacobian_graph`` of the pass over the (D, N) batch x, from
    the primitive ops: column k N + n is J(x_n) e_k, the directions carried
    through ``weight_nodes`` with np.where derivatives of ``preactivations``.
    """
    d, n = x.shape
    v = ad.input_node(np.kron(np.eye(d), np.ones((1, n))))
    for i, (w_node, a) in enumerate(zip(weight_nodes, preactivations(model, x))):
        v = ad.matmul(w_node, v)
        if i < len(weight_nodes) - 1:
            deriv = np.tile(np.where(a >= 0, 1.0, nets.HIDDEN_SLOPE), (1, d))
            v = ad.elementwise_mul(v, ad.input_node(deriv))
    return v


def central_difference_jacobian(model, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a square map at one point x.

    Column d is (g(x + step*e_d) - g(x - step*e_d)) / (2*step).  ``model``
    is an MlpModel or any callable taking and returning (D, N) column
    batches.
    """
    if isinstance(model, nets.MlpModel):
        if model.input_dim != model.output_dim:
            raise ValueError(
                f"map must be square, got {model.input_dim} -> {model.output_dim}")
        fn = model.apply
    else:
        fn = model
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    d = x.shape[0]
    # One batched forward over the 2D perturbed points.
    pts = np.repeat(x, 2 * d, axis=1)
    for k in range(d):
        pts[k, k] += step
        pts[k, d + k] -= step
    out = np.asarray(fn(pts))
    if out.shape != pts.shape:
        raise ValueError(f"map must be square, got output shape {out.shape} "
                         f"for input shape {pts.shape}")
    return (out[:, :d] - out[:, d:]) / (2.0 * step)
