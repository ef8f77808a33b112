"""A network's pre-activations by a plain numpy pass of its own.

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
