"""A network's pre-activations by a plain numpy pass of its own.

The reference the Jacobian masks and the kink checks of the tests are
taken from: it shares no code with ``nets``' forward passes.
"""

import numpy as np

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
