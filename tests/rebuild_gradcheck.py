"""Gradient check against central differences of the *rebuilt* loss.

``autodiff.gradcheck`` perturbs a weight and re-runs ``forward`` over the
same graph, so every constant frozen into the graph at build time (an
activation mask, a detached g(x)) keeps its old value.  A term whose
backward treats such a constant as fixed, where the loss really depends on
the weights through it, passes that check.  Here the loss is built again
from a closure at every perturbed weight, so nothing frozen is reused.
"""

import numpy as np

from anchordt import autodiff as ad


def rebuild_gradcheck(build, arrays, step=1e-5):
    """Worst error between backward() and central differences of ``build``.

    ``build()`` returns a scalar loss node built from the current values of
    ``arrays`` (model weights and biases, read through parameter nodes that
    alias them).  The analytic gradient of an array sums the adjoints of
    every parameter node that aliases it, and is zero when none does.
    Errors are relative to max(|analytic|, |numeric|, 1), as in
    ``autodiff.GradcheckReport``.
    """
    root = build()
    ad.backward(root)
    params = [n for n in ad.topo_order(root) if n.kind == "parameter"]
    worst = 0.0
    for arr in arrays:
        analytic = sum((n.grad for n in params if n.value is arr), np.zeros_like(arr))
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = build().value[0, 0]
            arr[idx] = orig - step
            f_minus = build().value[0, 0]
            arr[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(analytic[idx]), abs(numeric), 1.0)
            worst = max(worst, abs(analytic[idx] - numeric) / denom)
    return worst
