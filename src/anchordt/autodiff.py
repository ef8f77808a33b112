"""Define-by-run reverse-mode differentiation over dense float64 matrices.

Every value in a graph is a 2-D row-major float64 array.  Graphs are built
eagerly: each op computes its value once, on construction, and a graph is
never re-evaluated; a value at other leaf values is a new graph.  The ops
are matmul, add, subtract, scale, elementwise-mul, log, square, clip,
abs-sum, sum, mean, softplus, and dense, one network layer
``act(W @ h + b)`` as a single node, where act is identity or leaky-relu
with a slope in [0, 1]: the two activations of ``anchordt.nets``.  Their
derivative is exactly 1 or the slope, so a dense node's value is the
pre-activation times the derivative, and it keeps that derivative in its
meta, where backward and the Jacobian masks of ``anchordt.nets`` read it.
softplus(a) = log(1 + e^a) is the GAN losses' one nonlinearity on the
discriminator's logits.  leaky-relu, tanh and sigmoid are ops of their
own as well, and clip and log ops too; no runtime code builds any of
them, and they stay only as names the benchmark traces.

Convention used throughout the package: samples are columns, so a batch of
N points in R^D is a (D, N) matrix and a linear layer is ``W @ x + b`` with
``b`` a (D, 1) column broadcast across the batch.
"""

from __future__ import annotations

import numpy as np


class GraphError(ValueError):
    """Malformed graph construction or use (shape mismatch, bad op, ...)."""


def _as_matrix(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise GraphError(f"{what}: expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise GraphError(f"{what}: non-finite entries")
    return arr


class Node:
    """One vertex of the computation graph.

    ``kind`` is the op name, ``parents`` the input nodes, ``value`` the
    (rows, cols) float64 result, ``grad`` the accumulated adjoint of the
    same shape (populated by :func:`backward`), and ``meta`` carries the
    op's constants (scale factor, slope, clip bounds; a dense node's
    :class:`DenseMeta`).
    """

    __slots__ = ("kind", "parents", "value", "grad", "meta")

    def __init__(self, kind, parents, value, meta=None):
        self.kind = kind
        self.parents = parents
        self.value = value
        self.grad = None
        self.meta = meta

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.kind}, shape={self.value.shape})"


def input_node(value, what: str = "input") -> Node:
    """Constant leaf: participates in forward, receives but never owns grads."""
    return Node("input", (), _as_matrix(value, what))


def parameter(value, what: str = "parameter") -> Node:
    """Trainable leaf; shares storage with the caller's array (no copy)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise GraphError(f"{what}: parameters must be matrices")
    if not np.isfinite(arr).all():
        raise GraphError(f"{what}: non-finite entries")
    return Node("parameter", (), arr)


# ---------------------------------------------------------------------------
# op table: kind -> (compute(parent_values, meta) -> value,
#                    backprop(node, wanted) -> one adjoint contribution per
#                    parent, None where ``wanted`` is False)
# backward calls backprop only for a node some parent of which is wanted, so
# the one-parent ops ignore ``wanted``.
# ---------------------------------------------------------------------------

def _sigmoid(x):
    # Branch on sign for overflow safety at large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _leaky(x, slope):
    if 0.0 <= slope <= 1.0:
        return np.maximum(x, slope * x)
    return np.where(x >= 0, x, slope * x)


# Activation table: name -> (value(a, slope), vjp(g, a, value, slope)), where
# a is the pre-activation, value its activation and g the output adjoint.  The
# one-input activation ops read it, and dense and sparsity.activation_masks
# read the identity and leaky-relu vjps at g = 1.  Only tanh, sigmoid and
# softplus read ``value``: softplus' derivative is
# sigmoid(a) = -expm1(-softplus(a)).  Only identity and leaky-relu read ``a``.
# The leaky tie at exactly 0 resolves to slope 1.  The leaky vjp is
# arithmetic, not np.where, which mispredicts on random signs; (1 - s) + s
# rounds to exactly 1 for s in [0, 1], so both forms give the same bits.
ACTIVATIONS = {
    "identity": (lambda a, s: a, lambda g, a, v, s: np.full_like(a, g)),
    "leaky-relu": (_leaky, lambda g, a, v, s: g * ((a >= 0) * (1.0 - s) + s)),
    "tanh": (lambda a, s: np.tanh(a), lambda g, a, v, s: g * (1.0 - v ** 2)),
    "sigmoid": (lambda a, s: _sigmoid(a), lambda g, a, v, s: g * v * (1.0 - v)),
    "softplus": (lambda a, s: np.logaddexp(0.0, a), lambda g, a, v, s: -g * np.expm1(-v)),
}


def _compute_matmul(vals, meta):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul: inner dims disagree {a.shape} @ {b.shape}")
    return a @ b


def _grad_matmul(node, wanted):
    a, b = node.parents
    return (node.grad @ b.value.T if wanted[0] else None,
            a.value.T @ node.grad if wanted[1] else None)


def _compute_add(vals, meta):
    a, b = vals
    if a.shape == b.shape:
        return a + b
    if b.shape == (a.shape[0], 1):
        return a + b
    raise GraphError(f"add: shapes {a.shape} + {b.shape} (only equal or column broadcast)")


def _grad_add(node, wanted):
    a, b = node.parents
    gb = node.grad
    if wanted[1] and b.value.shape != node.grad.shape:
        gb = node.grad.sum(axis=1, keepdims=True)
    return (node.grad if wanted[0] else None, gb if wanted[1] else None)


def _compute_subtract(vals, meta):
    a, b = vals
    if a.shape != b.shape:
        raise GraphError(f"subtract: shapes {a.shape} - {b.shape}")
    return a - b


def _grad_subtract(node, wanted):
    return (node.grad if wanted[0] else None, -node.grad if wanted[1] else None)


def _compute_scale(vals, meta):
    return meta * vals[0]


def _grad_scale(node, wanted):
    return (node.meta * node.grad,)


def _compute_elementwise_mul(vals, meta):
    a, b = vals
    if a.shape != b.shape:
        raise GraphError(f"elementwise-mul: shapes {a.shape} * {b.shape}")
    return a * b


def _grad_elementwise_mul(node, wanted):
    a, b = node.parents
    return (node.grad * b.value if wanted[0] else None,
            node.grad * a.value if wanted[1] else None)


def _compute_log(vals, meta):
    x = vals[0]
    if np.any(x <= 0):
        raise GraphError("log: non-positive input")
    return np.log(x)


def _grad_log(node, wanted):
    return (node.grad / node.parents[0].value,)


def _compute_square(vals, meta):
    return vals[0] ** 2


def _grad_square(node, wanted):
    return (node.grad * 2.0 * node.parents[0].value,)


def _compute_clip(vals, meta):
    lo, hi = meta
    return np.clip(vals[0], lo, hi)


def _grad_clip(node, wanted):
    # Zero gradient where the value saturated.  No runtime code calls clip or
    # log since the GAN losses moved to softplus on logits; the benchmark
    # traces both by name, so they go with the next change to it.
    lo, hi = node.meta
    x = node.parents[0].value
    inside = (x > lo) & (x < hi)
    return (node.grad * inside,)


def _compute_abs_sum(vals, meta):
    return np.abs(vals[0]).sum().reshape(1, 1)


def _grad_abs_sum(node, wanted):
    # Subgradient 0 at exact zeros (np.sign convention); valid a.e.
    return (node.grad[0, 0] * np.sign(node.parents[0].value),)


def _compute_sum(vals, meta):
    return vals[0].sum().reshape(1, 1)


def _grad_sum(node, wanted):
    return (np.full_like(node.parents[0].value, node.grad[0, 0]),)


def _compute_mean(vals, meta):
    return vals[0].mean().reshape(1, 1)


def _grad_mean(node, wanted):
    p = node.parents[0].value
    return (np.full_like(p, node.grad[0, 0] / p.size),)


class DenseMeta:
    """A dense node's activation and slope, and ``deriv``: the activation
    derivative (its vjp at g = 1) at the node's pre-activation."""

    __slots__ = ("activation", "slope", "deriv")

    def __init__(self, activation: str, slope: float):
        self.activation = activation
        self.slope = slope
        self.deriv = None


def _compute_dense(vals, meta):
    w, h, b = vals
    if w.shape[1] != h.shape[0] or b.shape != (w.shape[0], 1):
        raise GraphError(f"dense: shapes {w.shape} @ {h.shape} + {b.shape}")
    a = w @ h
    a += b
    # the derivative is 1 or s exactly, so a * deriv has the bits of a and of
    # max(a, s * a), -0.0 included
    meta.deriv = ACTIVATIONS[meta.activation][1](1.0, a, None, meta.slope)
    return a * meta.deriv


def _grad_dense(node, wanted):
    w, h, b = node.parents
    ga = node.grad * node.meta.deriv
    return (ga @ h.value.T if wanted[0] else None,
            w.value.T @ ga if wanted[1] else None,
            ga.sum(axis=1, keepdims=True) if wanted[2] else None)


_OPS = {
    "matmul": (_compute_matmul, _grad_matmul),
    "add": (_compute_add, _grad_add),
    "subtract": (_compute_subtract, _grad_subtract),
    "scale": (_compute_scale, _grad_scale),
    "elementwise-mul": (_compute_elementwise_mul, _grad_elementwise_mul),
    "log": (_compute_log, _grad_log),
    "square": (_compute_square, _grad_square),
    "clip": (_compute_clip, _grad_clip),
    "abs-sum": (_compute_abs_sum, _grad_abs_sum),
    "sum": (_compute_sum, _grad_sum),
    "mean": (_compute_mean, _grad_mean),
    "dense": (_compute_dense, _grad_dense),
}


def _activation_op(name):
    value, vjp = ACTIVATIONS[name]
    return (lambda vals, meta: value(vals[0], meta),
            lambda node, wanted: (vjp(node.grad, node.parents[0].value, node.value,
                                      node.meta),))


_OPS.update((name, _activation_op(name))
            for name in ("leaky-relu", "tanh", "sigmoid", "softplus"))


def _make(kind, parents, meta=None):
    compute, _ = _OPS[kind]
    value = compute(tuple(p.value for p in parents), meta)
    return Node(kind, tuple(parents), value, meta)


def dense(w: Node, h: Node, b: Node, activation: str = "identity",
          slope: float = 0.2) -> Node:
    """One layer, ``activation(w @ h + b)``, as a single node.

    ``activation`` is identity, or leaky-relu with a slope in [0, 1]; any
    other raises GraphError.  Same bits, value and adjoints, as
    ``activation(add(matmul(w, h), b))`` built from the separate ops.
    """
    slope = float(slope)
    if activation not in ("identity", "leaky-relu"):
        raise GraphError(f"dense: unknown activation {activation!r}; "
                         "dense takes identity or leaky-relu")
    if activation == "leaky-relu" and not 0.0 <= slope <= 1.0:
        raise GraphError(f"dense: leaky-relu slope {slope} not in [0, 1]")
    return _make("dense", (w, h, b), DenseMeta(activation, slope))


def matmul(a: Node, b: Node) -> Node:
    return _make("matmul", (a, b))


def add(a: Node, b: Node) -> Node:
    return _make("add", (a, b))


def subtract(a: Node, b: Node) -> Node:
    return _make("subtract", (a, b))


def scale(a: Node, c: float) -> Node:
    return _make("scale", (a,), float(c))


def elementwise_mul(a: Node, b: Node) -> Node:
    return _make("elementwise-mul", (a, b))


def leaky_relu(a: Node, slope: float = 0.2) -> Node:
    return _make("leaky-relu", (a,), float(slope))


def tanh(a: Node) -> Node:
    return _make("tanh", (a,))


def sigmoid(a: Node) -> Node:
    return _make("sigmoid", (a,))


def softplus(a: Node) -> Node:
    return _make("softplus", (a,))


def log(a: Node) -> Node:
    return _make("log", (a,))


def square(a: Node) -> Node:
    return _make("square", (a,))


def clip(a: Node, lo: float, hi: float) -> Node:
    return _make("clip", (a,), (float(lo), float(hi)))


def abs_sum(a: Node) -> Node:
    return _make("abs-sum", (a,))


def node_sum(a: Node) -> Node:
    return _make("sum", (a,))


def mean(a: Node) -> Node:
    return _make("mean", (a,))


def topo_order(root: Node) -> list[Node]:
    """Parents-before-children order of root's subgraph (iterative DFS)."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Reverse accumulation from a scalar root.

    Returns {parameter node: gradient}; every parameter node in the
    subgraph gets its ``grad`` populated, with adjoints of multi-consumer
    nodes summed.  Adjoints are only propagated along paths that reach a
    parameter (pure-constant branches are skipped), so input leaves may be
    left with grad None.
    """
    if root.value.shape != (1, 1):
        raise GraphError(f"backward: root must be scalar, got shape {root.value.shape}")
    order = topo_order(root)
    needs = {}
    for node in order:
        node.grad = None
        needs[id(node)] = node.kind == "parameter" or any(
            needs[id(p)] for p in node.parents)
    root.grad = np.ones((1, 1))
    params = [n for n in order if n.kind == "parameter"]
    if not needs[id(root)]:
        for p in params:
            p.grad = np.zeros_like(p.value)
        return {p: p.grad for p in params}

    def accumulate(parent, contrib, owner_grad):
        if parent.grad is None:
            # contributions alias node.grad only for add/subtract pass-through
            parent.grad = contrib.copy() if contrib is owner_grad else contrib
        else:
            parent.grad += contrib

    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        _, backprop = _OPS[node.kind]
        wanted = tuple(needs[id(p)] for p in node.parents)
        for parent, contrib in zip(node.parents, backprop(node, wanted)):
            if contrib is not None:
                accumulate(parent, contrib, node.grad)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.value)
        if not np.isfinite(p.grad).all():
            raise GraphError("backward: non-finite adjoints")
    return {p: p.grad for p in params}
