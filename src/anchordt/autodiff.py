"""Define-by-run reverse-mode differentiation over dense float64 matrices.

Every value in a graph is a 2-D row-major float64 array.  Graphs are built
eagerly: each op's constructor checks its parents' shapes, computes the
node's value once and returns the node, and a graph is never re-evaluated;
a value at other leaf values is a new graph.  The op table maps each kind to
its backprop alone.  The ops are matmul, add, subtract, scale,
elementwise-mul, log, square, clip, abs-sum, sum, mean, softplus, and dense,
one network layer ``act(W @ h + b)`` as a single node, where act is identity
or leaky-relu with the one slope ``HIDDEN_SLOPE``: the two activations of
``anchordt.nets``.  The leaky derivative is exactly 1 or the slope, so a
leaky dense node's value is the pre-activation times the derivative, and a
sign bit is all the derivative carries: the node's meta is the boolean mask
``a >= 0`` of its pre-activation a, one byte an element, from which
``leaky_derivative`` rebuilds the float derivative when backward or the
Jacobian graphs of ``anchordt.sparsity`` need it; an identity layer's
derivative is 1, and its meta is None.
backward releases each node's adjoint once it has reached the node's
parents, so only the adjoints still to propagate are alive at once;
parameter gradients, the root's adjoint and every value are kept.
The matmul and dense backprops take every product from one helper, which
computes a product of inner dimension 1, an outer product, as
``np.multiply``: the discriminator's one-logit layer backprops its input
adjoint that way, as does a one-point pass its weight gradient.  Its values
are those of ``@``, NaN and inf included, except that a product of a -0.0
keeps its sign, where BLAS, summing from +0.0, returns +0.0; sharing the
helper keeps a dense node's adjoints bit-equal to those of the primitive
ops it fuses.
softplus(a) = log(1 + e^a) is the GAN losses' one nonlinearity on the
discriminator's logits.  leaky-relu, tanh and sigmoid are ops of their
own as well, sharing one backprop through ``ACTIVATIONS``, and clip and log
ops too; no runtime code builds any of them, and they stay only as names
the benchmark traces.

Convention used throughout the package: samples are columns, so a batch of
N points in R^D is a (D, N) matrix and a linear layer is ``W @ x + b`` with
``b`` a (D, 1) column broadcast across the batch.
"""

from __future__ import annotations

import numpy as np

#: the slope of every leaky-relu: the one hidden activation of every network
HIDDEN_SLOPE = 0.2


class GraphError(ValueError):
    """Malformed graph construction or use (shape mismatch, bad op, ...)."""


def _as_matrix(value, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise GraphError(f"{what}: expected a matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise GraphError(f"{what}: expected a nonempty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GraphError(f"{what}: non-finite entries")
    return arr


class Node:
    """One vertex of the computation graph.

    ``kind`` is the op name, ``parents`` the input nodes, ``value`` the
    (rows, cols) float64 result, ``grad`` the accumulated adjoint of the
    same shape (:func:`backward` leaves it on parameters and the root
    alone), and ``meta`` carries the op's constants (scale factor, clip
    bounds).  A leaky dense node's meta is the boolean mask ``a >= 0`` of its
    pre-activation a; an identity dense node's is None.
    """

    __slots__ = ("kind", "parents", "value", "grad", "meta", "__weakref__")

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
    """Trainable leaf; shares storage with the caller's array (no copy).

    The caller checks that the values are finite: ``nets.MlpBinding`` does
    so once for a whole network.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise GraphError(f"{what}: parameters must be matrices")
    return Node("parameter", (), arr)


# ---------------------------------------------------------------------------
# ops: each constructor checks its parents' shapes, computes the node's value
# and returns the node; its backprop(node, wanted) returns one adjoint
# contribution per parent, None where ``wanted`` is False.  backward calls
# backprop only for a node some parent of which is wanted, so the one-parent
# ops ignore ``wanted``.
# ---------------------------------------------------------------------------

def _sigmoid(x):
    # Branch on sign for overflow safety at large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def leaky_derivative(mask):
    """The leaky derivative from its mask ``a >= 0``: 1 where the mask is
    True and ``HIDDEN_SLOPE`` elsewhere, one float array built in place."""
    deriv = mask.astype(np.float64)
    deriv *= 1.0 - HIDDEN_SLOPE
    deriv += HIDDEN_SLOPE
    return deriv


def _product(a, b):
    """``a @ b``, an outer product (inner dimension 1) as ``np.multiply``,
    which keeps the sign of a zero product (see the module docstring)."""
    if a.shape[1] == 1:
        return np.multiply(a, b)
    return a @ b


# Activation table: name -> (value(a), vjp(g, a, value)), where
# a is the pre-activation, value its activation and g the output adjoint.  The
# one-input activation ops read it.  The leaky-relu vjp, dense's backward,
# sparsity's Jacobian graphs and sparsity.activation_masks all build the leaky
# derivative with leaky_derivative.  Only tanh, sigmoid and softplus read
# ``value``: softplus' derivative is sigmoid(a) = -expm1(-softplus(a)).  Only
# leaky-relu reads ``a``.  The leaky tie at exactly 0 resolves to slope 1.
# The leaky derivative is arithmetic, not np.where, which mispredicts on
# random signs; (1 - s) + s rounds to exactly 1 for s in [0, 1], so both
# forms give the same bits.
ACTIVATIONS = {
    "leaky-relu": (lambda a: np.maximum(a, HIDDEN_SLOPE * a),
                   lambda g, a, v: g * leaky_derivative(a >= 0)),
    "tanh": (np.tanh, lambda g, a, v: g * (1.0 - v ** 2)),
    "sigmoid": (_sigmoid, lambda g, a, v: g * v * (1.0 - v)),
    "softplus": (lambda a: np.logaddexp(0.0, a), lambda g, a, v: -g * np.expm1(-v)),
}


def _activation(kind, a):
    return Node(kind, (a,), ACTIVATIONS[kind][0](a.value))


def _grad_activation(node, wanted):
    vjp = ACTIVATIONS[node.kind][1]
    return (vjp(node.grad, node.parents[0].value, node.value),)


def leaky_relu(a: Node) -> Node:
    return _activation("leaky-relu", a)


def tanh(a: Node) -> Node:
    return _activation("tanh", a)


def sigmoid(a: Node) -> Node:
    return _activation("sigmoid", a)


def softplus(a: Node) -> Node:
    return _activation("softplus", a)


def dense(w: Node, h: Node, b: Node, leaky: bool) -> Node:
    """One layer, ``w @ h + b`` and then leaky-relu when ``leaky``, as a
    single node.  Same bits, value and adjoints, as ``add(matmul(w, h), b)``,
    or its ``leaky_relu``, built from the separate ops."""
    if w.shape[1] != h.shape[0] or b.shape != (w.shape[0], 1):
        raise GraphError(f"dense: shapes {w.shape} @ {h.shape} + {b.shape}")
    a = w.value @ h.value
    a += b.value
    if not leaky:
        return Node("dense", (w, h, b), a)
    # the derivative is 1 or s exactly, so max(a, s * a) has the bits of
    # a * deriv, -0.0 included
    mask = a >= 0
    np.maximum(a, HIDDEN_SLOPE * a, out=a)
    return Node("dense", (w, h, b), a, mask)


def _grad_dense(node, wanted):
    w, h, b = node.parents
    ga = node.grad
    if node.meta is not None:
        # in place: the adjoint is this node's alone (see backward)
        ga *= leaky_derivative(node.meta)
    return (_product(ga, h.value.T) if wanted[0] else None,
            _product(w.value.T, ga) if wanted[1] else None,
            ga.sum(axis=1, keepdims=True) if wanted[2] else None)


def matmul(a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul: inner dims disagree {a.shape} @ {b.shape}")
    return Node("matmul", (a, b), a.value @ b.value)


def _grad_matmul(node, wanted):
    a, b = node.parents
    return (_product(node.grad, b.value.T) if wanted[0] else None,
            _product(a.value.T, node.grad) if wanted[1] else None)


def add(a: Node, b: Node) -> Node:
    if b.shape != a.shape and b.shape != (a.shape[0], 1):
        raise GraphError(f"add: shapes {a.shape} + {b.shape} (only equal or column broadcast)")
    return Node("add", (a, b), a.value + b.value)


def _grad_add(node, wanted):
    a, b = node.parents
    gb = node.grad
    if wanted[1] and b.value.shape != node.grad.shape:
        gb = node.grad.sum(axis=1, keepdims=True)
    return (node.grad if wanted[0] else None, gb if wanted[1] else None)


def subtract(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise GraphError(f"subtract: shapes {a.shape} - {b.shape}")
    return Node("subtract", (a, b), a.value - b.value)


def _grad_subtract(node, wanted):
    return (node.grad if wanted[0] else None, -node.grad if wanted[1] else None)


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return Node("scale", (a,), c * a.value, c)


def _grad_scale(node, wanted):
    return (node.meta * node.grad,)


def elementwise_mul(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise GraphError(f"elementwise-mul: shapes {a.shape} * {b.shape}")
    return Node("elementwise-mul", (a, b), a.value * b.value)


def _grad_elementwise_mul(node, wanted):
    a, b = node.parents
    return (node.grad * b.value if wanted[0] else None,
            node.grad * a.value if wanted[1] else None)


def log(a: Node) -> Node:
    if np.any(a.value <= 0):
        raise GraphError("log: non-positive input")
    return Node("log", (a,), np.log(a.value))


def _grad_log(node, wanted):
    return (node.grad / node.parents[0].value,)


def square(a: Node) -> Node:
    return Node("square", (a,), a.value ** 2)


def _grad_square(node, wanted):
    return (node.grad * 2.0 * node.parents[0].value,)


def clip(a: Node, lo: float, hi: float) -> Node:
    lo, hi = float(lo), float(hi)
    return Node("clip", (a,), np.clip(a.value, lo, hi), (lo, hi))


def _grad_clip(node, wanted):
    # Zero gradient where the value saturated.  No runtime code calls clip or
    # log since the GAN losses moved to softplus on logits; the benchmark
    # traces both by name, so they go with the next change to it.
    lo, hi = node.meta
    x = node.parents[0].value
    inside = (x > lo) & (x < hi)
    return (node.grad * inside,)


def abs_sum(a: Node) -> Node:
    return Node("abs-sum", (a,), np.abs(a.value).sum().reshape(1, 1))


def _grad_abs_sum(node, wanted):
    # Subgradient 0 at exact zeros (np.sign convention); valid a.e.
    return (node.grad[0, 0] * np.sign(node.parents[0].value),)


def node_sum(a: Node) -> Node:
    return Node("sum", (a,), a.value.sum().reshape(1, 1))


def _grad_sum(node, wanted):
    return (np.full_like(node.parents[0].value, node.grad[0, 0]),)


def mean(a: Node) -> Node:
    return Node("mean", (a,), a.value.mean().reshape(1, 1))


def _grad_mean(node, wanted):
    p = node.parents[0].value
    return (np.full_like(p, node.grad[0, 0] / p.size),)


# op table: node kind -> backprop
_OPS = {
    "dense": _grad_dense,
    "matmul": _grad_matmul,
    "add": _grad_add,
    "subtract": _grad_subtract,
    "scale": _grad_scale,
    "elementwise-mul": _grad_elementwise_mul,
    "log": _grad_log,
    "square": _grad_square,
    "clip": _grad_clip,
    "abs-sum": _grad_abs_sum,
    "sum": _grad_sum,
    "mean": _grad_mean,
    **dict.fromkeys(ACTIVATIONS, _grad_activation),
}


def topo_order(root: Node) -> list[Node]:
    """Parents-before-children order of root's subgraph (iterative DFS)."""
    return _order_and_needs(root)[0]


def _order_and_needs(root: Node):
    """topo_order(root), and the set of its nodes that are parameters or
    have one among their ancestors, the nodes an adjoint must reach, found
    in the same pass."""
    order, needs, seen = [], set(), set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            if node.kind == "parameter" or any(p in needs for p in node.parents):
                needs.add(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order, needs


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Reverse accumulation from a scalar root.

    Returns {parameter node: gradient}; every parameter node in the
    subgraph gets its ``grad`` populated, with adjoints of multi-consumer
    nodes summed.  Adjoints are only propagated along paths that reach a
    parameter (pure-constant branches are skipped), so input leaves are
    left with grad None.  Each node's adjoint is released (``grad`` back to
    None) once it has reached the node's parents, and the root's is set
    back to 1 after the sweep; parameter gradients and every value are kept.

    Each adjoint in the sweep has exactly one owner, the node whose ``grad``
    it is: an add or subtract node hands its own adjoint to the first parent
    that has none yet and a copy to any other, and every other contribution
    is a new array.  So a backprop may scale its node's adjoint in place, as
    dense's does.
    """
    if root.value.shape != (1, 1):
        raise GraphError(f"backward: root must be scalar, got shape {root.value.shape}")
    order, needs = _order_and_needs(root)
    params = []
    for node in order:
        node.grad = None
        if node.kind == "parameter":
            params.append(node)
    root.grad = np.ones((1, 1))
    if root not in needs:
        for p in params:
            p.grad = np.zeros_like(p.value)
        return {p: p.grad for p in params}

    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        backprop = _OPS[node.kind]
        wanted = tuple(p in needs for p in node.parents)
        handed_on = False
        for parent, contrib in zip(node.parents, backprop(node, wanted)):
            if contrib is None:
                continue
            if parent.grad is not None:
                parent.grad += contrib
            elif contrib is node.grad:
                # add/subtract pass-through: one parent may own it
                parent.grad = contrib.copy() if handed_on else contrib
                handed_on = True
            else:
                parent.grad = contrib
        node.grad = None
    root.grad = np.ones((1, 1))
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.value)
        if not np.isfinite(p.grad).all():
            raise GraphError("backward: non-finite adjoints")
    return {p: p.grad for p in params}
