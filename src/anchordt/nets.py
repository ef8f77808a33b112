"""Small fully-connected networks: init, forward passes, Adam, checkpoints.

Weights are stored (n_out, n_in) and biases (n_out, 1), acting on column
batches, so a layer is ``W @ x + b``.  Every network is the one kind built
here: leaky-relu hidden layers with slope ``HIDDEN_SLOPE`` and an identity
output.  Both are piecewise linear, so the activation derivatives at a
point, frozen, give the network's exact Jacobian there (almost everywhere).
The plain numpy forward pass (``MlpModel.apply``) and the graph forward
pass (``MlpBinding``) give the same bits.  The graph pass builds one
``autodiff.dense`` node per layer; each hidden node keeps the mask
``a >= 0`` of its pre-activation and its slope, from which
``autodiff.leaky_derivative`` rebuilds the activation derivative, so the
output node of a pass carries the pass's Jacobian, which
``sparsity.jacobian_graph`` reads from it.
A network holds its parameters as one flat float64 vector,
``MlpModel.flat``, in the order [W0, b0, W1, b1, ...] that ``param_order``
spells out, and its ``weights`` and ``biases`` are views of it.  Every
vector of the optimizer is laid out the same way: ``MlpBinding.gradient``
returns the gradient as one vector, and ``adam_step`` updates ``flat`` with
it and with the flat moments of ``AdamState``, so a copy is one array copy
and a binding checks one array for non-finite entries.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .configio import format_float

HIDDEN_SLOPE = 0.2

_CHECKPOINT_MAGIC = "anchordt-mlp-v1"
# header lines the format has always carried; every network has these
_CHECKPOINT_ACTIVATIONS = {"output_activation": "identity",
                           "hidden_slope": format_float(HIDDEN_SLOPE)}


def param_order(weights, biases) -> list:
    """[W0, b0, W1, b1, ...]: the order of the parameters in ``flat``."""
    return [p for pair in zip(weights, biases) for p in pair]


def _shapes(layer_sizes) -> list[tuple[int, int]]:
    """The shapes in ``param_order``: each W (n_out, n_in), each b (n_out, 1)."""
    return [shape for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
            for shape in ((n_out, n_in), (n_out, 1))]


def _views(vector, layer_sizes) -> list[np.ndarray]:
    """Consecutive views of ``vector``, one per parameter in ``param_order``."""
    views, start = [], 0
    for rows, cols in _shapes(layer_sizes):
        views.append(vector[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return views


class MlpModel:
    """A network's layer sizes and its parameters, updated in place.

    The constructor copies the given weights and biases into ``flat``, one
    float64 vector in ``param_order``, and keeps views of it in their place,
    so writing to a weight or bias writes to ``flat`` and the other way round.
    """

    def __init__(self, layer_sizes, weights, biases):
        self.layer_sizes = tuple(layer_sizes)
        params = param_order(weights, biases)
        shapes = [np.shape(p) for p in params]
        if shapes != _shapes(self.layer_sizes):
            raise ValueError(f"parameter shapes {shapes} do not fit "
                             f"layer_sizes {self.layer_sizes}")
        self.flat = np.concatenate(params, axis=None, dtype=np.float64)
        views = _views(self.flat, self.layer_sizes)
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        """One copy of ``flat``, with views of it; no per-array copies."""
        twin = _copy.copy(self)
        twin.flat = self.flat.copy()
        views = _views(twin.flat, self.layer_sizes)
        twin.weights, twin.biases = views[0::2], views[1::2]
        return twin

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Plain numpy forward pass on a (D, N) column batch."""
        x = np.asarray(x, dtype=np.float64)
        h = x.reshape(-1, 1) if x.ndim == 1 else x
        if h.shape[0] != self.input_dim:
            raise ValueError(
                f"input dim {h.shape[0]} != model input dim {self.input_dim}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = w @ h + b
            if i < last:
                h = np.maximum(h, HIDDEN_SLOPE * h)
        return h[:, 0] if x.ndim == 1 else h


def init_mlp(layer_sizes, seed=0) -> MlpModel:
    """Xavier-uniform weights U(-a, a) with a = sqrt(6/(n_in+n_out)), zero biases.

    Deterministic given seed; weights are drawn layer by layer in order.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        a = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-a, a, size=(n_out, n_in)))
        biases.append(np.zeros((n_out, 1)))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


class MlpBinding:
    """Parameter nodes for one model, reused across the graphs of a step.

    Building several losses through the same binding makes their gradients
    accumulate on the same parameter nodes, which is what a combined
    objective needs.  Parameter nodes alias the model's arrays, so optimizer
    updates are visible to the next graph built from the binding.

    A frozen binding wraps the same arrays as constant inputs instead:
    values participate in the graph but backward skips past them (used for
    the discriminator while the generator trains, and vice versa).

    A call returns the output node of one pass, a chain of dense nodes
    whose hidden nodes hold the masks ``a >= 0`` and the slope from which
    the pass's activation derivatives are rebuilt; nothing of the pass is
    kept on the binding.
    """

    def __init__(self, model: MlpModel, frozen: bool = False):
        self.model = model
        self.frozen = frozen
        # one finite check of the flat vector stands for a check an array,
        # which ad.input_node would make; a failure names the first array
        if not np.isfinite(model.flat).all():
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                for name, p in ((f"W{i}", w), (f"b{i}", b)):
                    if not np.isfinite(p).all():
                        raise ad.GraphError(f"{name}: non-finite entries")
        if frozen:
            self.weight_nodes = [ad.Node("input", (), w) for w in model.weights]
            self.bias_nodes = [ad.Node("input", (), b) for b in model.biases]
        else:
            self.weight_nodes = [ad.parameter(w, f"W{i}")
                                 for i, w in enumerate(model.weights)]
            self.bias_nodes = [ad.parameter(b, f"b{i}")
                               for i, b in enumerate(model.biases)]

    @property
    def param_nodes(self) -> list[ad.Node]:
        return param_order(self.weight_nodes, self.bias_nodes)

    def __call__(self, x: ad.Node) -> ad.Node:
        h = x
        last = len(self.weight_nodes) - 1
        for i, (w, b) in enumerate(zip(self.weight_nodes, self.bias_nodes)):
            h = ad.dense(w, h, b, "leaky-relu" if i < last else "identity", HIDDEN_SLOPE)
        return h

    def gradient(self) -> np.ndarray:
        """The current gradient as one float64 vector laid out like the
        model's ``flat``, zeros where no adjoint arrived."""
        if self.frozen:
            raise ValueError("frozen bindings do not accumulate gradients")
        out = np.zeros_like(self.model.flat)
        for view, node in zip(_views(out, self.model.layer_sizes), self.param_nodes):
            if node.grad is not None:
                view[...] = node.grad
        return out


def bind(model: MlpModel, frozen: bool = False) -> MlpBinding:
    return MlpBinding(model, frozen=frozen)


@dataclass
class AdamState:
    """Adam's settings, its step count and its moments ``m`` and ``v``, flat
    vectors laid out as the model's ``flat``."""
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_count: int = 0


def adam_init(model: MlpModel, learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    return AdamState(learning_rate=learning_rate, beta1=beta1, beta2=beta2,
                     epsilon=epsilon, m=np.zeros_like(model.flat),
                     v=np.zeros_like(model.flat))


def adam_step(model: MlpModel, gradient: np.ndarray, state: AdamState):
    """Bias-corrected Adam update, applied in place to the model's ``flat``.

    ``gradient`` is one vector laid out like ``flat``, as
    ``MlpBinding.gradient()`` returns it; the update runs element by element
    on ``flat`` with the flat moments.
    """
    if gradient.shape != model.flat.shape:
        raise ValueError(f"expected the gradients as one vector of shape "
                         f"{model.flat.shape}, like flat; got shape {gradient.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v, flat = state.m, state.v, model.flat
    m *= b1
    m += (1.0 - b1) * gradient
    v *= b2
    v += (1.0 - b2) * gradient ** 2
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    flat -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return model, state


# ---------------------------------------------------------------------------
# checkpoint I/O: versioned text layout, bit-exact round trip
# ---------------------------------------------------------------------------

def save_checkpoint(model: MlpModel, path):
    """Text checkpoint: header lines, then one row-major line per array."""
    lines = [
        _CHECKPOINT_MAGIC,
        "layer_sizes = " + ",".join(str(s) for s in model.layer_sizes),
    ]
    lines += [f"{key} = {value}" for key, value in _CHECKPOINT_ACTIVATIONS.items()]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"W{i} = " + " ".join(format_float(v) for v in w.ravel()))
        lines.append(f"b{i} = " + " ".join(format_float(v) for v in b.ravel()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> MlpModel:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {_CHECKPOINT_MAGIC} checkpoint")
    fields = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        key, _, val = ln.partition(" = ")
        fields[key] = val
    for key, value in _CHECKPOINT_ACTIVATIONS.items():
        if fields.get(key) != value:
            raise ValueError(f"{path}: {key} = {fields.get(key, '(missing)')}; "
                             f"every network has {key} = {value}")

    def numbers(key, parse, sep=None, count=None):
        if key not in fields:
            raise ValueError(f"{path}: the {key} line is missing")
        try:
            values = [parse(tok) for tok in fields[key].split(sep)]
        except ValueError:
            raise ValueError(f"{path}: {key} holds a token that is not a number") from None
        if count is not None and len(values) != count:
            raise ValueError(f"{path}: {key} holds {len(values)} numbers, "
                             f"layer_sizes needs {count}")
        return values

    sizes = tuple(numbers("layer_sizes", int, ","))
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: layer_sizes = {fields['layer_sizes']}; "
                         "needs at least two positive sizes")
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = numbers(f"W{i}", float, count=n_out * n_in)
        b = numbers(f"b{i}", float, count=n_out)
        weights.append(np.array(w, dtype=np.float64).reshape(n_out, n_in))
        biases.append(np.array(b, dtype=np.float64).reshape(n_out, 1))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)
