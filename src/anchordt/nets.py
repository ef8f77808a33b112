"""Small fully-connected networks: init, forward passes, Adam, checkpoints.

Weights are stored (n_out, n_in) and biases (n_out, 1), acting on column
batches, so a layer is ``W @ x + b``.  Every network is the one kind built
here: leaky-relu hidden layers with slope ``HIDDEN_SLOPE`` and an identity
output.  Both are piecewise linear, so the activation derivatives at a
point, frozen, give the network's exact Jacobian there (almost everywhere).
The plain numpy forward pass (``MlpModel.apply``) and the graph forward
pass (``MlpBinding``) give the same bits.  The graph pass builds one
``autodiff.dense`` node per layer, and keeps the activation derivatives
those nodes computed: the Jacobian masks.
Parameters are ordered [W0, b0, W1, b1, ...] wherever they are listed
(gradients, Adam moments), as ``param_order`` spells out.
"""

from __future__ import annotations

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
    """[W0, b0, W1, b1, ...]: the order of gradients and Adam moments."""
    return [p for pair in zip(weights, biases) for p in pair]


@dataclass(frozen=True)
class MlpModel:
    """Frozen fields; the weight and bias arrays are updated in place."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

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

    After each __call__ the activation derivative of every layer of that
    pass is kept in ``last_derivs``: the Jacobian masks at its input.
    """

    def __init__(self, model: MlpModel, frozen: bool = False):
        self.model = model
        self.frozen = frozen
        wrap = ad.input_node if frozen else ad.parameter
        self.weight_nodes = [wrap(w, f"W{i}") for i, w in enumerate(model.weights)]
        self.bias_nodes = [wrap(b, f"b{i}") for i, b in enumerate(model.biases)]
        self.last_derivs: list[np.ndarray] = []

    @property
    def param_nodes(self) -> list[ad.Node]:
        return param_order(self.weight_nodes, self.bias_nodes)

    def __call__(self, x: ad.Node) -> ad.Node:
        h = x
        derivs = []
        last = len(self.weight_nodes) - 1
        for i, (w, b) in enumerate(zip(self.weight_nodes, self.bias_nodes)):
            h = ad.dense(w, h, b, "leaky-relu" if i < last else "identity", HIDDEN_SLOPE)
            derivs.append(h.meta.deriv)
        self.last_derivs = derivs
        return h

    def gradients(self) -> list[np.ndarray]:
        """Current grads in [W0, b0, W1, b1, ...] order (zeros if untouched)."""
        if self.frozen:
            raise ValueError("frozen bindings do not accumulate gradients")
        out = []
        for node in self.param_nodes:
            out.append(np.zeros_like(node.value) if node.grad is None else node.grad)
        return out


def bind(model: MlpModel, frozen: bool = False) -> MlpBinding:
    return MlpBinding(model, frozen=frozen)


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)
    step_count: int = 0


def adam_init(model: MlpModel, learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    shapes = param_order(model.weights, model.biases)
    return AdamState(
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, epsilon=epsilon,
        first_moment=[np.zeros_like(p) for p in shapes],
        second_moment=[np.zeros_like(p) for p in shapes],
    )


def adam_step(model: MlpModel, gradients: list[np.ndarray], state: AdamState):
    """Bias-corrected Adam update, applied in place to the model's arrays.

    ``gradients`` must be in [W0, b0, W1, b1, ...] order, matching
    MlpBinding.gradients().
    """
    params = param_order(model.weights, model.biases)
    if len(gradients) != len(params):
        raise ValueError(f"expected {len(params)} gradients, got {len(gradients)}")
    for p, g in zip(params, gradients):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, gradients, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
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
    sizes = tuple(int(s) for s in fields["layer_sizes"].split(","))
    model = MlpModel(layer_sizes=sizes, weights=[], biases=[])
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = _parse_floats(fields[f"W{i}"]).reshape(n_out, n_in)
        b = _parse_floats(fields[f"b{i}"]).reshape(n_out, 1)
        model.weights.append(w)
        model.biases.append(b)
    return model


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()], dtype=np.float64)
